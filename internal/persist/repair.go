package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrCorrupt is reported (via errors.Is) when recovery finds WAL
// corruption that is not a torn tail — wrong bytes rather than
// missing bytes. Open refuses to proceed past it; RepairOpen
// quarantines it.
var ErrCorrupt = errors.New("persist: WAL corruption")

// CorruptError pinpoints a corrupt WAL region found during recovery.
// It matches ErrCorrupt under errors.Is.
type CorruptError struct {
	// Path is the WAL file the corruption was found in.
	Path string
	// Offset is the byte offset of the first corrupt record.
	Offset int64
	// Reason describes what failed validation there.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("%v in %s at offset %d: %s", ErrCorrupt, e.Path, e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// RepairReport describes what RepairOpen salvaged and what it set
// aside.
type RepairReport struct {
	// RecoveredSeq is the last committed transaction sequence in the
	// recovered prefix; the store resumes from there.
	RecoveredSeq int
	// QuarantinedFile is the full path of the file holding the bytes
	// that were cut from the WAL (the corrupt region and everything
	// after it, since record framing is lost past the first bad
	// record).
	QuarantinedFile string
	// QuarantinedBytes is that file's length.
	QuarantinedBytes int64
	// Offset is where in the original WAL the quarantined region
	// began (the end of the last committed transaction).
	Offset int64
	// Reason is the validation failure that triggered the repair.
	Reason string
}

// RepairOpen opens a store whose WAL failed Open with ErrCorrupt: the
// committed prefix before the corruption is recovered as the store
// state, and the corrupt region (plus everything after it, whose
// framing is unrecoverable) is moved aside verbatim to
// wal.corrupt-<seq> in the store directory for offline forensics. The
// returned report says exactly what was kept and what was set aside;
// it is nil when the WAL turned out to be clean and no repair was
// needed.
//
// RepairOpen is deliberately a separate entry point rather than an
// Open option: discarding committed transactions must be an explicit
// operator decision, never a default.
func RepairOpen(dir string, opts ...Option) (*Store, *RepairReport, error) {
	return open(dir, true, opts...)
}

// quarantine moves the unrecoverable WAL region — everything at or
// past committedEnd, which includes the corrupt record and any
// unframeable bytes after it — into wal.corrupt-<seq>, durably, and
// logs a report. The caller then truncates the WAL to committedEnd.
func (s *Store) quarantine(walPath string, committedEnd int64, corrupt *CorruptError) (*RepairReport, error) {
	data, err := s.fs.ReadFile(walPath)
	if err != nil {
		return nil, fmt.Errorf("persist: quarantine: %w", err)
	}
	if committedEnd > int64(len(data)) {
		committedEnd = int64(len(data))
	}
	region := data[committedEnd:]
	qPath := filepath.Join(s.dir, fmt.Sprintf("wal.corrupt-%d", s.seq))
	q, err := s.fs.OpenFile(qPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: quarantine: %w", err)
	}
	if _, err := q.Write(region); err != nil {
		q.Close()
		return nil, fmt.Errorf("persist: quarantine: %w", err)
	}
	if err := q.Sync(); err != nil {
		q.Close()
		return nil, fmt.Errorf("persist: quarantine: %w", err)
	}
	if err := q.Close(); err != nil {
		return nil, fmt.Errorf("persist: quarantine: %w", err)
	}
	report := &RepairReport{
		RecoveredSeq:     s.seq,
		QuarantinedFile:  qPath,
		QuarantinedBytes: int64(len(region)),
		Offset:           committedEnd,
		Reason:           corrupt.Reason,
	}
	s.cfg.slogger.Warn("WAL corruption quarantined",
		"offset", corrupt.Offset, "reason", corrupt.Reason,
		"quarantinedBytes", report.QuarantinedBytes, "file", qPath, "recoveredSeq", s.seq)
	return report, nil
}
