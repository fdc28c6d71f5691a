package persist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/parser"
)

// History returns the committed transactions since the last
// checkpoint, oldest first, with their global sequence numbers.
// Transactions that changed nothing are not recorded. The ones older
// than the in-memory tail are read back from the WAL, without trace
// IDs; the error reports a failed read.
func (s *Store) History() ([]TxnRecord, error) {
	s.mu.Lock()
	c := s.cutHistoryLocked(0)
	s.mu.Unlock()
	return s.readCut(c)
}

// BaseSeq returns the global sequence number of the last checkpoint:
// StateAt(BaseSeq()) is the checkpoint state, and history covers
// (BaseSeq(), Seq()].
func (s *Store) BaseSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseSeq
}

// StateAt reconstructs the database as of global transaction sequence
// seq. The earliest reachable state is the last checkpoint
// (seq == BaseSeq()); the latest is the current state (seq == Seq()).
// It errors if seq is outside that window.
func (s *Store) StateAt(seq int) (*core.Database, error) {
	s.mu.Lock()
	base, last, snap := s.baseSeq, s.seq, s.snapDB
	if seq < base || seq > last {
		s.mu.Unlock()
		return nil, fmt.Errorf("persist: transaction %d out of range [%d, %d]", seq, base, last)
	}
	c := s.cutHistoryLocked(0)
	s.mu.Unlock()
	hist, err := s.readCut(c)
	if err != nil {
		return nil, err
	}
	db := snap.Clone()
	for _, txn := range hist {
		if txn.Seq > seq {
			break
		}
		if err := s.applyDelta(db, txn); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// ApplyUpdates is Apply with an empty program: it durably applies raw
// updates (conflicting pairs within the update set are resolved by
// the strategy, defaulting to inertia).
func (s *Store) ApplyUpdates(ctx context.Context, updates []core.Update) error {
	_, err := s.Apply(ctx, &core.Program{}, updates, nil, core.Options{})
	return err
}

// Query evaluates a conjunctive query against the current state. It
// runs on the installed copy-on-write snapshot and never waits on
// writers.
func (s *Store) Query(q *core.Query, yield func(binding []core.Sym) bool) error {
	return core.EvalQuery(s.u, s.current(), q, yield)
}

// Checkpoint writes the current state as a new snapshot (atomically,
// via temp file + rename) and truncates the write-ahead log. The
// snapshot header records the global sequence, so sequence numbers
// keep increasing across checkpoints. In-flight group-commit waiters
// are released: the snapshot made their transactions durable. A
// checkpoint I/O failure (disk full, failed fsync) degrades the store
// to read-only; the on-disk pair stays consistent either way, because
// replay over the surviving snapshot is idempotent.
func (s *Store) Checkpoint() error {
	if err := s.degradedErr(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	db := s.current()
	if err := s.writeSnapshotLocked(db, s.seq, s.epoch); err != nil {
		s.enterDegraded("checkpoint snapshot", err)
		return fmt.Errorf("%w; %w", err, ErrDegraded)
	}
	if err := s.truncateWALLocked(); err != nil {
		s.enterDegraded("checkpoint wal truncate", err)
		return fmt.Errorf("%w; %w", err, ErrDegraded)
	}
	// The truncation dropped the durable vote and fence records;
	// re-append them so the single-vote-per-epoch rule and the fencing
	// floor still hold across a restart.
	if err := s.reseedElectionRecords(); err != nil {
		s.enterDegraded("checkpoint wal reseed", err)
		return fmt.Errorf("persist: %w; %w", err, ErrDegraded)
	}
	s.snapDB = db // installed states are immutable
	s.resetHistoryLocked()
	s.baseSeq = s.seq
	s.baseEpoch = s.epoch
	s.cfg.slogger.Info("checkpoint written", "seq", s.seq, "epoch", s.epoch)
	s.ev.Emit(events.Event{
		Type:     events.Checkpoint,
		Epoch:    s.epoch,
		StoreSeq: s.seq,
	})
	// Every appended transaction is in the durable snapshot now;
	// release any committers still waiting on an fsync. (LSNs are
	// logical counts, so an fsync in flight across this point settles
	// harmlessly.)
	s.syncMu.Lock()
	if s.appendedLSN > s.syncedLSN {
		s.syncedLSN = s.appendedLSN
	}
	s.pendingTxns = 0
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
	return nil
}

// truncateWALLocked empties the WAL once a snapshot covers it, after
// any history read still decoding it is done. Callers hold s.mu.
func (s *Store) truncateWALLocked() error {
	s.walGate.Lock()
	defer s.walGate.Unlock()
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	s.walRecords, s.walBytes = 0, 0
	return nil
}

// writeSnapshotLocked durably writes db as the snapshot file (temp
// file + fsync + atomic rename) with seq and epoch in the header
// comment. Epoch-0 stores keep the pre-epoch header format so their
// snapshots stay readable by older binaries. Callers hold s.mu.
func (s *Store) writeSnapshotLocked(db *core.Database, seq int, epoch int64) error {
	tmp, err := s.fs.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmpName := tmp.Name()
	defer s.fs.Remove(tmpName)
	header := fmt.Sprintf("%s%d\n", snapshotSeqPrefix, seq)
	if epoch > 0 {
		header = fmt.Sprintf("%s%d%s%d\n", snapshotSeqPrefix, seq, snapshotEpochKey, epoch)
	}
	if _, err := io.WriteString(tmp, header); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	ids := append([]core.AID(nil), db.Atoms()...)
	s.u.SortAtoms(ids)
	for _, id := range ids {
		if _, err := fmt.Fprintf(tmp, "%s.\n", s.u.AtomString(id)); err != nil {
			tmp.Close()
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := s.fs.Rename(tmpName, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Close syncs and closes the store. Further operations fail with
// ErrClosed. Committers still waiting for group commit are released
// by the final sync.
func (s *Store) Close() error {
	// Stop the degraded-mode probe before taking the store lock: its
	// repair path acquires s.mu, so waiting for it under the lock
	// would deadlock.
	s.closing.Store(true)
	s.stopProbe()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.wal.Sync()
	closeErr := s.wal.Close()
	s.syncMu.Lock()
	if syncErr != nil {
		s.syncErr = syncErr
	} else if s.appendedLSN > s.syncedLSN {
		s.syncedLSN = s.appendedLSN
	}
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
	if syncErr != nil {
		return fmt.Errorf("persist: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("persist: %w", closeErr)
	}
	return nil
}

// Backup streams a consistent snapshot of the current state (sorted
// ground facts in rule-language syntax) to w. The result is a valid
// snapshot/database file. Backup reads the installed copy-on-write
// state and never blocks writers.
func (s *Store) Backup(w io.Writer) error {
	db := s.current()
	ids := append([]core.AID(nil), db.Atoms()...)
	s.u.SortAtoms(ids)
	bw := bufio.NewWriter(w)
	for _, id := range ids {
		if _, err := fmt.Fprintf(bw, "%s.\n", s.u.AtomString(id)); err != nil {
			return fmt.Errorf("persist: backup: %w", err)
		}
	}
	return bw.Flush()
}

// Restore initializes a NEW store directory from a backup stream. It
// refuses to overwrite an existing snapshot or WAL.
func Restore(dir string, r io.Reader) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	snapPath := filepath.Join(dir, snapshotName)
	walPath := filepath.Join(dir, walName)
	for _, path := range []string{snapPath, walPath} {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("persist: restore target %s already exists", path)
		}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("persist: restore: %w", err)
	}
	// Validate before writing: the backup must parse as a database.
	if _, err := parser.ParseDatabase(core.NewUniverse(), "backup", string(data)); err != nil {
		return fmt.Errorf("persist: invalid backup: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "restore-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return os.Rename(tmpName, snapPath)
}
