package persist

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/events"
)

// Degraded read-only mode. A store that cannot promise durability —
// a failed WAL fsync, ENOSPC on append, a torn write that left the
// log at a dirty boundary — used to poison itself until process
// restart. Instead it now transitions to an explicit degraded state:
//
//   - Every write path (Apply, ApplyReplicatedFrom, Checkpoint,
//     ResetToSnapshot) fails fast with an error matching ErrDegraded.
//   - Every read path (Snapshot, Query, Len, Backup, History,
//     StateAt, ReplicaCut and the subscription fan-out) keeps
//     working: the installed in-memory state is intact, so replicas
//     keep streaming and read traffic keeps being served.
//   - A background probe re-tests the disk every probe interval
//     (write + fsync of a scratch file in the store directory) and,
//     on success, repairs the store: the current state is written as
//     a durable snapshot, the WAL is rotated to a fresh, verified
//     file, and writes come back — no restart, no data loss for any
//     acknowledged transaction.
//
// The transition is deliberately one-way per incident: only a
// successful repair (which re-proves fsync on the actual WAL file)
// clears it, never a lucky later write.

// ErrDegraded is reported (via errors.Is) by write operations while
// the store is in degraded read-only mode after a durability failure.
// The HTTP layer maps it to 503 with a Retry-After hint.
var ErrDegraded = errors.New("persist: store degraded to read-only (durability failure)")

// Health is a point-in-time view of the store's durability state.
type Health struct {
	// Degraded reports whether the store is in read-only mode.
	Degraded bool
	// Reason names the operation whose failure degraded the store
	// (e.g. "wal sync", "wal append"); empty when healthy.
	Reason string
	// Cause is the underlying error text; empty when healthy.
	Cause string
	// Since is when the store degraded; zero when healthy.
	Since time.Time
	// ProbeEvery is the configured disk re-probe interval.
	ProbeEvery time.Duration
}

// Health returns the store's current durability state.
func (s *Store) Health() Health {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	h := Health{ProbeEvery: s.cfg.probeEvery}
	if s.deg.down {
		h.Degraded = true
		h.Reason = s.deg.reason
		h.Since = s.deg.since
		if s.deg.cause != nil {
			h.Cause = s.deg.cause.Error()
		}
	}
	return h
}

// degradedErr returns a descriptive error matching ErrDegraded when
// the store is degraded, nil otherwise. Write paths call it on entry
// to fail fast without touching the disk.
func (s *Store) degradedErr() error {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	if !s.deg.down {
		return nil
	}
	return fmt.Errorf("%w: %s since %s: %v",
		ErrDegraded, s.deg.reason, s.deg.since.Format(time.RFC3339), s.deg.cause)
}

// enterDegraded switches the store into degraded read-only mode (if
// it is not already there) and starts the background disk probe. It
// takes only the degrade lock, so it is safe to call from any commit
// path, including ones holding s.mu or no lock at all.
func (s *Store) enterDegraded(reason string, cause error) {
	if s.closing.Load() {
		return
	}
	s.deg.mu.Lock()
	if s.deg.down {
		s.deg.mu.Unlock()
		return
	}
	s.deg.down = true
	s.deg.reason = reason
	s.deg.cause = cause
	s.deg.since = time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	s.deg.stop, s.deg.done = stop, done
	s.deg.mu.Unlock()

	s.met.setDegraded(true)
	s.met.incDegrade()
	seq, epoch := s.seqMirror.Load(), s.epochMirror.Load()
	s.cfg.slogger.Warn("store degraded to read-only",
		"reason", reason, "cause", cause.Error(), "probeEvery", s.cfg.probeEvery,
		"seq", seq, "epoch", epoch)
	s.ev.Emit(events.Event{
		Type:     events.DegradedEnter,
		Epoch:    epoch,
		StoreSeq: int(seq),
		Detail:   fmt.Sprintf("%s: %v", reason, cause),
	})
	go s.probeLoop(stop, done)
}

// exitDegraded clears the degraded state after a successful repair.
func (s *Store) exitDegraded() {
	s.deg.mu.Lock()
	down := s.deg.down
	since := s.deg.since
	s.deg.down = false
	s.deg.reason, s.deg.cause = "", nil
	s.deg.mu.Unlock()
	if down {
		s.met.setDegraded(false)
		seq, epoch := s.seqMirror.Load(), s.epochMirror.Load()
		s.cfg.slogger.Info("disk recovered; write availability restored",
			"degradedFor", time.Since(since).Round(time.Millisecond),
			"seq", seq, "epoch", epoch)
		s.ev.Emit(events.Event{
			Type:     events.DegradedExit,
			Epoch:    epoch,
			StoreSeq: int(seq),
			Detail:   fmt.Sprintf("degraded for %v", time.Since(since).Round(time.Millisecond)),
		})
	}
}

// probeLoop periodically re-tests the disk while the store is
// degraded. Each attempt first proves the directory accepts a durable
// scratch write, then runs the full repair (snapshot + WAL rotation,
// which re-proves fsync on the WAL itself). The loop exits on
// successful repair, on stop, or when the store closes.
func (s *Store) probeLoop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(s.cfg.probeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if s.closing.Load() {
			return
		}
		s.met.incProbe()
		if err := s.probeDisk(); err != nil {
			s.cfg.slogger.Debug("disk probe failed", "cause", err.Error())
			continue
		}
		if err := s.repair(); err != nil {
			if errors.Is(err, ErrClosed) {
				return
			}
			s.cfg.slogger.Debug("repair after disk probe failed", "cause", err.Error())
			continue
		}
		s.met.incProbeSuccess()
		s.exitDegraded()
		return
	}
}

// probeDisk tests the store directory with a scratch write + fsync,
// the minimal proof that the disk accepts durable writes again.
func (s *Store) probeDisk() error {
	f, err := s.fs.CreateTemp(s.dir, "health-*.probe")
	if err != nil {
		return err
	}
	name := f.Name()
	defer s.fs.Remove(name)
	if _, err := f.Write([]byte("park disk probe\n")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repair restores write availability after the disk recovers: it
// writes the current in-memory state as a durable snapshot (making
// every installed transaction — acknowledged or not — durable at
// once), then replaces the poisoned WAL file with a fresh one and
// fsyncs it, proving the log itself accepts durability again. Only
// when all of that succeeds are the sticky append/sync errors
// cleared and group-commit waiters released.
func (s *Store) repair() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	db := s.current()
	if err := s.writeSnapshotLocked(db, s.seq, s.epoch); err != nil {
		return err
	}
	s.walGate.Lock() // the rotation truncates what history reads decode
	wal, err := s.fs.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	s.walGate.Unlock()
	if err != nil {
		return fmt.Errorf("persist: repair: %w", err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return fmt.Errorf("persist: repair: wal fsync still failing: %w", err)
	}
	old := s.wal
	s.wal = wal
	// The old handle may have unsyncable dirty pages; closing it is
	// best-effort. An in-flight group-commit fsync that raced the swap
	// detects it (waitDurable compares handles) and ignores the error.
	old.Close()
	s.walErr = nil
	s.walRecords, s.walBytes = 0, 0
	// The rotation dropped the durable vote and fence records;
	// re-append them so the single-vote-per-epoch rule and the fencing
	// floor still hold across a restart.
	if err := s.reseedElectionRecords(); err != nil {
		return fmt.Errorf("persist: repair: %w", err)
	}
	s.snapDB = db // installed states are immutable
	s.resetHistoryLocked()
	s.baseSeq = s.seq
	s.baseEpoch = s.epoch
	s.syncMu.Lock()
	s.syncErr = nil
	if s.appendedLSN > s.syncedLSN {
		// Everything ever appended is covered by the snapshot now.
		s.syncedLSN = s.appendedLSN
	}
	s.pendingTxns = 0
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
	s.cfg.slogger.Info("store repaired", "seq", s.seq)
	return nil
}

// stopProbe halts the background probe, if one is running, and waits
// for it to exit. Close calls it after releasing the store lock.
func (s *Store) stopProbe() {
	s.deg.mu.Lock()
	stop, done := s.deg.stop, s.deg.done
	s.deg.stop = nil
	s.deg.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
