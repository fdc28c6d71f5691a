package persist

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
)

// Apply runs one transaction: PARK(P, current state, updates) under
// the given strategy and options, durably logs the fact-level delta,
// and installs the result as the new current state. On error the
// store is unchanged. A durability failure (failed WAL append or
// fsync) degrades the store to read-only — Apply and later writes
// fail with errors matching ErrDegraded until the background disk
// probe repairs it (see degrade.go). It returns the engine result
// (whose Output is the new state).
//
// Apply is safe to call from many goroutines. Evaluation runs on an
// immutable snapshot outside the store lock; if another transaction
// commits first, the evaluation is retried on the new state
// (optimistic concurrency). Durability is acknowledged through group
// commit: one fsync covers every transaction installed since the
// previous fsync.
func (s *Store) Apply(ctx context.Context, prog *core.Program, updates []core.Update, strategy core.Strategy, opts core.Options) (*core.Result, error) {
	res, _, err := s.ApplyTxn(ctx, prog, updates, strategy, opts)
	return res, err
}

// CommitInfo locates a committed transaction in the global order: its
// sequence number and the leadership epoch it committed under. A
// transaction that changed nothing has Seq 0 — it was never assigned
// a sequence.
type CommitInfo struct {
	Seq   int
	Epoch int64
}

// ApplyTxn is Apply plus the commit coordinates of the installed
// transaction. The server layer uses the sequence to wait for
// replication acknowledgement before answering a cluster write.
func (s *Store) ApplyTxn(ctx context.Context, prog *core.Program, updates []core.Update, strategy core.Strategy, opts core.Options) (*core.Result, CommitInfo, error) {
	if err := s.degradedErr(); err != nil {
		return nil, CommitInfo{}, err
	}
	if err := s.acquireSlot(ctx); err != nil {
		return nil, CommitInfo{}, err
	}
	defer s.releaseSlot()
	if s.cfg.serialized {
		return s.applySerialized(ctx, prog, updates, strategy, opts)
	}

	traceID := flight.TraceID(ctx)
	for {
		if err := ctx.Err(); err != nil {
			return nil, CommitInfo{}, err
		}
		base := s.current()
		// Attach a fresh flight recorder per attempt (a retry re-runs
		// the evaluation, so the previous attempt's events are stale).
		// A caller-supplied tracer wins: the engine takes one tracer,
		// and explicit tracing is rarer and more deliberate.
		attemptOpts := opts
		var rec *flight.Recorder
		if s.flight != nil && opts.Tracer == nil {
			rec = flight.NewRecorder(s.u)
			attemptOpts.Tracer = rec
		}
		eng, err := core.NewEngine(s.u, prog, strategy, attemptOpts)
		if err != nil {
			return nil, CommitInfo{}, err
		}
		// Evaluate outside the lock: base.db is immutable, the engine
		// never mutates its input, and the universe interns safely
		// under concurrency.
		res, err := eng.Run(ctx, base.db, updates)
		if err != nil {
			return nil, CommitInfo{}, err
		}

		lockStart := time.Now()
		s.mu.Lock()
		s.met.observeLockWait(time.Since(lockStart))
		if s.closed {
			s.mu.Unlock()
			return nil, CommitInfo{}, ErrClosed
		}
		if cur := s.current(); cur.version != base.version {
			// A concurrent commit changed the base state under us:
			// the evaluation may be stale, so redo it on the new state.
			s.mu.Unlock()
			s.met.incRetry()
			continue
		}
		if len(res.Inserted)+len(res.Deleted) == 0 {
			// Nothing changed; no WAL traffic, no history entry, no
			// version bump needed (installing the same facts).
			s.mu.Unlock()
			return res, CommitInfo{}, nil
		}
		txn, lsn, err := s.installLocked(base, res, traceID)
		s.mu.Unlock()
		if err != nil {
			s.enterDegraded("wal append", err)
			return nil, CommitInfo{}, fmt.Errorf("persist: wal append: %w; %w", err, ErrDegraded)
		}
		s.recordTrace(rec, prog, txn, res)
		// The state is installed (later transactions already build on
		// it); acknowledge the caller only once the batch is durable.
		if err := s.waitDurable(lsn); err != nil {
			return nil, CommitInfo{}, fmt.Errorf("persist: wal sync: %w", err)
		}
		return res, CommitInfo{Seq: txn.Seq, Epoch: txn.Epoch}, nil
	}
}

// recordTrace publishes the attempt's flight trace (if recording was
// on), folds the run's per-rule counters into the rolling rule
// profile, and emits the structured commit record. It runs after the
// install, outside every store lock: name resolution, the ring insert
// and the profile fold are off the commit-ordering critical path.
func (s *Store) recordTrace(rec *flight.Recorder, prog *core.Program, txn TxnRecord, res *core.Result) {
	wall := res.RunStats.Wall
	if rec != nil && s.flight != nil {
		s.flight.Insert(rec.Finish(txn.Seq, txn.TraceID, wall.Seconds()))
	}
	s.profile.record(prog, res.RunStats.Rules)
	s.cfg.slogger.Debug("txn committed",
		"seq", txn.Seq,
		"traceId", txn.TraceID,
		"wallMs", float64(wall.Microseconds())/1000,
		"added", len(txn.Added),
		"removed", len(txn.Removed),
		"phases", res.RunStats.Restarts+1,
	)
}

// installLocked appends the run's delta (res.Inserted, res.Deleted)
// and a commit marker to the WAL, records the transaction in history,
// and installs res.Output as the new state. Callers hold s.mu. The
// returned LSN is the logical position the caller must wait on for
// durability.
func (s *Store) installLocked(base *dbState, res *core.Result, traceID string) (TxnRecord, int64, error) {
	txn := TxnRecord{Seq: s.seq + 1, Epoch: s.epoch, TraceID: traceID}
	for _, id := range res.Inserted {
		text := s.u.AtomString(id)
		txn.Added = append(txn.Added, text)
		if err := s.appendRecord('+', text); err != nil {
			return txn, 0, err
		}
	}
	for _, id := range res.Deleted {
		text := s.u.AtomString(id)
		txn.Removed = append(txn.Removed, text)
		if err := s.appendRecord('-', text); err != nil {
			return txn, 0, err
		}
	}
	if err := s.appendCommitMarker(txn.Seq, txn.Epoch); err != nil {
		return txn, 0, err
	}
	s.seq = txn.Seq
	s.seqMirror.Store(int64(txn.Seq))
	s.history = append(s.history, txn)
	s.state.Store(&dbState{db: res.Output.Clone(), version: base.version + 1})
	// Notify here (in commit order) rather than after the fsync:
	// concurrent committers complete their durability waits out of
	// order, and subscribers rely on seeing monotonic sequences.
	s.notify(txn)

	s.syncMu.Lock()
	s.appendedLSN++
	s.pendingTxns++
	lsn := s.appendedLSN
	s.syncMu.Unlock()
	return txn, lsn, nil
}

// waitDurable blocks until an fsync (or checkpoint) covers the given
// logical LSN. The first waiter becomes the group-commit leader: it
// captures the current batch and syncs once for all of it; followers
// wait on the condition variable. A failed fsync is sticky — the WAL
// can no longer promise durability — so it degrades the store to
// read-only and every commit waiting on it fails with ErrDegraded;
// the background probe repairs the store and clears the error.
//
// The leader syncs whatever handle s.wal holds at sync time. The
// degraded-mode repair can rotate that handle concurrently (it
// snapshots the state and swaps in a fresh WAL), so on failure the
// leader re-checks the handle: an error from the pre-rotation file is
// stale — the repair's snapshot already covers every appended
// transaction — and must not poison the repaired store.
func (s *Store) waitDurable(lsn int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for {
		if s.syncedLSN >= lsn {
			return nil
		}
		if s.syncErr != nil {
			return s.syncErr
		}
		if !s.syncing {
			s.syncing = true
			target := s.appendedLSN
			batch := s.pendingTxns
			s.pendingTxns = 0
			s.syncMu.Unlock()

			s.mu.Lock()
			w := s.wal
			s.mu.Unlock()
			err := w.Sync()
			stale := false
			if err != nil {
				s.mu.Lock()
				stale = s.wal != w
				s.mu.Unlock()
			}

			s.syncMu.Lock()
			s.syncing = false
			s.met.observeBatch(batch)
			if err != nil && !stale {
				s.syncErr = fmt.Errorf("%w; %w", err, ErrDegraded)
			} else if target > s.syncedLSN {
				s.syncedLSN = target
			}
			s.syncCond.Broadcast()
			if err != nil && !stale {
				s.enterDegraded("wal sync", err)
			}
			continue
		}
		s.syncCond.Wait()
	}
}

// applySerialized is the legacy commit path (WithSerializedCommits):
// one lock held across evaluation, append and a per-transaction
// fsync. Kept for benchmarking the pipeline against it.
func (s *Store) applySerialized(ctx context.Context, prog *core.Program, updates []core.Update, strategy core.Strategy, opts core.Options) (*core.Result, CommitInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, CommitInfo{}, ErrClosed
	}
	base := s.current()
	var rec *flight.Recorder
	if s.flight != nil && opts.Tracer == nil {
		rec = flight.NewRecorder(s.u)
		opts.Tracer = rec
	}
	eng, err := core.NewEngine(s.u, prog, strategy, opts)
	if err != nil {
		return nil, CommitInfo{}, err
	}
	res, err := eng.Run(ctx, base.db, updates)
	if err != nil {
		return nil, CommitInfo{}, err
	}
	if len(res.Inserted)+len(res.Deleted) == 0 {
		return res, CommitInfo{}, nil
	}
	txn, _, err := s.installLocked(base, res, flight.TraceID(ctx))
	if err != nil {
		s.enterDegraded("wal append", err)
		return nil, CommitInfo{}, fmt.Errorf("persist: wal append: %w; %w", err, ErrDegraded)
	}
	s.recordTrace(rec, prog, txn, res)
	if err := s.wal.Sync(); err != nil {
		s.syncMu.Lock()
		s.syncErr = fmt.Errorf("%w; %w", err, ErrDegraded)
		s.syncMu.Unlock()
		s.enterDegraded("wal sync", err)
		return nil, CommitInfo{}, fmt.Errorf("persist: wal sync: %w; %w", err, ErrDegraded)
	}
	s.syncMu.Lock()
	if s.appendedLSN > s.syncedLSN {
		s.syncedLSN = s.appendedLSN
	}
	s.met.observeBatch(s.pendingTxns)
	s.pendingTxns = 0
	s.syncMu.Unlock()
	return res, CommitInfo{Seq: txn.Seq, Epoch: txn.Epoch}, nil
}

// acquireSlot admits one transaction into the bounded commit
// pipeline, waiting (context-aware) when the queue is full.
func (s *Store) acquireSlot(ctx context.Context) error {
	select {
	case s.queue <- struct{}{}:
		return nil
	default:
	}
	start := time.Now()
	select {
	case s.queue <- struct{}{}:
		s.met.observeQueueWait(time.Since(start))
		return nil
	case <-ctx.Done():
		s.met.observeQueueWait(time.Since(start))
		return ctx.Err()
	}
}

func (s *Store) releaseSlot() { <-s.queue }
