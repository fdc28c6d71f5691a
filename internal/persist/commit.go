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
// probe repairs it (see degrade.go). It returns the engine result,
// whose Output is the installed state: it must not be mutated.
//
// Apply is safe to call from many goroutines. Transactions evaluate
// one at a time, in commit order, each on the state its predecessor
// installed, so no evaluation is ever stale. Durability is
// acknowledged through group commit: one fsync covers every
// transaction installed since the previous fsync, and it runs while
// the next transaction evaluates.
func (s *Store) Apply(ctx context.Context, prog *core.Program, updates []core.Update, strategy core.Strategy, opts core.Options) (*core.Result, error) {
	res, _, err := s.ApplyTxn(ctx, prog, updates, strategy, opts)
	return res, err
}

// ApplyTxn is Apply plus the committed transaction: its sequence, its
// epoch and its delta, rendered once for the WAL. A transaction that
// changed nothing is the zero TxnRecord — it was never assigned a
// sequence. The record's slices are shared with the store's history
// and must not be mutated, nor must the Result's Output, which is the
// installed state. The server layer answers with the delta and uses
// the sequence to wait for replication acknowledgement before
// answering a cluster write.
func (s *Store) ApplyTxn(ctx context.Context, prog *core.Program, updates []core.Update, strategy core.Strategy, opts core.Options) (*core.Result, TxnRecord, error) {
	if err := s.degradedErr(); err != nil {
		return nil, TxnRecord{}, err
	}
	// A caller-supplied tracer wins over the flight recorder: the
	// engine takes one tracer, and explicit tracing is rarer and more
	// deliberate.
	var rec *flight.Recorder
	if s.flight != nil && opts.Tracer == nil {
		rec = flight.NewRecorder(s.u)
		opts.Tracer = rec
	}
	eng, err := core.NewEngine(s.u, prog, strategy, opts)
	if err != nil {
		return nil, TxnRecord{}, err
	}
	res, txn, lsn, err := s.commit(ctx, eng, updates)
	if err != nil || txn.Seq == 0 {
		return res, TxnRecord{}, err
	}
	s.recordTrace(rec, prog, txn, res)
	// The state is installed and the slot released, so the next
	// transaction evaluates while this fsync runs; acknowledge the
	// caller only once the batch is durable.
	if err := s.waitDurable(lsn); err != nil {
		return nil, TxnRecord{}, fmt.Errorf("persist: wal sync: %w", err)
	}
	return res, txn, nil
}

// commit evaluates the transaction on the current state and installs
// the result, holding the commit slot throughout: no other install can
// move the base under the evaluation. A transaction that changed
// nothing returns the zero TxnRecord. The returned LSN is the logical
// WAL position the caller must wait on for durability.
func (s *Store) commit(ctx context.Context, eng *core.Engine, updates []core.Update) (*core.Result, TxnRecord, int64, error) {
	if err := s.acquireSlot(ctx); err != nil {
		return nil, TxnRecord{}, 0, err
	}
	defer s.releaseSlot()
	// The engine never mutates its input, and the universe interns
	// safely under concurrency, so evaluation needs no lock: readers
	// and checkpoints proceed meanwhile.
	res, err := eng.Run(ctx, s.current(), updates)
	if err != nil {
		return nil, TxnRecord{}, 0, err
	}
	lockStart := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.observeLockWait(time.Since(lockStart))
	if s.closed {
		return nil, TxnRecord{}, 0, ErrClosed
	}
	if len(res.Inserted)+len(res.Deleted) == 0 {
		// Nothing changed: no WAL traffic, no history entry.
		return res, TxnRecord{}, 0, nil
	}
	txn, lsn, err := s.installLocked(res, flight.TraceID(ctx))
	if err != nil {
		s.enterDegraded("wal append", err)
		return nil, TxnRecord{}, 0, fmt.Errorf("persist: wal append: %w; %w", err, ErrDegraded)
	}
	return res, txn, lsn, nil
}

// recordTrace publishes the transaction's flight trace (if recording
// was on), folds the run's per-rule counters into the rolling rule
// profile, and emits the structured commit record. It runs after the
// install, outside the commit slot and every store lock: name
// resolution, the ring insert and the profile fold are off the
// commit-ordering critical path.
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
// and installs res.Output as the new state — not a copy: Incorp built
// it fresh, and nobody mutates it after. Callers hold the commit slot
// and s.mu. The returned LSN is the logical position the caller must
// wait on for durability.
func (s *Store) installLocked(res *core.Result, traceID string) (TxnRecord, int64, error) {
	txn := TxnRecord{Seq: s.seq + 1, Epoch: s.epoch, TraceID: traceID,
		Added: make([]string, 0, len(res.Inserted)), Removed: make([]string, 0, len(res.Deleted))}
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
	s.pushHistoryLocked(txn)
	s.state.Store(res.Output)
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

// acquireSlot takes the commit slot, waiting (context-aware) while
// another transaction evaluates or installs. Every install of a new
// state — ApplyTxn, ApplyReplicatedFrom, ResetToSnapshot — holds the
// slot, and takes it before s.mu.
func (s *Store) acquireSlot(ctx context.Context) error {
	select {
	case s.slot <- struct{}{}:
		return nil
	default:
	}
	start := time.Now()
	select {
	case s.slot <- struct{}{}:
		s.met.observeQueueWait(time.Since(start))
		return nil
	case <-ctx.Done():
		s.met.observeQueueWait(time.Since(start))
		return ctx.Err()
	}
}

func (s *Store) releaseSlot() { <-s.slot }
