package persist

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/parser"
)

// This file is the store-side substrate for streaming replication
// (internal/repl). A leader serves a follower the pair
// (snapshot-at-checkpoint, transaction tail); the follower installs
// leader-committed transactions through ApplyReplicatedFrom, which
// preserves every invariant of the local commit path — in particular
// the global sequence stays dense and monotone, so a replica's state
// at sequence N is exactly the leader's state at sequence N.

// ReplicaCut is a consistent view of the store for starting a
// replication stream: the checkpoint state, the committed transactions
// since it from the stream's resume point on, the current sequence,
// and a subscription registered atomically with the copy — a
// transaction committed after the cut is delivered on Events, a
// transaction committed before it is in History (or older than the
// resume point), and no transaction is in neither.
type ReplicaCut struct {
	// BaseSeq is the global sequence of the last checkpoint; Snapshot
	// (when requested) is the state at exactly that sequence.
	BaseSeq int
	// Seq is the newest committed sequence at cut time.
	Seq int
	// BaseEpoch is the leadership epoch of the state at BaseSeq;
	// Epoch is the store's epoch at cut time. History carries each
	// transaction's own epoch, so the leader can check that a resuming
	// follower's timeline agrees with its own (see internal/repl).
	BaseEpoch int64
	Epoch     int64
	// Snapshot is the checkpoint state (immutable — do not mutate);
	// nil unless the cut was taken with withSnapshot.
	Snapshot *core.Database
	// History holds the committed deltas in (BaseSeq, Seq] whose
	// sequence is at least the cut's from, oldest first.
	History []TxnRecord
	// Events delivers transactions committed after the cut, in commit
	// order. The subscription drops when the consumer falls behind
	// (see Subscribe); a consumer that observes a sequence gap must
	// restart from a fresh cut.
	Events <-chan TxnRecord
	// Cancel releases the subscription. Always call it.
	Cancel func()
}

// ReplicaCut captures a consistent replication cut whose History
// starts at sequence from (0 for the whole window). The subscription
// is registered under the commit lock, so the History copy and the
// Events stream tile the transaction sequence exactly. History older
// than the in-memory tail is decoded from the WAL after the lock is
// released; a failed read fails the cut. withSnapshot additionally
// exposes the checkpoint state (needed when the consumer resumes from
// before BaseSeq, or not at all); buffer sizes the subscription
// channel.
func (s *Store) ReplicaCut(from int, withSnapshot bool, buffer int) (*ReplicaCut, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	cut := &ReplicaCut{BaseSeq: s.baseSeq, Seq: s.seq, BaseEpoch: s.baseEpoch, Epoch: s.epoch}
	if withSnapshot {
		// snapDB is replaced, never mutated, so handing out the
		// pointer is safe; the caller renders it outside the lock.
		cut.Snapshot = s.snapDB
	}
	hc := s.cutHistoryLocked(from)
	// Lock order mu -> subsMu matches the notify path, so registering
	// while holding mu cannot race a commit's fan-out.
	cut.Events, cut.Cancel = s.Subscribe(buffer)
	s.mu.Unlock()
	hist, err := s.readCut(hc)
	if err != nil {
		cut.Cancel()
		return nil, err
	}
	cut.History = hist
	return cut, nil
}

// ApplyReplicatedFrom installs one leader-committed transaction delta
// at exactly txn.Seq, bypassing rule evaluation: replication ships
// results, not programs, because PARK(P, D, U) is a pure function the
// leader already computed. The transaction must be the next in
// sequence (txn.Seq == Seq()+1); a transaction at or below the current
// sequence is skipped idempotently (stream resume overlap), and a gap
// is an error — the follower must re-resume from its actual sequence.
//
// It holds the commit slot like a local commit, so it waits while a
// local transaction evaluates and lands after it.
//
// The delta is WAL-logged with the leader's sequence in the commit
// marker, but not fsynced: a replica batches durability through
// SyncWAL, because a crash that loses the un-synced tail merely makes
// it re-request those transactions from the leader.
//
// Fencing: the frame is judged by the AUTHORITY it arrives under, not
// by the epoch stamped inside it. leaderEpoch is the serving leader's
// CURRENT epoch, learned from its stream heartbeats (callers with no
// stream pass txn.Epoch). The distinction matters after a failover —
// the new leader's stream legitimately relays frames that committed
// under older epochs (the shared prefix), and those must apply even on
// a store whose fencing floor already names the new epoch (it voted,
// or it is mid-bootstrap); conversely a deposed leader's live tail
// carries its own stale epoch as authority and is rejected however its
// frames are stamped. An authority below the store's fencing floor
// (FenceEpoch: the highest epoch it has committed under, voted in, or
// bootstrapped from) is rejected with an error matching ErrFenced,
// whatever its sequence — it comes from a deposed leader and must not
// be applied, skipped, or used to advance the stream. A transaction
// from a newer epoch advances the store's epoch (durably, via its
// commit marker).
func (s *Store) ApplyReplicatedFrom(txn TxnRecord, leaderEpoch int64) error {
	if err := s.degradedErr(); err != nil {
		return err
	}
	auth := leaderEpoch
	if txn.Epoch > auth {
		// A relay may ship frames newer than its last heartbeat; the
		// frame's own epoch is then the better claim.
		auth = txn.Epoch
	}
	s.slot <- struct{}{}
	defer s.releaseSlot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if auth < s.fence {
		s.met.incFenced()
		return &FencedError{Seq: txn.Seq, TxnEpoch: auth, StoreEpoch: s.fence}
	}
	if txn.Seq <= s.seq {
		return nil
	}
	if txn.Seq != s.seq+1 {
		return fmt.Errorf("persist: replication gap: store at seq %d, got txn %d", s.seq, txn.Seq)
	}
	// Intern (and thereby validate) every atom before touching the
	// WAL, so a malformed frame cannot leave a partial transaction.
	addIDs, err := s.internAtoms(txn.Added)
	if err != nil {
		return fmt.Errorf("persist: replicated txn %d: %w", txn.Seq, err)
	}
	remIDs, err := s.internAtoms(txn.Removed)
	if err != nil {
		return fmt.Errorf("persist: replicated txn %d: %w", txn.Seq, err)
	}
	if auth > s.fence {
		// This stream's authority names a newer epoch than any we have
		// acknowledged; raise the fencing floor ahead of the delta.
		// When the frame's own commit marker will carry auth, that
		// marker restores the floor on replay by itself; otherwise
		// (heartbeat ahead of the relayed frames) write it explicitly
		// — fence records stand alone between transactions.
		if auth > txn.Epoch {
			if err := s.appendFenceRecord(auth); err != nil {
				s.enterDegraded("wal append", err)
				return fmt.Errorf("persist: wal append: %w; %w", err, ErrDegraded)
			}
		}
		s.fence = auth
		s.ev.Emit(events.Event{
			Type:     events.FenceRaised,
			Epoch:    auth,
			StoreSeq: s.seq,
			TraceID:  txn.TraceID,
			Detail:   "replication stream authority",
		})
	}
	for _, text := range txn.Added {
		if err := s.appendRecord('+', text); err != nil {
			s.enterDegraded("wal append", err)
			return fmt.Errorf("persist: wal append: %w; %w", err, ErrDegraded)
		}
	}
	for _, text := range txn.Removed {
		if err := s.appendRecord('-', text); err != nil {
			s.enterDegraded("wal append", err)
			return fmt.Errorf("persist: wal append: %w; %w", err, ErrDegraded)
		}
	}
	if err := s.appendCommitMarker(txn.Seq, txn.Epoch); err != nil {
		s.enterDegraded("wal append", err)
		return fmt.Errorf("persist: wal append: %w; %w", err, ErrDegraded)
	}
	db := s.current().Clone()
	for _, id := range addIDs {
		db.Add(id)
	}
	for _, id := range remIDs {
		db.Remove(id)
	}
	rec := TxnRecord{Seq: txn.Seq, Epoch: txn.Epoch, TraceID: txn.TraceID}
	rec.Added = append(rec.Added, txn.Added...)
	rec.Removed = append(rec.Removed, txn.Removed...)
	s.seq = txn.Seq
	s.seqMirror.Store(int64(txn.Seq))
	if txn.Epoch > s.epoch {
		s.epoch = txn.Epoch
		s.epochMirror.Store(txn.Epoch)
		s.met.setEpoch(txn.Epoch)
	}
	s.pushHistoryLocked(rec)
	s.state.Store(db)
	s.notify(rec)
	s.syncMu.Lock()
	s.appendedLSN++
	s.pendingTxns++
	s.syncMu.Unlock()
	// The trace ID is the leader's: one identifier follows the
	// transaction from the originating request to every replica's log.
	s.cfg.slogger.Debug("replicated txn applied",
		"seq", rec.Seq,
		"traceId", rec.TraceID,
		"added", len(rec.Added),
		"removed", len(rec.Removed),
	)
	return nil
}

// SyncWAL makes every transaction appended so far durable, through the
// same group-commit machinery as Apply (a no-op when nothing is
// pending). Replicas call it at batch boundaries instead of per
// transaction.
func (s *Store) SyncWAL() error {
	s.syncMu.Lock()
	lsn := s.appendedLSN
	s.syncMu.Unlock()
	if lsn == 0 {
		return nil
	}
	return s.waitDurable(lsn)
}

// ResetToSnapshot replaces the entire store state with a leader
// snapshot taken at the given global sequence and epoch: the facts
// become the new checkpoint (written durably, atomic rename), the WAL
// restarts empty, and the sequence jumps to seq. This is the replica
// bootstrap path — used when the store has no state, or when its
// sequence falls outside the leader's retained window (including the
// divergence case where the replica is ahead of a deposed or restored
// leader: the current leader wins and the divergent tail is
// discarded).
//
// leaderEpoch is the serving leader's CURRENT epoch (from the stream's
// heartbeat), and it is the authorization for the reset: a bootstrap
// from a leader whose epoch is behind the store's fencing floor comes
// from a deposed leader and is rejected with an error matching
// ErrFenced. An authorized bootstrap adopts the snapshot's epoch even
// when it is LOWER than the store's — the snapshot may predate the
// promotion that raised the leader's epoch, and the replayed history
// re-advances the epoch through its own commit markers — but the
// FENCING FLOOR never regresses: it is raised to leaderEpoch and kept
// (durably, via a fence record in the fresh WAL), so if the stream
// breaks mid-catch-up the store still refuses the deposed leader's
// frames and snapshots, and the node's discovery still excludes it.
// The catch-up replay itself is not wedged by the kept floor because
// the new leader's stream applies through ApplyReplicatedFrom under
// leaderEpoch's authority.
func (s *Store) ResetToSnapshot(seq int, epoch int64, facts []string, leaderEpoch int64) error {
	if seq < 0 {
		return fmt.Errorf("persist: negative snapshot sequence %d", seq)
	}
	if epoch < 0 {
		return fmt.Errorf("persist: negative snapshot epoch %d", epoch)
	}
	if err := s.degradedErr(); err != nil {
		return err
	}
	var sb strings.Builder
	for _, f := range facts {
		sb.WriteString(f)
		sb.WriteString(".\n")
	}
	db, err := parser.ParseDatabase(s.u, "replica-snapshot", sb.String())
	if err != nil {
		return fmt.Errorf("persist: replica snapshot: %w", err)
	}
	s.slot <- struct{}{}
	defer s.releaseSlot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if leaderEpoch < s.fence {
		s.met.incFenced()
		return &SnapshotFencedError{Seq: seq, LeaderEpoch: leaderEpoch, StoreEpoch: s.fence}
	}
	if err := s.writeSnapshotLocked(db, seq, epoch); err != nil {
		return err
	}
	if err := s.truncateWALLocked(); err != nil {
		return err
	}
	// The WAL is empty and at a clean boundary again; a previous
	// append failure no longer poisons durability.
	s.walErr = nil
	s.snapDB = db // installed below; installed states are immutable
	s.resetHistoryLocked()
	s.seq = seq
	s.seqMirror.Store(int64(seq))
	s.baseSeq = seq
	s.epoch = epoch
	s.epochMirror.Store(epoch)
	s.baseEpoch = epoch
	if leaderEpoch > s.fence {
		s.fence = leaderEpoch
	}
	// Truncating the WAL dropped the durable vote and fence records;
	// re-append (and fsync) them so the single-vote-per-epoch rule and
	// the fencing floor still hold across a restart — the floor in
	// particular must not regress to the snapshot's (possibly
	// pre-promotion) epoch while the catch-up is in flight.
	if err := s.reseedElectionRecords(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	s.met.setEpoch(epoch)
	s.state.Store(db)
	s.cfg.slogger.Info("bootstrapped from leader snapshot",
		"seq", seq, "epoch", epoch, "leaderEpoch", leaderEpoch, "facts", len(facts))
	s.ev.Emit(events.Event{
		Type:     events.SnapshotBootstrap,
		Epoch:    epoch,
		StoreSeq: seq,
		Detail:   fmt.Sprintf("adopted leader snapshot (%d facts, authority epoch %d)", len(facts), leaderEpoch),
	})
	// Anything previously appended is superseded by the durable
	// snapshot; release group-commit waiters.
	s.syncMu.Lock()
	if s.appendedLSN > s.syncedLSN {
		s.syncedLSN = s.appendedLSN
	}
	s.pendingTxns = 0
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
	return nil
}
