package persist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parser"
)

// conflictProgram gives every insertion of c(W, I) exactly one
// conflict, on x(W, I), so a transaction's evaluation calls Select
// exactly once.
const conflictProgram = `+c(W, I) -> +x(W, I).
+c(W, I) -> -x(W, I).`

// TestConcurrentApply drives many committers and readers at once
// (run under -race in CI): every transaction must land exactly once,
// be evaluated exactly once, sequences must be dense and monotonic,
// and the state must survive a reopen. This exercises the whole
// pipeline — commit slot, group commit — plus the lock-free read
// path.
func TestConcurrentApply(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	u := s.Universe()
	ctx := context.Background()
	prog := mustProgram(t, u, conflictProgram)
	var selects atomic.Int64
	counting := core.StrategyFunc{StrategyName: "counting", Fn: func(*core.SelectInput) (core.Decision, error) {
		selects.Add(1)
		return core.DecideDelete, nil
	}}

	const writers = 8
	const txnsPerWriter = 5
	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPerWriter; i++ {
				ups := mustUpdates(t, u, fmt.Sprintf("+c(w%d, i%d).", w, i))
				if _, err := s.Apply(ctx, prog, ups, counting, core.Options{}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Concurrent readers on the copy-on-write path.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				db := s.Snapshot()
				if db.Len() > writers*txnsPerWriter {
					errs <- fmt.Errorf("snapshot has %d facts, max %d", db.Len(), writers*txnsPerWriter)
					return
				}
				_ = s.Len()
				if _, err := s.History(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.Len(); got != writers*txnsPerWriter {
		t.Fatalf("final state has %d facts, want %d", got, writers*txnsPerWriter)
	}
	hist := mustHistory(t, s)
	if len(hist) != writers*txnsPerWriter {
		t.Fatalf("history has %d entries, want %d", len(hist), writers*txnsPerWriter)
	}
	for i, txn := range hist {
		if txn.Seq != i+1 {
			t.Fatalf("history[%d].Seq = %d, want dense monotonic sequences", i, txn.Seq)
		}
	}
	// Each transaction has one conflict, so one Select per evaluation:
	// a transaction evaluated twice would show here.
	if got := selects.Load(); got != writers*txnsPerWriter {
		t.Fatalf("strategy called %d times for %d committed transactions, want one evaluation each", got, writers*txnsPerWriter)
	}

	// Durability: a reopen recovers the identical state.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != writers*txnsPerWriter {
		t.Fatalf("reopened state has %d facts, want %d", got, writers*txnsPerWriter)
	}
	if got := s2.Seq(); got != writers*txnsPerWriter {
		t.Fatalf("reopened seq = %d, want %d", got, writers*txnsPerWriter)
	}

	// The commit pipeline metrics must have recorded the traffic: every
	// durable acknowledgment is covered by some fsync.
	snap := reg.Snapshot()
	var fsyncs int64
	var batched uint64
	for _, c := range snap.Counters {
		if c.Name == "park_store_fsyncs_total" {
			fsyncs = c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "park_store_commit_batch_size" {
			batched = h.Count
		}
	}
	if fsyncs == 0 || batched == 0 {
		t.Fatalf("fsyncs = %d, batch observations = %d; want both > 0", fsyncs, batched)
	}
}

// blockedCommit starts an ApplyTxn of +p under a one-conflict program
// whose strategy blocks inside Select until release is called, so the
// evaluation holds the commit slot meanwhile. It returns once Select
// has been entered; done delivers the ApplyTxn's result.
func blockedCommit(t *testing.T, s *Store) (release func(), done <-chan error) {
	t.Helper()
	prog := mustProgram(t, s.Universe(), "p -> +a.\np -> -a.")
	entered, unblock := make(chan struct{}), make(chan struct{})
	blocking := core.StrategyFunc{StrategyName: "blocking", Fn: func(*core.SelectInput) (core.Decision, error) {
		close(entered)
		<-unblock
		return core.DecideDelete, nil
	}}
	res := make(chan error, 1)
	ups := mustUpdates(t, s.Universe(), `+p.`)
	go func() {
		_, _, err := s.ApplyTxn(context.Background(), prog, ups, blocking, core.Options{})
		res <- err
	}()
	<-entered
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(release)
	return release, res
}

// TestApplyContextCanceledInQueue verifies admission honors the
// caller's context: while another evaluation holds the commit slot, a
// cancelled transaction fails with the context error instead of
// blocking.
func TestApplyContextCanceledInQueue(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, done := blockedCommit(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.ApplyUpdates(ctx, mustUpdates(t, s.Universe(), `+q.`))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCommitSlot pins what the commit slot orders and what it leaves
// alone. While an evaluation holds the slot, reads and checkpoints
// complete, a cancelled transaction gives up with its context error,
// and a replicated install waits for the evaluation to land, then
// lands after it with dense sequences.
func TestCommitSlot(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+r(a).`)); err != nil {
		t.Fatal(err)
	}
	release, done := blockedCommit(t, s)

	q, err := parser.ParseQuery(u, "", `r(X)`)
	if err != nil {
		t.Fatal(err)
	}
	reads := make(chan error, 1)
	go func() {
		if n := s.Snapshot().Len(); n != 1 {
			reads <- fmt.Errorf("snapshot has %d facts, want 1", n)
			return
		}
		rows := 0
		if err := s.Query(q, func([]core.Sym) bool { rows++; return true }); err != nil {
			reads <- err
			return
		}
		if rows != 1 {
			reads <- fmt.Errorf("query r(X) = %d rows, want 1", rows)
			return
		}
		reads <- s.Checkpoint()
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Snapshot, Query or Checkpoint blocked behind an evaluation")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.ApplyTxn(ctx, &core.Program{}, mustUpdates(t, u, `+q.`), nil, core.Options{}); err != context.Canceled {
		t.Fatalf("cancelled ApplyTxn = %v, want context.Canceled", err)
	}

	// The blocked transaction will commit as seq 2; the replicated one
	// is seq 3, so it can land only after the evaluation installs.
	replicated := make(chan error, 1)
	go func() {
		replicated <- s.ApplyReplicatedFrom(TxnRecord{Seq: 3, Added: []string{"r(b)"}}, 0)
	}()
	select {
	case err := <-replicated:
		t.Fatalf("ApplyReplicatedFrom returned %v while an evaluation held the slot", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-replicated; err != nil {
		t.Fatal(err)
	}
	hist := mustHistory(t, s)
	if len(hist) != 2 || hist[0].Seq != 2 || hist[1].Seq != 3 {
		t.Fatalf("history after checkpoint at seq 1 = %+v, want seqs 2 and 3", hist)
	}
	if got, want := renderDB(u, s.Snapshot()), "p, r(a), r(b)"; got != want {
		t.Fatalf("state = %s, want %s", got, want)
	}
}

// TestApplyClosedStore verifies the ErrClosed sentinel survives to
// callers so the server can map shutdown to 503 rather than 422.
func TestApplyClosedStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	u := s.Universe()
	ups := mustUpdates(t, u, `+p.`)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	err = s.ApplyUpdates(context.Background(), ups)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply on closed store = %v, want ErrClosed", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint on closed store = %v, want ErrClosed", err)
	}
}

// TestEvaluationRunsOutsideCommitLock pins that readers never take the
// commit lock: a snapshot completes while a committer holds s.mu to
// install. TestCommitSlot covers a reader during an evaluation.
func TestEvaluationRunsOutsideCommitLock(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, s.Universe(), `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	// Hold the commit lock, as a committer does while installing.
	s.mu.Lock()
	done := make(chan int, 1)
	go func() { done <- s.Snapshot().Len() }()
	n := <-done
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("snapshot under held commit lock = %d facts, want 1", n)
	}
}
