package persist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestConcurrentApply drives many committers and readers at once
// (run under -race in CI): every transaction must land exactly once,
// sequences must be dense and monotonic, and the state must survive
// a reopen. This exercises the whole pipeline — out-of-lock
// evaluation, optimistic retry, group commit — plus the lock-free
// read path.
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
				if err := s.ApplyUpdates(ctx, ups); err != nil {
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

// TestConcurrentApplySerialized runs the same workload through the
// legacy serialized path (the B12 baseline) to keep it correct.
func TestConcurrentApplySerialized(t *testing.T) {
	s, err := Open(t.TempDir(), WithSerializedCommits())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				ups := mustUpdates(t, u, fmt.Sprintf("+c(w%d, i%d).", w, i))
				if err := s.ApplyUpdates(ctx, ups); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != 12 {
		t.Fatalf("final state has %d facts, want 12", got)
	}
}

// TestApplyContextCanceledInQueue verifies backpressure honors the
// caller's context: with a full commit queue, admission fails with
// the context error instead of blocking forever.
func TestApplyContextCanceledInQueue(t *testing.T) {
	s, err := Open(t.TempDir(), WithCommitQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Occupy the only slot.
	s.queue <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.ApplyUpdates(ctx, mustUpdates(t, s.Universe(), `+p.`))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	<-s.queue
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

// TestEvaluationRunsOutsideCommitLock pins the tentpole property: a
// long-running evaluation must not block readers. We can't easily
// hold the engine mid-run, so instead assert structurally that a
// reader completes while a writer holds the commit queue and lock
// ordering allows snapshot access with s.mu held by someone else.
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
