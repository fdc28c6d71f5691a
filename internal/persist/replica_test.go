package persist

import (
	"context"
	"testing"

	"repro/internal/core"
)

// applyN commits n single-fact transactions fact0..fact{n-1}.
func applyN(t *testing.T, s *Store, n int) {
	t.Helper()
	u := s.Universe()
	for i := 0; i < n; i++ {
		ups := mustUpdates(t, u, "+fact"+string(rune('a'+i))+"(x).")
		if _, err := s.Apply(context.Background(), &core.Program{}, ups, nil, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestApplyReplicatedSequencing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 1, Added: []string{"p(a)"}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 2, Added: []string{"q(b)"}, Removed: []string{"p(a)"}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := renderDB(s.Universe(), s.Snapshot()); got != "q(b)" {
		t.Fatalf("db = %q, want q(b)", got)
	}
	if s.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", s.Seq())
	}
	// Replays of already-applied sequences are idempotent no-ops.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 1, Added: []string{"stale(x)"}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := renderDB(s.Universe(), s.Snapshot()); got != "q(b)" {
		t.Fatalf("db after replay = %q, want q(b)", got)
	}
	// A sequence gap is an error, not a silent skip.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 4, Added: []string{"r(c)"}}, 0); err == nil {
		t.Fatal("gap (2 -> 4) accepted")
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyReplicatedDurable pins that replicated transactions go
// through the WAL: after SyncWAL and a reopen, the state and sequence
// survive.
func TestApplyReplicatedDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []string{"p(a)", "q(b)", "r(c)"} {
		if err := s.ApplyReplicatedFrom(TxnRecord{Seq: i + 1, Added: []string{f}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 3 {
		t.Fatalf("seq after reopen = %d, want 3", s2.Seq())
	}
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "p(a), q(b), r(c)" {
		t.Fatalf("db after reopen = %q", got)
	}
}

func TestResetToSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	applyN(t, s, 3)
	// A reset discards local state entirely and adopts the leader's
	// snapshot and sequence.
	if err := s.ResetToSnapshot(42, 0, []string{"lead(a)", "lead(b)"}, 0); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != 42 {
		t.Fatalf("seq = %d, want 42", s.Seq())
	}
	if got := renderDB(s.Universe(), s.Snapshot()); got != "lead(a), lead(b)" {
		t.Fatalf("db = %q", got)
	}
	if len(mustHistory(t, s)) != 0 {
		t.Fatalf("history not cleared: %v", mustHistory(t, s))
	}
	// Replication continues from the adopted sequence...
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 43, Added: []string{"lead(c)"}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	// ...and everything survives a restart.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 43 {
		t.Fatalf("seq after reopen = %d, want 43", s2.Seq())
	}
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "lead(a), lead(b), lead(c)" {
		t.Fatalf("db after reopen = %q", got)
	}
}

// TestReplicaCutTiles pins the consistency contract of ReplicaCut:
// history and the live event channel tile the sequence with no gap
// and no overlap, even with commits racing the cut.
func TestReplicaCutTiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applyN(t, s, 3)

	cut, err := s.ReplicaCut(0, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Cancel()
	if cut.BaseSeq != 0 || cut.Seq != 3 {
		t.Fatalf("cut = [%d, %d], want [0, 3]", cut.BaseSeq, cut.Seq)
	}
	if cut.Snapshot == nil {
		t.Fatal("cut has no snapshot despite withSnapshot=true")
	}
	if len(cut.History) != 3 {
		t.Fatalf("history len = %d, want 3", len(cut.History))
	}
	// Commits after the cut arrive only on the channel, starting at
	// exactly Seq+1.
	applyN(t, s, 5)
	want := cut.Seq + 1
	for i := 0; i < 2; i++ {
		txn := <-cut.Events
		if txn.Seq != want {
			t.Fatalf("event seq = %d, want %d", txn.Seq, want)
		}
		want++
	}
}
