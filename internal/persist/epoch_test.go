package persist

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestBeginEpochDurable proves a promotion survives a restart even
// when no transaction ever commits under the new epoch.
func TestBeginEpochDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", got)
	}
	if err := s.BeginEpoch(3); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if err := s.BeginEpoch(3); err != nil {
		t.Fatalf("re-begin of current epoch should be a no-op, got %v", err)
	}
	if err := s.BeginEpoch(2); err == nil {
		t.Fatal("BeginEpoch(2) after epoch 3 should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Epoch(); got != 3 {
		t.Fatalf("recovered epoch = %d, want 3", got)
	}
}

// TestEpochInCommitMarkers proves local commits stamp the current
// epoch and that the epoch rides the commit marker through recovery
// and checkpoints.
func TestEpochInCommitMarkers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, s.Universe(), `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	hist := mustHistory(t, s)
	if len(hist) != 1 || hist[0].Epoch != 5 {
		t.Fatalf("history = %+v, want one txn at epoch 5", hist)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Epoch(); got != 5 {
		t.Fatalf("recovered epoch = %d, want 5", got)
	}
	if hist := mustHistory(t, r); len(hist) != 1 || hist[0].Epoch != 5 {
		t.Fatalf("recovered history = %+v, want one txn at epoch 5", hist)
	}
	// Checkpoint folds the epoch into the snapshot header.
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	epoch, baseEpoch := c.Epochs()
	if epoch != 5 || baseEpoch != 5 {
		t.Fatalf("post-checkpoint epochs = (%d, %d), want (5, 5)", epoch, baseEpoch)
	}
}

// TestApplyReplicatedFencing proves the fencing rule: transactions
// from a deposed epoch are rejected with ErrFenced, newer epochs are
// adopted, and the idempotent-skip path never masks a fenced frame.
func TestApplyReplicatedFencing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 1, Epoch: 1, Added: []string{"p(a)"}}, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after epoch-1 txn = %d, want 1 (adopted)", got)
	}
	// A newer epoch deposes epoch 1...
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 2, Epoch: 4, Added: []string{"q(b)"}}, 4); err != nil {
		t.Fatal(err)
	}
	// ...after which epoch-1 frames are fenced, even stale ones that
	// the idempotent skip would otherwise swallow.
	err = s.ApplyReplicatedFrom(TxnRecord{Seq: 3, Epoch: 1, Added: []string{"stale(x)"}}, 1)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("next-seq deposed txn: got %v, want ErrFenced", err)
	}
	var fe *FencedError
	if !errors.As(err, &fe) || fe.TxnEpoch != 1 || fe.StoreEpoch != 4 {
		t.Fatalf("FencedError = %+v", err)
	}
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 1, Epoch: 1, Added: []string{"p(a)"}}, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-seq deposed txn: got %v, want ErrFenced", err)
	}
	// Same-epoch replay of an applied seq still skips idempotently.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 2, Epoch: 4, Added: []string{"q(b)"}}, 4); err != nil {
		t.Fatalf("idempotent same-epoch replay: %v", err)
	}
	// The fenced fact never became visible.
	for _, txt := range renderDBAtoms(s.Universe(), s.Snapshot()) {
		if strings.Contains(txt, "stale") {
			t.Fatalf("fenced fact visible in state: %s", renderDB(s.Universe(), s.Snapshot()))
		}
	}
}

// TestRecordVoteDurable proves the single-vote-per-epoch rule holds
// across a restart.
func TestRecordVoteDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, id := s.LastVote(); epoch != 0 || id != "" {
		t.Fatalf("fresh store vote = (%d, %q)", epoch, id)
	}
	if err := s.RecordVote(2, "node-b"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordVote(2, "node-c"); err == nil {
		t.Fatal("second vote in epoch 2 should fail")
	}
	if err := s.RecordVote(3, "node-c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if epoch, id := r.LastVote(); epoch != 3 || id != "node-c" {
		t.Fatalf("recovered vote = (%d, %q), want (3, %q)", epoch, id, "node-c")
	}
	if err := r.RecordVote(3, "node-b"); err == nil {
		t.Fatal("re-vote in epoch 3 after restart should fail")
	}
}

// TestResetToSnapshotEpochAuthorization proves the bootstrap fencing
// rule: a deposed leader (stream epoch behind the store's) cannot
// reset the store at all, while a current leader may — including onto
// a snapshot whose own epoch is LOWER than the store's, because the
// snapshot can predate the promotion and the replayed history
// re-advances the epoch (the regression test for the bootstrap
// livelock where a restarted follower fenced the new leader's own
// pre-promotion history).
func TestResetToSnapshotEpochAuthorization(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.BeginEpoch(7); err != nil {
		t.Fatal(err)
	}
	// Deposed leader (epoch 4 < 7): refused, state untouched.
	err = s.ResetToSnapshot(10, 4, []string{"p(a)"}, 4)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed-leader reset = %v, want ErrFenced", err)
	}
	if got := s.Epoch(); got != 7 {
		t.Fatalf("epoch after refused reset = %d, want 7", got)
	}
	// Current leader (epoch 8 >= 7) serving a pre-promotion snapshot
	// (epoch 4): authorized, and the store ADOPTS the older epoch so
	// the history replay that follows is not fenced.
	if err := s.ResetToSnapshot(10, 4, []string{"p(a)"}, 8); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 4 {
		t.Fatalf("epoch after authorized reset = %d, want 4 (adopted)", got)
	}
	// Replaying the leader's history advances the epoch back up
	// through the replayed commit markers.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 11, Epoch: 8, Added: []string{"p(b)"}}, 8); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 8 {
		t.Fatalf("epoch after replayed txn = %d, want 8", got)
	}
	// A newer-epoch snapshot adopts forward too.
	if err := s.ResetToSnapshot(12, 9, []string{"p(c)"}, 9); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 9 {
		t.Fatalf("epoch after newer-epoch reset = %d, want 9", got)
	}
}

// TestVoteRaisesFenceDurably proves a granted vote raises the fencing
// floor — so the deposed leader can no longer replicate here — and
// that the floor survives a restart even though no commit ever carried
// the voted epoch.
func TestVoteRaisesFenceDurably(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Old leader at epoch 1 replicates normally.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 1, Epoch: 1, Added: []string{"p(a)"}}, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.FenceEpoch(); got != 1 {
		t.Fatalf("fence after epoch-1 txn = %d, want 1", got)
	}
	// Vote for a candidate in epoch 2: the floor rises immediately,
	// while the applied-tip epoch stays at 1.
	if err := s.RecordVote(2, "node-b"); err != nil {
		t.Fatal(err)
	}
	if got := s.FenceEpoch(); got != 2 {
		t.Fatalf("fence after vote = %d, want 2", got)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after vote = %d, want 1 (votes do not move the tip)", got)
	}
	// The old epoch-1 leader keeps streaming: fenced, both as a frame
	// stamp and as a stream authority.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 2, Epoch: 1, Added: []string{"lost(x)"}}, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("old-leader frame after vote = %v, want ErrFenced", err)
	}
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 2, Epoch: 1, Added: []string{"lost(x)"}}, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("old-leader stream after vote = %v, want ErrFenced", err)
	}
	// The voted-for winner's stream (authority 2) may relay epoch-1
	// history it committed before promoting.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 2, Epoch: 1, Added: []string{"p(b)"}}, 2); err != nil {
		t.Fatalf("new-leader relay after vote: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.FenceEpoch(); got != 2 {
		t.Fatalf("recovered fence = %d, want 2", got)
	}
	if err := r.ApplyReplicatedFrom(TxnRecord{Seq: 3, Epoch: 1, Added: []string{"lost(y)"}}, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("old-leader frame after restart = %v, want ErrFenced", err)
	}
}

// TestRecordVoteIdempotentRegrant proves the exact re-vote (same
// epoch, same candidate) succeeds idempotently — a candidate whose
// grant was durable but whose response was lost can reacquire it —
// including after a restart, while any other re-vote still fails.
func TestRecordVoteIdempotentRegrant(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordVote(4, "node-b"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordVote(4, "node-b"); err != nil {
		t.Fatalf("idempotent re-grant: %v", err)
	}
	if err := s.RecordVote(4, "node-c"); err == nil {
		t.Fatal("re-vote for a DIFFERENT candidate in epoch 4 should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RecordVote(4, "node-b"); err != nil {
		t.Fatalf("idempotent re-grant after restart: %v", err)
	}
	if err := r.RecordVote(4, "node-c"); err == nil {
		t.Fatal("re-vote for a different candidate after restart should fail")
	}
	if epoch, id := r.LastVote(); epoch != 4 || id != "node-b" {
		t.Fatalf("vote after re-grants = (%d, %q), want (4, %q)", epoch, id, "node-b")
	}
}

// TestResetToSnapshotKeepsFenceFloor proves a bootstrap onto a
// pre-promotion snapshot regresses the applied-tip epoch but NOT the
// fencing floor — durably — so a deposed leader cannot slip back in
// through the gap (the reviewer's bootstrap-regression scenario).
func TestResetToSnapshotKeepsFenceFloor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginEpoch(7); err != nil {
		t.Fatal(err)
	}
	// The epoch-8 winner bootstraps us from a snapshot taken before its
	// promotion (snapshot epoch 4).
	if err := s.ResetToSnapshot(10, 4, []string{"p(a)"}, 8); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 4 {
		t.Fatalf("epoch after reset = %d, want 4 (snapshot tip)", got)
	}
	if got := s.FenceEpoch(); got != 8 {
		t.Fatalf("fence after reset = %d, want 8 (authorizing leader)", got)
	}
	// The deposed epoch-7 leader cannot exploit the regressed tip.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 11, Epoch: 7, Added: []string{"lost(x)"}}, 7); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed-leader frame mid-bootstrap = %v, want ErrFenced", err)
	}
	if err := s.ResetToSnapshot(12, 7, []string{"q(b)"}, 7); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed-leader re-bootstrap = %v, want ErrFenced", err)
	}
	// The epoch-8 leader's own catch-up stream is not wedged: it relays
	// pre-promotion history under its current authority.
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 11, Epoch: 4, Added: []string{"p(b)"}}, 8); err != nil {
		t.Fatalf("new-leader history relay: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The floor survives a restart mid-catch-up: the bootstrap wrote it
	// as a fence record beyond what the snapshot header restores.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.FenceEpoch(); got != 8 {
		t.Fatalf("recovered fence = %d, want 8", got)
	}
	if err := r.ApplyReplicatedFrom(TxnRecord{Seq: 12, Epoch: 7, Added: []string{"lost(y)"}}, 7); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed-leader frame after restart = %v, want ErrFenced", err)
	}
}

// TestCheckpointPreservesElectionRecords proves a checkpoint's WAL
// truncation does not drop the durable vote or the fencing floor — the
// single-vote rule and fencing must hold across checkpoint + restart.
func TestCheckpointPreservesElectionRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: 1, Epoch: 2, Added: []string{"p(a)"}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordVote(5, "node-b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if epoch, id := r.LastVote(); epoch != 5 || id != "node-b" {
		t.Fatalf("vote after checkpoint+restart = (%d, %q), want (5, %q)", epoch, id, "node-b")
	}
	if err := r.RecordVote(5, "node-c"); err == nil {
		t.Fatal("re-vote in epoch 5 after checkpoint+restart should fail")
	}
	if got := r.FenceEpoch(); got != 5 {
		t.Fatalf("fence after checkpoint+restart = %d, want 5", got)
	}
	if err := r.ApplyReplicatedFrom(TxnRecord{Seq: 2, Epoch: 2, Added: []string{"lost(x)"}}, 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("old-leader frame after checkpoint+restart = %v, want ErrFenced", err)
	}
}

// TestSnapshotHeaderParsing pins the header format, including both
// pre-epoch forms.
func TestSnapshotHeaderParsing(t *testing.T) {
	cases := []struct {
		text  string
		seq   int
		epoch int64
	}{
		{"% park snapshot seq=12\np(a).\n", 12, 0},
		{"% park snapshot seq=12 epoch=3\np(a).\n", 12, 3},
		{"p(a).\n", 0, 0},
		{"% park snapshot seq=bogus\n", 0, 0},
		{"% park snapshot seq=12 epoch=bogus\n", 12, 0},
	}
	for _, tc := range cases {
		seq, epoch := parseSnapshotHeader(tc.text)
		if seq != tc.seq || epoch != tc.epoch {
			t.Errorf("parseSnapshotHeader(%q) = (%d, %d), want (%d, %d)",
				tc.text, seq, epoch, tc.seq, tc.epoch)
		}
	}
}

// renderDBAtoms is a tiny helper for the fencing test.
func renderDBAtoms(u *core.Universe, db *core.Database) []string {
	ids := append([]core.AID(nil), db.Atoms()...)
	u.SortAtoms(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = u.AtomString(id)
	}
	return out
}
