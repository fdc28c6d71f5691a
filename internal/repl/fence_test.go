package repl

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/persist"
)

// White-box tests for the fencing protocol between the store's fencing
// floor and the node's ack/vote/heartbeat handling — the machinery
// that makes "no acked write lost" hold while an election races
// in-flight replication.

// newTestNode builds a three-member node (majority 2) around a fresh
// store, without running its HTTP loops.
func newTestNode(t *testing.T) (*Node, *persist.Store) {
	t.Helper()
	s, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	f := NewFollower(s, "")
	n, err := NewNode(s, f, NodeConfig{
		ID:      "a",
		SelfURL: "http://a",
		Peers:   map[string]string{"b": "http://b", "c": "http://c"},
		Lease:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, s
}

// TestHandleAckEpochFiltering proves WaitReplicated counts only acks
// whose applied-tip epoch matches the leader's own: a high sequence
// reported from a deposed leader's timeline must not satisfy quorum
// for a write on this one.
func TestHandleAckEpochFiltering(t *testing.T) {
	n, s := newTestNode(t)
	if err := s.ApplyReplicatedFrom(persist.TxnRecord{Seq: 1, Epoch: 2, Added: []string{"p(a)"}}, 2); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.role = RoleLeader
	n.mu.Unlock()

	// An ack for seq 5 at epoch 1: the peer sits on an old timeline
	// whose sequence numbers name different writes. Must not count.
	n.HandleAck(AckRequest{NodeID: "b", AppliedSeq: 5, Epoch: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := n.WaitReplicated(ctx, 1)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitReplicated with only an old-epoch ack = %v, want deadline exceeded", err)
	}

	// The same peer catches up on OUR timeline: seq 1 at epoch 2
	// counts, even though 1 < the 5 it reported before (last-writer-
	// wins lets a re-bootstrapped peer regress honestly).
	n.HandleAck(AckRequest{NodeID: "b", AppliedSeq: 1, Epoch: 2})
	n.mu.Lock()
	pa := n.peerSeq["b"]
	n.mu.Unlock()
	if pa.seq != 1 || pa.epoch != 2 {
		t.Fatalf("peerSeq[b] = %+v, want {epoch:2 seq:1} (regression must stick)", pa)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := n.WaitReplicated(ctx, 1); err != nil {
		t.Fatalf("WaitReplicated with a current-epoch ack: %v", err)
	}
}

// TestHandleAckFenceDemotes proves a leader steps down when a
// follower's ack reveals a higher fencing floor — the follower may
// only have VOTED in the newer epoch, with nothing committed under it
// yet, and that alone means this leader can no longer reach quorum.
func TestHandleAckFenceDemotes(t *testing.T) {
	n, s := newTestNode(t)
	if err := s.BeginEpoch(2); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.role = RoleLeader
	n.mu.Unlock()

	n.HandleAck(AckRequest{NodeID: "b", AppliedSeq: 0, Epoch: 2, FenceEpoch: 3})
	if got := n.Role(); got != RoleFollower {
		t.Fatalf("role after higher-fence ack = %v, want follower", got)
	}
}

// TestHandleVoteIdempotentRegrant proves a candidate whose granted
// vote's response was lost can reacquire the exact same vote on retry,
// while the epoch stays burned for everyone else.
func TestHandleVoteIdempotentRegrant(t *testing.T) {
	n, s := newTestNode(t)
	if err := s.RecordVote(5, "c"); err != nil {
		t.Fatal(err)
	}
	resp := n.HandleVote(VoteRequest{Epoch: 5, CandidateID: "c", AppliedSeq: 0})
	if !resp.Granted {
		t.Fatalf("exact re-vote not granted: %s", resp.Reason)
	}
	if resp := n.HandleVote(VoteRequest{Epoch: 5, CandidateID: "b", AppliedSeq: 100, Force: true}); resp.Granted {
		t.Fatal("epoch-5 vote granted to a second candidate")
	}
}

// TestFollowerHeartbeatFencing proves a deposed leader's heartbeats
// stop renewing the lease the moment the local store has acknowledged
// a newer epoch: the stream drops instead of refreshing LastFrame, so
// the election that replaces the old leader is not starved.
func TestFollowerHeartbeatFencing(t *testing.T) {
	s, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	f := NewFollower(s, "http://leader")
	if err := s.RecordVote(5, "c"); err != nil {
		t.Fatal(err)
	}

	hb, err := json.Marshal(Heartbeat{Seq: 9, Epoch: 3, LeaderID: "old", LeaseMillis: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.handle(FrameHeartbeat, hb); err == nil {
		t.Fatal("heartbeat from epoch 3 accepted despite fence at 5")
	}
	st := f.Status()
	if !st.LastFrame.IsZero() {
		t.Fatal("fenced heartbeat renewed LastFrame — the dead leader's lease must not refresh")
	}
	if st.FencedFrames != 1 {
		t.Fatalf("FencedFrames = %d, want 1", st.FencedFrames)
	}

	// The epoch-5 winner's heartbeats pass.
	hb, err = json.Marshal(Heartbeat{Seq: 9, Epoch: 5, LeaderID: "c", LeaseMillis: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.handle(FrameHeartbeat, hb); err != nil {
		t.Fatalf("current-leader heartbeat: %v", err)
	}
	if st := f.Status(); st.LastFrame.IsZero() || st.LeaderEpoch != 5 {
		t.Fatalf("status after current-leader heartbeat = %+v", st)
	}
}

// TestDeposedLeaderNeverFollowsItself builds the self-follow state: a
// leader at epoch 2 polls a peer that has voted in epoch 3 but not yet
// heard from the winner, so the peer still names this node as leader.
// The node must step down to "leader unknown" with a lapsed lease, so
// the next tick rediscovers, and its follower must refuse heartbeats
// from the node's own stream instead of renewing the lease from them.
func TestDeposedLeaderNeverFollowsItself(t *testing.T) {
	s, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.BeginEpoch(2); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(StatusInfo{
			NodeID: "b", Role: "follower", Epoch: 2, FenceEpoch: 3,
			LeaderID: "a", LeaderURL: "http://a",
		})
	}))
	defer peer.Close()
	ev := events.NewLog(16)
	f := NewFollower(s, "")
	n, err := NewNode(s, f, NodeConfig{
		ID:      "a",
		SelfURL: "http://a",
		Peers:   map[string]string{"b": peer.URL},
		Lease:   100 * time.Millisecond,
		Events:  ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.role = RoleLeader
	n.leaderID, n.leaderURL = "a", "http://a"
	n.mu.Unlock()

	n.leaderTick(context.Background())
	if got := n.Role(); got != RoleFollower {
		t.Fatalf("role after a peer reported a higher fence = %v, want follower", got)
	}
	if id, url := n.Leader(); id != "" || url != "" {
		t.Fatalf("deposed leader follows %q (%s), want leader unknown", id, url)
	}
	n.mu.Lock()
	contact := n.contact
	n.mu.Unlock()
	if !contact.IsZero() {
		t.Fatalf("contact = %v, want zero so the next tick rediscovers", contact)
	}
	if got := f.LeaderURL(); got == "http://a" {
		t.Fatal("follower retargeted at the node itself")
	}
	evs, _ := ev.Since(0, map[events.Type]bool{events.LeaderDemoted: true}, 0)
	if len(evs) != 1 || evs[0].Peer != "" {
		t.Fatalf("leader-demoted events = %+v, want one naming no leader", evs)
	}

	// Discovery vets its report the same way.
	n.adoptLeader("a", "http://a")
	if id, _ := n.Leader(); id != "" {
		t.Fatalf("discovery adopted %q, want leader unknown", id)
	}

	// Even when streaming from itself, the follower renews nothing.
	hb, err := json.Marshal(Heartbeat{Epoch: 3, LeaderID: "a", LeaseMillis: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.handle(FrameHeartbeat, hb); err == nil {
		t.Fatal("heartbeat from the node's own stream accepted")
	}
	if !f.Status().LastFrame.IsZero() {
		t.Fatal("own heartbeat renewed LastFrame")
	}

	// A heartbeat naming no one replaces the leader a stream named
	// before, so the old name cannot match the node's leader any more.
	for _, want := range []string{"b", ""} {
		hb, err := json.Marshal(Heartbeat{Epoch: 3, LeaderID: want, LeaseMillis: 100})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.handle(FrameHeartbeat, hb); err != nil {
			t.Fatalf("heartbeat naming %q: %v", want, err)
		}
		if got := f.Status().LeaderID; got != want {
			t.Fatalf("stream leader after a heartbeat naming %q = %q", want, got)
		}
	}
}

// TestLeaseRenewsOnlyFromFollowedLeader proves a follower's lease is
// renewed only by a stream naming the leader the node follows. A
// member that stopped leading may keep serving its stream, naming
// another leader or none; its heartbeats must not keep the dead
// leader's lease alive here.
func TestLeaseRenewsOnlyFromFollowedLeader(t *testing.T) {
	n, _ := newTestNode(t)
	n.mu.Lock()
	n.leaderID, n.leaderURL = "b", "http://b"
	n.mu.Unlock()
	contact := func() time.Time {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.contact
	}
	heartbeat := func(leader string) {
		t.Helper()
		time.Sleep(time.Millisecond) // a strictly later LastFrame
		hb, err := json.Marshal(Heartbeat{LeaderID: leader, LeaseMillis: 100})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.f.handle(FrameHeartbeat, hb); err != nil {
			t.Fatal(err)
		}
	}

	heartbeat("b")
	n.followerTick(context.Background())
	renewed := contact()
	if !renewed.Equal(n.f.Status().LastFrame) {
		t.Fatalf("contact = %v after the followed leader's heartbeat, want %v", renewed, n.f.Status().LastFrame)
	}
	// Both ticks return inside the lease, so no campaign runs.
	for _, other := range []string{"", "c"} {
		heartbeat(other)
		n.followerTick(context.Background())
		if got := contact(); !got.Equal(renewed) {
			t.Fatalf("a heartbeat naming %q renewed the lease of b (contact %v, want %v)", other, got, renewed)
		}
	}
}

// TestBlockedCampaignForgetsDeadLeader proves a follower whose lease
// lapsed and that cannot reach a majority keeps its leader only while
// that leader still answers as one. Forgetting a dead leader makes the
// member answer writes 503 (no leader) instead of 421 naming it.
func TestBlockedCampaignForgetsDeadLeader(t *testing.T) {
	s, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// Only b answers, as a suspended leader; c, d and e are down. Two
	// of five members reachable is short of the majority of three, and
	// discovery skips a suspended leader, so every campaign is blocked.
	peers := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/b/v1/repl/status" {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(StatusInfo{NodeID: "b", Role: "leader", LeaderID: "b", Suspended: true})
	}))
	defer peers.Close()
	n, err := NewNode(s, NewFollower(s, ""), NodeConfig{
		ID:      "a",
		SelfURL: "http://a",
		Peers: map[string]string{
			"b": peers.URL + "/b", "c": peers.URL + "/c", "d": peers.URL + "/d", "e": peers.URL + "/e",
		},
		Lease: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ leader, want string }{{"c", ""}, {"b", "b"}} {
		n.mu.Lock()
		n.leaderID, n.leaderURL = tc.leader, peers.URL+"/"+tc.leader
		n.contact = time.Time{} // the lease has lapsed
		n.mu.Unlock()
		n.followerTick(context.Background())
		if got := n.Role(); got != RoleFollower {
			t.Fatalf("role after a blocked campaign = %v, want follower", got)
		}
		if id, _ := n.Leader(); id != tc.want {
			t.Fatalf("leader after a blocked campaign while following %s = %q, want %q", tc.leader, id, tc.want)
		}
	}
}
