package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/persist"
	"repro/internal/repl"
)

// This file is the server's failover surface: the cluster-member
// constructor and the /v1/repl/{status,vote,ack,promote} endpoints
// that the repl.Node election protocol rides on. In cluster mode the
// node's role is dynamic — the same process serves writes while it
// leads and answers 421 with the current leader's address while it
// follows — so the writable gate (server.go) consults the node on
// every mutating request.

// NewClusterMember creates a server for one member of a replica set.
// The follower and node are owned by the caller (parkd runs
// node.Run, which drives the follower); the server wires them into
// the writable gate, /v1/healthz, the metrics registry and the
// /v1/repl endpoints, and stamps the replication stream's heartbeats
// with the leader this node knows (itself while it leads) and its
// lease so followers track it.
func NewClusterMember(store *persist.Store, follower *repl.Follower, node *repl.Node) *Server {
	s := New(store)
	s.follower = follower
	if follower != nil {
		follower.Instrument(s.reg)
	}
	s.node = node
	node.Instrument(s.reg)
	s.leader.SetIdentity(node.Leader, node.Lease())
	return s
}

// Node returns the failover coordinator (nil outside cluster mode).
func (s *Server) Node() *repl.Node { return s.node }

// handleReplStatus answers GET /v1/repl/status: this node's view of
// the replica set. Peers poll it for discovery and pre-election
// checks; outside cluster mode it reports the static role.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if s.node != nil {
		writeJSON(w, http.StatusOK, s.node.Status())
		return
	}
	epoch, _ := s.store.Epochs()
	st := repl.StatusInfo{
		Role:       "leader",
		Epoch:      epoch,
		FenceEpoch: s.store.FenceEpoch(),
		AppliedSeq: s.store.Seq(),
	}
	if s.follower != nil {
		st.Role = "follower"
		st.LeaderURL = s.follower.LeaderURL()
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReplVote answers POST /v1/repl/vote: a candidate asking this
// node for its (durable, single-per-epoch) vote.
func (s *Server) handleReplVote(w http.ResponseWriter, r *http.Request) {
	if s.node == nil {
		writeErr(w, http.StatusConflict, errors.New("not a replica-set member (no cluster configuration)"))
		return
	}
	var req repl.VoteRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, s.node.HandleVote(req))
}

// handleReplAck answers POST /v1/repl/ack: a follower reporting its
// applied sequence so the leader can acknowledge quorum-replicated
// writes.
func (s *Server) handleReplAck(w http.ResponseWriter, r *http.Request) {
	if s.node == nil {
		writeErr(w, http.StatusConflict, errors.New("not a replica-set member (no cluster configuration)"))
		return
	}
	var req repl.AckRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.node.HandleAck(req)
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleReplPromote answers POST /v1/repl/promote: the manual
// failover override. It forces an immediate election attempt without
// waiting out the lease; the quorum, epoch and longest-prefix vote
// checks still apply, so it cannot create a second leader — it can
// only fail.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	if s.node == nil {
		writeErr(w, http.StatusConflict, errors.New("not a replica-set member (no cluster configuration)"))
		return
	}
	if err := s.node.Promote(r.Context()); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, s.node.Status())
}

// rejectNotLeader answers a write sent to a non-leader cluster
// member: 421 with the current leader's address in the X-Park-Leader
// header and body (when known), or 503 with Retry-After while an
// election is in flight and no leader is known yet.
func (s *Server) rejectNotLeader(w http.ResponseWriter) {
	_, leaderURL := s.node.Leader()
	st := s.node.Status()
	if leaderURL == "" {
		// Mid-election: no leader to redirect to. Retry after roughly
		// an election round.
		secs := int(s.node.Lease() / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("no leader elected yet (this node is a %s in epoch %d); retry shortly", st.Role, st.Epoch))
		return
	}
	w.Header().Set("X-Park-Leader", leaderURL)
	resp := ReplicaRejection{
		Error:  fmt.Sprintf("read-only replica: send writes to the leader at %s", leaderURL),
		Leader: leaderURL,
		Epoch:  st.Epoch,
	}
	if s.follower != nil {
		fst := s.follower.Status()
		resp.Stale = fst.Stale
		resp.StaleAfterSeconds = fst.StaleAfter.Seconds()
		resp.AppliedSeq = fst.AppliedSeq
		resp.LagSeq = fst.LagSeq()
		if !fst.LastFrame.IsZero() {
			resp.LastFrameAgeSeconds = time.Since(fst.LastFrame).Seconds()
		}
	}
	writeJSON(w, http.StatusMisdirectedRequest, resp)
}

// rejectSuspended answers a write on a leader that has lost majority
// contact: committing it could not replicate, so refuse up front.
func (s *Server) rejectSuspended(w http.ResponseWriter) {
	secs := int(s.node.Lease() / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErr(w, http.StatusServiceUnavailable,
		errors.New("leader suspended: no contact with a majority of the replica set"))
}

// waitReplicated blocks a committed write until a majority of the
// replica set has applied it, bounding the wait at two leases. The
// outcome decides the client's acknowledgment: only writes that
// reached a majority are answered 200, which is exactly the set of
// writes the election protocol guarantees to survive a failover.
func (s *Server) waitReplicated(ctx context.Context, seq int) error {
	if s.node == nil || seq == 0 {
		return nil
	}
	wctx, cancel := context.WithTimeout(ctx, 2*s.node.Lease())
	defer cancel()
	return s.node.WaitReplicated(wctx, seq)
}
