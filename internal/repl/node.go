package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/persist"
)

// Node is the failover coordinator of one replica-set member. It sits
// above the Leader/Follower streaming machinery and owns the lease
// and election protocol:
//
//   - A leader's heartbeats renew a lease of NodeConfig.Lease on every
//     follower (Heartbeat.LeaseMillis rides the existing stream).
//   - A follower that hears nothing for a full lease becomes a
//     candidate: it polls the member set's /v1/repl/status endpoints,
//     refuses to campaign unless it can reach a majority (a
//     partitioned minority must not elect) and defers to any member
//     with a longer applied prefix — the deterministic winner is the
//     highest applied sequence, ties broken by the smallest node ID.
//   - The winner campaigns under a fresh epoch: it durably votes for
//     itself (persist.RecordVote) and asks each reachable peer for a
//     vote (/v1/repl/vote). A peer grants at most one vote per epoch,
//     and only to candidates whose applied sequence is at least its
//     own — so a majority of grants proves the winner's prefix
//     contains every write that was ever acknowledged to a client
//     (acknowledged writes are replicated to a majority first; any
//     two majorities intersect). Granting a vote raises the voter's
//     store fencing floor to the voted epoch, so from the moment a
//     majority has voted, the old leader can no longer replicate to
//     (or collect acks from) a majority — a write racing the election
//     can never be acknowledged on the losing timeline.
//   - On a majority, the winner promotes itself: persist.BeginEpoch
//     stamps the new epoch into the WAL, and from then on every
//     commit marker and replication frame carries it. Stores reject
//     frames from older epochs (persist.ErrFenced), so a deposed
//     leader that comes back cannot overwrite the new timeline.
//   - A leader polls its peers every lease/3: it demotes itself the
//     moment it sees a higher epoch, and suspends writes while it
//     cannot reach a majority (a partitioned leader serves reads but
//     stops pretending writes will replicate).
//
// Promotion is safe at any applied prefix because replication ships
// fact-level result deltas of the pure PARK function — a follower is
// bit-for-bit the leader's state at its applied sequence, never a
// divergent one.
type Node struct {
	cfg   NodeConfig
	store *persist.Store
	f     *Follower
	hc    *http.Client
	// log carries the node's lifecycle records with node_id (and
	// per-record epoch/seq) attrs; built from NodeConfig.Logger, or
	// discard.
	log *slog.Logger
	// ev is the cluster event journal (nil-safe).
	ev *events.Log

	met nodeMetrics

	mu   sync.Mutex
	cond *sync.Cond // broadcast on role changes and ack progress
	// runCtx is Run's context; demotion restarts the follower under it.
	runCtx context.Context
	role   Role
	// leaderID/leaderURL identify the member currently believed to
	// lead (self when role == RoleLeader).
	leaderID, leaderURL string
	// contact is the last proof of a live leader (stream frame, granted
	// vote, retarget); candidacy triggers when it ages past the lease.
	contact time.Time
	// suspended is set on a leader that cannot reach a majority of the
	// member set: writes are refused until contact returns.
	suspended bool
	// peerSeq is the leader's view of each peer's applied position —
	// sequence AND the epoch of its applied tip — fed by /v1/repl/ack;
	// WaitReplicated blocks on it, counting only peers whose tip epoch
	// matches the leader's own (a peer still on a deposed leader's
	// divergent tail can report a high sequence that proves nothing
	// about THIS timeline). Entries are last-writer-wins so a peer
	// that re-bootstraps to a lower sequence regresses honestly.
	peerSeq map[string]peerAck
	// stopStream cancels the follower's streaming loop on promotion.
	stopStream context.CancelFunc
}

// peerAck is one peer's last reported replication position: the
// newest applied sequence and the epoch its applied tip was written
// under. Quorum counting requires the epoch to match the leader's —
// a sequence from another timeline is not progress on this one.
type peerAck struct {
	epoch int64
	seq   int
}

// Role is a node's position in the replica set.
type Role int

const (
	// RoleFollower replays the leader's stream and watches its lease.
	RoleFollower Role = iota
	// RoleCandidate is a follower running an election.
	RoleCandidate
	// RoleLeader accepts writes and serves the replication stream.
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	}
	return "unknown"
}

// NodeConfig identifies one member of a replica set.
type NodeConfig struct {
	// ID is this node's unique name; elections tie-break on it (the
	// smallest ID among equally caught-up members wins).
	ID string
	// SelfURL is the base URL peers and clients reach this node at.
	SelfURL string
	// Peers maps every other member's ID to its base URL. The member
	// set is fixed for the life of the process; a majority of
	// len(Peers)+1 is required to elect or to keep leading.
	Peers map[string]string
	// Lease is the failure-detection horizon: a leader heartbeats well
	// inside it, a follower that hears nothing for a full lease starts
	// an election. Default 3s.
	Lease time.Duration
	// HTTPClient overrides the client used for status polls, votes and
	// acks.
	HTTPClient *http.Client
	// Logger receives lifecycle records (elections, promotions,
	// demotions, suspensions) with node_id/epoch/seq attrs; silent by
	// default.
	Logger *slog.Logger
	// Events is the cluster event journal lifecycle events are emitted
	// into (campaign started/won/lost, vote granted, leader demoted);
	// nil discards them.
	Events *events.Log
}

// ErrNotLeader is returned by WaitReplicated when the node lost
// leadership while a write waited for replication.
var ErrNotLeader = errors.New("repl: not the leader")

// DefaultLease is the failure-detection horizon used when NodeConfig
// leaves Lease zero.
const DefaultLease = 3 * time.Second

// NewNode builds the failover coordinator for one member. The
// follower must replicate into store and is owned by the node from
// here on: Run starts and stops its streaming loop across role
// changes. The node starts as a follower with no known leader;
// discovery (or the first election) finds one.
func NewNode(store *persist.Store, f *Follower, cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("repl: node ID is required")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	cfg.SelfURL = strings.TrimRight(cfg.SelfURL, "/")
	peers := make(map[string]string, len(cfg.Peers))
	for id, url := range cfg.Peers {
		if id == cfg.ID {
			continue
		}
		peers[id] = strings.TrimRight(url, "/")
	}
	cfg.Peers = peers
	f.self = cfg.ID
	n := &Node{
		cfg:     cfg,
		store:   store,
		f:       f,
		hc:      cfg.HTTPClient,
		ev:      cfg.Events,
		role:    RoleFollower,
		contact: time.Now(),
		peerSeq: make(map[string]peerAck),
	}
	if n.hc == nil {
		n.hc = http.DefaultClient
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	n.log = logger.With("node_id", cfg.ID)
	n.cond = sync.NewCond(&n.mu)
	return n, nil
}

// Lease returns the configured lease duration.
func (n *Node) Lease() time.Duration { return n.cfg.Lease }

// ID returns this node's member ID.
func (n *Node) ID() string { return n.cfg.ID }

// SelfURL returns the base URL this node advertises to peers.
func (n *Node) SelfURL() string { return n.cfg.SelfURL }

// members is the full replica-set size (peers plus self).
func (n *Node) members() int { return len(n.cfg.Peers) + 1 }

// majority is the quorum size over the member set.
func (n *Node) majority() int { return n.members()/2 + 1 }

// rpcTimeout bounds one status/vote/ack round trip: well inside a
// lease so a full election fits in one.
func (n *Node) rpcTimeout() time.Duration {
	d := n.cfg.Lease / 3
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// Instrument registers the node's failover metrics in reg.
func (n *Node) Instrument(reg *metrics.Registry) {
	n.met.register(reg)
	n.met.setRole(n.Role())
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// IsLeader reports whether this node currently leads and may accept
// writes (it may still be suspended; see Suspended).
func (n *Node) IsLeader() bool { return n.Role() == RoleLeader }

// Suspended reports whether a leader has lost contact with a majority
// and is refusing writes.
func (n *Node) Suspended() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader && n.suspended
}

// Leader returns the ID and URL of the member currently believed to
// lead ("", "" when unknown).
func (n *Node) Leader() (id, url string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID, n.leaderURL
}

// Status reports this node's view of the replica set, served over
// GET /v1/repl/status and consumed by peers' discovery and
// pre-election polls.
func (n *Node) Status() StatusInfo {
	epoch := n.store.Epoch()
	fence := n.store.FenceEpoch()
	seq := n.store.Seq()
	n.mu.Lock()
	defer n.mu.Unlock()
	return StatusInfo{
		NodeID:      n.cfg.ID,
		Role:        n.role.String(),
		Epoch:       epoch,
		FenceEpoch:  fence,
		AppliedSeq:  seq,
		LeaderID:    n.leaderID,
		LeaderURL:   n.leaderURL,
		LeaseMillis: n.cfg.Lease.Milliseconds(),
		Suspended:   n.role == RoleLeader && n.suspended,
	}
}

// StatusInfo is the JSON body of GET /v1/repl/status.
type StatusInfo struct {
	NodeID string `json:"nodeId"`
	Role   string `json:"role"`
	Epoch  int64  `json:"epoch"`
	// FenceEpoch is the node's fencing floor: the highest epoch it has
	// committed under, voted in, or bootstrapped from. A leader that
	// sees a peer's FenceEpoch above its own epoch has been (or is
	// being) deposed and must step down, even before the new epoch's
	// winner announces itself.
	FenceEpoch int64 `json:"fenceEpoch,omitempty"`
	AppliedSeq int   `json:"appliedSeq"`
	// LeaderID/LeaderURL are this node's belief about the current
	// leader (itself when Role == "leader").
	LeaderID  string `json:"leaderId,omitempty"`
	LeaderURL string `json:"leaderUrl,omitempty"`
	// LeaseMillis is the configured failure-detection lease.
	LeaseMillis int64 `json:"leaseMillis,omitempty"`
	// Suspended marks a leader that has lost majority contact and is
	// refusing writes.
	Suspended bool `json:"suspended,omitempty"`
}

// VoteRequest is the JSON body of POST /v1/repl/vote.
type VoteRequest struct {
	// Epoch is the epoch the candidate campaigns for (strictly above
	// every epoch it has seen).
	Epoch int64 `json:"epoch"`
	// CandidateID/CandidateURL identify the campaigner.
	CandidateID  string `json:"candidateId"`
	CandidateURL string `json:"candidateUrl,omitempty"`
	// AppliedSeq is the candidate's applied sequence; voters refuse
	// candidates behind their own prefix.
	AppliedSeq int `json:"appliedSeq"`
	// Force skips the voter's leader-lease liveness check (manual
	// promotion via /v1/repl/promote); the epoch, prefix and
	// single-vote safety checks still apply.
	Force bool `json:"force,omitempty"`
}

// VoteResponse is the JSON reply to a vote request.
type VoteResponse struct {
	Granted bool `json:"granted"`
	// Epoch is the voter's current epoch (candidates learn how far
	// behind they are from rejections).
	Epoch int64 `json:"epoch"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
}

// AckRequest is the JSON body of POST /v1/repl/ack: a follower
// reporting its replication progress to the leader. WaitReplicated
// blocks writes on these. Epoch is the epoch of the follower's
// applied tip — the leader counts the ack toward quorum only when it
// matches its own epoch, because a sequence applied on another
// timeline proves nothing about this one. FenceEpoch is the
// follower's fencing floor; a leader seeing one above its own epoch
// learns it was deposed (e.g. its followers voted someone else in)
// and steps down.
type AckRequest struct {
	NodeID     string `json:"nodeId"`
	AppliedSeq int    `json:"appliedSeq"`
	Epoch      int64  `json:"epoch"`
	FenceEpoch int64  `json:"fenceEpoch,omitempty"`
}

// Run drives the failover loop until ctx is cancelled: the follower
// streaming loop runs underneath it, a ticker checks the lease (as a
// follower) or polls peers (as a leader) every lease/3, and an ack
// loop reports replication progress upstream. Returns ctx.Err().
func (n *Node) Run(ctx context.Context) error {
	n.mu.Lock()
	n.runCtx = ctx
	n.mu.Unlock()
	// Wake WaitReplicated waiters on shutdown.
	defer context.AfterFunc(ctx, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})()
	n.startFollowing(ctx)
	go n.ackLoop(ctx)
	tick := n.cfg.Lease / 3
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if n.Role() == RoleLeader {
				n.leaderTick(ctx)
			} else {
				n.followerTick(ctx)
			}
		}
	}
}

// startFollowing (re)spawns the follower streaming loop under a
// cancelable child of ctx; promotion cancels it.
func (n *Node) startFollowing(ctx context.Context) {
	fctx, cancel := context.WithCancel(ctx)
	n.mu.Lock()
	n.stopStream = cancel
	n.mu.Unlock()
	go n.f.Run(fctx)
}

// followerTick checks the leader's lease and, when it has lapsed,
// runs discovery and (as the deterministic winner) an election.
func (n *Node) followerTick(ctx context.Context) {
	st := n.f.Status()
	n.mu.Lock()
	// Only a stream naming the leader this node follows renews its
	// lease. With no leader known, or a stream still pointed at a member
	// that no longer leads, the node must rediscover.
	if n.leaderID != "" && st.LeaderID == n.leaderID && st.LastFrame.After(n.contact) {
		n.contact = st.LastFrame
	}
	contact := n.contact
	n.mu.Unlock()
	if time.Since(contact) <= n.cfg.Lease {
		return
	}
	n.campaign(ctx, false)
}

// campaign is one election attempt: discovery first, then the
// quorum-gated pre-poll, then (as the winner) the vote phase. force
// skips voters' leader-liveness checks (manual promotion).
func (n *Node) campaign(ctx context.Context, force bool) {
	n.setRole(RoleCandidate)
	statuses := n.pollPeers(ctx)

	// Discovery: if any reachable member leads at our fencing floor or
	// above, adopt it instead of electing. Prefer the highest epoch —
	// after a partition heals, both the new leader and the deposed one
	// may still answer "leader". Filtering against the FLOOR (not the
	// applied-tip epoch, which regresses mid-bootstrap) keeps a node
	// that voted in epoch e+1 from re-adopting the deposed epoch-e
	// leader.
	if !force {
		floor := n.store.FenceEpoch()
		var best *StatusInfo
		for id := range statuses {
			st := statuses[id]
			if st.Role != "leader" || st.Suspended || st.Epoch < floor {
				continue
			}
			if best == nil || st.Epoch > best.Epoch {
				best = &st
			}
		}
		if best != nil {
			n.adoptLeader(best.NodeID, best.LeaderURL)
			return
		}
	}

	reachable := len(statuses) + 1
	if reachable < n.majority() {
		// No election can succeed from here, so the leader we knew is
		// live only if it still answers as one. Otherwise forget it:
		// writes here then get 503 (no leader), not a 421 naming a dead
		// member.
		n.mu.Lock()
		if st, ok := statuses[n.leaderID]; !ok || st.Role != "leader" {
			n.leaderID, n.leaderURL = "", ""
		}
		n.mu.Unlock()
		n.log.Warn("election blocked: majority unreachable",
			"reachable", reachable, "members", n.members(), "need", n.majority(),
			"epoch", n.store.Epoch(), "seq", n.store.Seq())
		n.ev.Emit(events.Event{
			Type:   events.CampaignLost,
			Epoch:  n.store.Epoch(),
			Detail: fmt.Sprintf("blocked: %d/%d members reachable, need %d", reachable, n.members(), n.majority()),
		})
		n.setRole(RoleFollower)
		return
	}

	// Deterministic winner: the longest applied prefix, ties to the
	// smallest ID. Everyone else stands down and lets the winner
	// campaign (simultaneous candidacies still cannot both win an
	// epoch — votes are durable and single-grant — this just avoids
	// burning epochs on duels).
	selfSeq := n.store.Seq()
	// Campaign strictly above every epoch anyone has acknowledged: our
	// fencing floor already folds in our own votes and bootstraps, and
	// peers report theirs so we never burn a round on an epoch a voter
	// will refuse.
	maxEpoch := n.store.FenceEpoch()
	bestID, bestSeq := n.cfg.ID, selfSeq
	for id, st := range statuses {
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
		if st.FenceEpoch > maxEpoch {
			maxEpoch = st.FenceEpoch
		}
		if st.AppliedSeq > bestSeq || (st.AppliedSeq == bestSeq && id < bestID) {
			bestID, bestSeq = id, st.AppliedSeq
		}
	}
	// A forced (operator-chosen) campaign skips the stand-down: the
	// voters' applied-prefix check still refuses a candidate behind
	// the majority, so safety does not depend on this heuristic.
	if bestID != n.cfg.ID && !force {
		n.log.Info("standing down for better-placed candidate",
			"peer", bestID, "peerSeq", bestSeq, "seq", selfSeq)
		n.ev.Emit(events.Event{
			Type:     events.CampaignLost,
			StoreSeq: selfSeq,
			Peer:     bestID,
			Detail:   fmt.Sprintf("stood down: %s applied %d >= %d", bestID, bestSeq, selfSeq),
		})
		n.setRole(RoleFollower)
		return
	}

	epoch := maxEpoch + 1
	if err := n.store.RecordVote(epoch, n.cfg.ID); err != nil {
		n.log.Warn("cannot vote for self", "epoch", epoch, "seq", selfSeq, "err", err.Error())
		n.ev.Emit(events.Event{
			Type:     events.CampaignLost,
			Epoch:    epoch,
			StoreSeq: selfSeq,
			Detail:   fmt.Sprintf("self-vote failed: %v", err),
		})
		n.setRole(RoleFollower)
		return
	}
	n.met.election()
	n.log.Info("campaigning for leadership",
		"epoch", epoch, "seq", selfSeq, "reachable", reachable, "members", n.members())
	n.ev.Emit(events.Event{
		Type:     events.CampaignStarted,
		Epoch:    epoch,
		StoreSeq: selfSeq,
		Detail:   fmt.Sprintf("%d/%d members reachable", reachable, n.members()),
	})

	req := VoteRequest{
		Epoch:        epoch,
		CandidateID:  n.cfg.ID,
		CandidateURL: n.cfg.SelfURL,
		AppliedSeq:   selfSeq,
		Force:        force,
	}
	grants := 1 // own durable vote
	var gmu sync.Mutex
	var wg sync.WaitGroup
	for id, url := range n.cfg.Peers {
		if _, ok := statuses[id]; !ok {
			continue // unreachable in the pre-poll; don't wait on it
		}
		wg.Add(1)
		go func(id, url string) {
			defer wg.Done()
			resp, err := n.requestVote(ctx, url, req)
			if err != nil {
				n.log.Warn("vote request failed", "peer", id, "epoch", epoch, "err", err.Error())
				return
			}
			if resp.Granted {
				gmu.Lock()
				grants++
				gmu.Unlock()
			} else {
				n.log.Info("vote rejected", "peer", id, "epoch", epoch, "reason", resp.Reason)
			}
		}(id, url)
	}
	wg.Wait()
	if grants < n.majority() {
		n.log.Warn("election lost", "epoch", epoch, "votes", grants, "need", n.majority(), "seq", selfSeq)
		n.ev.Emit(events.Event{
			Type:     events.CampaignLost,
			Epoch:    epoch,
			StoreSeq: selfSeq,
			Detail:   fmt.Sprintf("%d/%d votes", grants, n.majority()),
		})
		n.setRole(RoleFollower)
		return
	}
	n.promote(epoch, grants)
}

// promote installs a new epoch and takes leadership.
func (n *Node) promote(epoch int64, grants int) {
	if err := n.store.BeginEpoch(epoch); err != nil {
		n.log.Warn("promotion failed", "epoch", epoch, "err", err.Error())
		n.ev.Emit(events.Event{
			Type:   events.CampaignLost,
			Epoch:  epoch,
			Detail: fmt.Sprintf("BeginEpoch failed: %v", err),
		})
		n.setRole(RoleFollower)
		return
	}
	n.mu.Lock()
	n.role = RoleLeader
	n.leaderID, n.leaderURL = n.cfg.ID, n.cfg.SelfURL
	n.suspended = false
	n.peerSeq = make(map[string]peerAck)
	stop := n.stopStream
	n.stopStream = nil
	n.cond.Broadcast()
	n.mu.Unlock()
	if stop != nil {
		stop()
	}
	n.met.setRole(RoleLeader)
	n.met.promotion()
	seq := n.store.Seq()
	n.log.Info("promoted to leader", "epoch", epoch, "votes", grants, "members", n.members(), "seq", seq)
	n.ev.Emit(events.Event{
		Type:     events.CampaignWon,
		Epoch:    epoch,
		StoreSeq: seq,
		Detail:   fmt.Sprintf("%d/%d votes", grants, n.members()),
	})
}

// reportedLeader vets a peer's report of who leads. A report naming
// this node is "leader unknown": a peer that has only voted in a newer
// epoch still names the deposed leader, and following ourselves would
// renew our own lease forever. The zero contact time it returns then
// makes the next followerTick rediscover at once.
func (n *Node) reportedLeader(id, url string) (string, string, time.Time) {
	if id == n.cfg.ID || (url != "" && url == n.cfg.SelfURL) {
		return "", "", time.Time{}
	}
	return id, url, time.Now()
}

// demote steps down to follower, pointing the streaming loop at the
// new leader when known.
func (n *Node) demote(leaderID, leaderURL string) {
	leaderID, leaderURL, contact := n.reportedLeader(leaderID, leaderURL)
	n.mu.Lock()
	wasLeader := n.role == RoleLeader
	n.role = RoleFollower
	n.leaderID, n.leaderURL = leaderID, leaderURL
	n.contact = contact
	n.suspended = false
	runCtx := n.runCtx
	n.cond.Broadcast()
	n.mu.Unlock()
	if wasLeader {
		n.met.demotion()
		if runCtx != nil && runCtx.Err() == nil {
			n.startFollowing(runCtx)
		}
	}
	n.met.setRole(RoleFollower)
	if leaderURL != "" {
		n.f.Retarget(leaderURL)
	}
	if wasLeader {
		epoch := n.store.Epoch()
		n.log.Warn("demoted to follower",
			"leader", leaderID, "leaderUrl", leaderURL, "epoch", epoch, "seq", n.store.Seq())
		n.ev.Emit(events.Event{
			Type:     events.LeaderDemoted,
			Epoch:    epoch,
			StoreSeq: n.store.Seq(),
			Peer:     leaderID, // the leader adopted; empty when unknown
			Detail:   "stepped down after seeing a higher epoch",
		})
	}
}

// adoptLeader records a discovered leader and retargets the stream.
func (n *Node) adoptLeader(leaderID, leaderURL string) {
	leaderID, leaderURL, contact := n.reportedLeader(leaderID, leaderURL)
	n.mu.Lock()
	n.role = RoleFollower
	n.leaderID, n.leaderURL = leaderID, leaderURL
	n.contact = contact
	n.cond.Broadcast()
	n.mu.Unlock()
	n.met.setRole(RoleFollower)
	if leaderURL != "" {
		n.f.Retarget(leaderURL)
	}
	n.log.Info("adopted discovered leader", "leader", leaderID, "leaderUrl", leaderURL)
}

// leaderTick is the leader's self-check: demote on any higher epoch —
// including a peer whose fencing floor is higher because it voted in
// an election we lost track of — and suspend writes while a majority
// is unreachable.
func (n *Node) leaderTick(ctx context.Context) {
	statuses := n.pollPeers(ctx)
	epoch := n.store.Epoch()
	for id := range statuses {
		st := statuses[id]
		if st.Epoch > epoch || st.FenceEpoch > epoch {
			n.log.Warn("deposed: peer reports a higher epoch",
				"peer", id, "peerEpoch", st.Epoch, "peerFence", st.FenceEpoch, "epoch", epoch)
			n.demote(st.LeaderID, st.LeaderURL)
			return
		}
	}
	reachable := len(statuses) + 1
	n.mu.Lock()
	was := n.suspended
	n.suspended = reachable < n.majority()
	now := n.suspended
	n.mu.Unlock()
	if now != was {
		n.met.setSuspended(now)
		if now {
			n.log.Warn("suspended writes: majority unreachable",
				"reachable", reachable, "members", n.members(), "need", n.majority(), "epoch", epoch)
		} else {
			n.log.Info("majority contact restored; resuming writes",
				"reachable", reachable, "members", n.members(), "epoch", epoch)
		}
	}
}

// Promote forces an immediate election attempt regardless of lease
// state (the manual-failover override: POST /v1/repl/promote). The
// quorum, epoch and longest-prefix vote checks still apply — a
// partitioned minority node cannot be force-promoted.
func (n *Node) Promote(ctx context.Context) error {
	if n.IsLeader() {
		return nil
	}
	n.campaign(ctx, true)
	if !n.IsLeader() {
		return fmt.Errorf("repl: promotion failed (see node log); still %s", n.Role())
	}
	return nil
}

// HandleVote answers a candidate's vote request (POST /v1/repl/vote).
// Safety lives here: one durable vote per epoch, never for a
// candidate whose prefix is shorter than ours, never for a stale
// epoch. Liveness lives in the lease check: a voter that heard from
// a live leader within the lease refuses to depose it.
func (n *Node) HandleVote(req VoteRequest) VoteResponse {
	cur := n.store.Epoch()
	resp := VoteResponse{Epoch: cur}
	if ve, vf := n.store.LastVote(); ve == req.Epoch && vf == req.CandidateID {
		// Idempotent re-grant: our durable vote for this exact candidate
		// and epoch already exists (the previous response was lost).
		// Re-running the liveness or prefix checks could only produce an
		// inconsistent answer about a decision already made durable.
		n.mu.Lock()
		n.contact = time.Now()
		n.mu.Unlock()
		resp.Granted = true
		return resp
	}
	if req.Epoch <= cur {
		resp.Reason = fmt.Sprintf("stale epoch %d (current %d)", req.Epoch, cur)
		return resp
	}
	n.mu.Lock()
	role := n.role
	contact := n.contact
	suspended := n.suspended
	n.mu.Unlock()
	if !req.Force {
		if role == RoleLeader && !suspended {
			resp.Reason = "voter is a leader with majority contact"
			return resp
		}
		if role == RoleFollower && time.Since(contact) <= n.cfg.Lease {
			resp.Reason = "leader lease still live"
			return resp
		}
	}
	if seq := n.store.Seq(); req.AppliedSeq < seq {
		resp.Reason = fmt.Sprintf("candidate prefix %d behind voter %d", req.AppliedSeq, seq)
		return resp
	}
	if err := n.store.RecordVote(req.Epoch, req.CandidateID); err != nil {
		resp.Reason = err.Error()
		return resp
	}
	n.met.voteGranted()
	// Granting resets the election clock: give the candidate a lease
	// to win and announce itself before campaigning against it.
	n.mu.Lock()
	n.contact = time.Now()
	n.mu.Unlock()
	resp.Granted = true
	n.log.Info("vote granted", "peer", req.CandidateID, "epoch", req.Epoch, "seq", n.store.Seq())
	n.ev.Emit(events.Event{
		Type:     events.VoteGranted,
		Epoch:    req.Epoch,
		StoreSeq: n.store.Seq(),
		Peer:     req.CandidateID,
	})
	return resp
}

// HandleAck ingests a follower's replication progress report
// (POST /v1/repl/ack).
func (n *Node) HandleAck(req AckRequest) {
	epoch := n.store.Epoch()
	if (req.Epoch > epoch || req.FenceEpoch > epoch) && n.IsLeader() {
		// A follower ahead of our epoch — applied tip or fencing floor
		// (it may only have VOTED in the newer epoch, with no commits
		// under it yet) — means we were deposed and missed it; discovery
		// on the next tick finds the leader.
		n.log.Warn("deposed: follower ack carries a higher epoch",
			"peer", req.NodeID, "peerEpoch", req.Epoch, "peerFence", req.FenceEpoch, "epoch", epoch)
		n.demote("", "")
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleLeader || req.NodeID == "" {
		return
	}
	// Last-writer-wins, not max: a follower that re-bootstrapped from a
	// snapshot (or sat on a deposed leader's divergent tail) must be
	// allowed to regress its reported position. sendAck runs
	// sequentially per follower, so the newest report is the truth.
	pa := peerAck{epoch: req.Epoch, seq: req.AppliedSeq}
	if n.peerSeq[req.NodeID] != pa {
		n.peerSeq[req.NodeID] = pa
		n.cond.Broadcast()
	}
}

// WaitReplicated blocks until a majority of the member set (counting
// this leader) has applied sequence seq, the node loses leadership
// (ErrNotLeader) or ctx ends. The server calls it before
// acknowledging a write, making "acknowledged" mean "replicated to a
// majority" — the property the election's longest-prefix rule turns
// into "no acknowledged write is lost across failover".
func (n *Node) WaitReplicated(ctx context.Context, seq int) error {
	if n.majority() <= 1 {
		return nil
	}
	// The awaited sequence was committed under our current epoch, so a
	// peer whose applied TIP is at that epoch and at or past seq holds
	// the write. A peer reporting seq under an OLDER tip epoch is on a
	// deposed leader's timeline — its sequence numbers name different
	// writes and must not count. (Not a liveness hole: applying through
	// seq on this timeline adopts this epoch, so honest replication
	// always converges to a countable ack.)
	epoch := n.store.Epoch()
	defer context.AfterFunc(ctx, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})()
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n.role != RoleLeader {
			return ErrNotLeader
		}
		count := 1
		for _, pa := range n.peerSeq {
			if pa.epoch == epoch && pa.seq >= seq {
				count++
			}
		}
		if count >= n.majority() {
			return nil
		}
		n.cond.Wait()
	}
}

// setRole transitions between follower and candidate (promote/demote
// own the leader transitions).
func (n *Node) setRole(r Role) {
	n.mu.Lock()
	changed := n.role != r
	n.role = r
	if changed {
		n.cond.Broadcast()
	}
	n.mu.Unlock()
	if changed {
		n.met.setRole(r)
	}
}

// ackLoop reports replication progress to the current leader: after
// every locally applied commit (the store re-notifies replicated
// transactions) and on a lease/3 heartbeat.
func (n *Node) ackLoop(ctx context.Context) {
	txns, cancel := n.store.Subscribe(64)
	defer cancel()
	tick := n.cfg.Lease / 3
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-txns:
			// Coalesce a burst into one ack for the newest sequence.
			for {
				select {
				case <-txns:
					continue
				default:
				}
				break
			}
			n.sendAck(ctx)
		case <-t.C:
			n.sendAck(ctx)
		}
	}
}

// sendAck posts this node's applied sequence to the leader (no-op
// while leading or with no leader known). Failures are silent: acks
// are periodic, the next one retries.
func (n *Node) sendAck(ctx context.Context) {
	n.mu.Lock()
	url := n.leaderURL
	leading := n.role == RoleLeader
	n.mu.Unlock()
	if leading || url == "" {
		return
	}
	body, err := json.Marshal(AckRequest{
		NodeID:     n.cfg.ID,
		AppliedSeq: n.store.Seq(),
		Epoch:      n.store.Epoch(),
		FenceEpoch: n.store.FenceEpoch(),
	})
	if err != nil {
		return
	}
	cctx, cancel := context.WithTimeout(ctx, n.rpcTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, url+"/v1/repl/ack", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.hc.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
}

// pollPeers fetches every peer's /v1/repl/status in parallel,
// returning the reachable ones.
func (n *Node) pollPeers(ctx context.Context) map[string]StatusInfo {
	var mu sync.Mutex
	out := make(map[string]StatusInfo)
	var wg sync.WaitGroup
	for id, url := range n.cfg.Peers {
		wg.Add(1)
		go func(id, url string) {
			defer wg.Done()
			st, err := n.fetchStatus(ctx, url)
			if err != nil {
				return
			}
			mu.Lock()
			out[id] = st
			mu.Unlock()
		}(id, url)
	}
	wg.Wait()
	return out
}

// fetchStatus fetches one peer's status.
func (n *Node) fetchStatus(ctx context.Context, url string) (StatusInfo, error) {
	cctx, cancel := context.WithTimeout(ctx, n.rpcTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, url+"/v1/repl/status", nil)
	if err != nil {
		return StatusInfo{}, err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return StatusInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return StatusInfo{}, fmt.Errorf("status HTTP %d", resp.StatusCode)
	}
	var st StatusInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return StatusInfo{}, err
	}
	return st, nil
}

// requestVote posts one vote request.
func (n *Node) requestVote(ctx context.Context, url string, vreq VoteRequest) (VoteResponse, error) {
	body, err := json.Marshal(vreq)
	if err != nil {
		return VoteResponse{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, n.rpcTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, url+"/v1/repl/vote", bytes.NewReader(body))
	if err != nil {
		return VoteResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.hc.Do(req)
	if err != nil {
		return VoteResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return VoteResponse{}, fmt.Errorf("vote HTTP %d", resp.StatusCode)
	}
	var vr VoteResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&vr); err != nil {
		return VoteResponse{}, err
	}
	return vr, nil
}

// Members returns the full member roster (self included) as an
// ID-to-base-URL map. The server's /v1/cluster aggregation fans out
// over it.
func (n *Node) Members() map[string]string {
	out := make(map[string]string, len(n.cfg.Peers)+1)
	out[n.cfg.ID] = n.cfg.SelfURL
	for id, url := range n.cfg.Peers {
		out[id] = url
	}
	return out
}

// MemberIDs returns the sorted member set (self included), for logs
// and tests.
func (n *Node) MemberIDs() []string {
	ids := []string{n.cfg.ID}
	for id := range n.cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
