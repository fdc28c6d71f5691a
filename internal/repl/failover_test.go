package repl_test

// The failover harness. clusterMember spins up a full in-process
// replica-set member — persist store, streaming follower, election
// node and the cluster HTTP API on a real listener — with crash,
// inbound-partition, heal and restart controls, so the tests below
// exercise the same wire protocol parkd members speak.
//
// Deterministic coverage (table-driven over 3- and 5-member sets):
// single-leader convergence from simultaneous candidacy, promotion on
// leader death, a partitioned minority refusing to elect, and a
// deposed leader demoting and getting fenced.
//
// TestRandomFailoverSchedules is the randomized extension of the
// persist fault harness: each seeded schedule runs writers against
// the live leader while a disruptor crashes or partitions random
// members (including the leader), then heals everything and asserts
// the safety invariants — no acknowledged write lost, and no fenced
// write visible (all members converge to the identical database).
//
//	PARK_FAILOVER_SCHEDULES  number of schedules (default 6, 2 in -short)
//	PARK_FAILOVER_SEED       seed of the first schedule; set alone, it
//	                         replays exactly that one schedule
//
// Without PARK_FAILOVER_SEED the schedules start at
// defaultFailoverSeed, so a plain `go test` runs the same schedules,
// under the same subtest names, every time; CI passes a clock seed to
// explore new ones. Every failure message includes the schedule's
// seed.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/server"
)

// testLease keeps elections fast without making -race runs flaky.
const testLease = 150 * time.Millisecond

// clusterMember is one in-process replica-set member.
type clusterMember struct {
	t     *testing.T
	id    string
	dir   string
	addr  string // fixed host:port, stable across restarts
	url   string
	peers map[string]string
	lease time.Duration

	mu          sync.Mutex
	store       *persist.Store
	srv         *server.Server
	node        *repl.Node
	hs          *http.Server
	cancel      context.CancelFunc
	down        bool // crashed: nothing runs
	partitioned bool // inbound blocked: node and store still run
}

// startCluster brings up an n-member replica set on loopback
// listeners and returns the members running (no leader elected yet).
func startCluster(t *testing.T, n int, lease time.Duration) []*clusterMember {
	t.Helper()
	// Bind the listeners first: every member needs the full roster's
	// URLs before any node starts.
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	ids := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	members := make([]*clusterMember, n)
	for i := range members {
		peers := map[string]string{}
		for j := range urls {
			if j != i {
				peers[ids[j]] = urls[j]
			}
		}
		m := &clusterMember{
			t:     t,
			id:    ids[i],
			dir:   t.TempDir(),
			addr:  lns[i].Addr().String(),
			url:   urls[i],
			peers: peers,
			lease: lease,
		}
		if err := m.start(lns[i]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.crash)
		members[i] = m
	}
	return members
}

// testLog adapts t.Log to an io.Writer, so members log through a
// slog.TextHandler into the test's own output.
type testLog struct{ t testing.TB }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// start builds the member's store/follower/node/server stack and
// serves on ln (nil: rebind the member's fixed address).
func (m *clusterMember) start(ln net.Listener) error {
	if ln == nil {
		var err error
		// The port was just freed by a crash; give the kernel a moment.
		for i := 0; ; i++ {
			ln, err = net.Listen("tcp", m.addr)
			if err == nil {
				break
			}
			if i == 50 {
				return fmt.Errorf("member %s: rebind %s: %w", m.id, m.addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Each incarnation gets a fresh event journal, like a restarted
	// parkd process would.
	ev := events.NewLog(0)
	ev.SetNodeID(m.id)
	store, err := persist.Open(m.dir, persist.WithEvents(ev))
	if err != nil {
		ln.Close()
		return err
	}
	logger := slog.New(slog.NewTextHandler(testLog{m.t}, nil)).With("member", m.id)
	f := repl.NewFollower(store, "",
		repl.WithBackoff(2*time.Millisecond, 25*time.Millisecond),
		repl.WithLogger(logger),
		repl.WithEvents(ev))
	node, err := repl.NewNode(store, f, repl.NodeConfig{
		ID: m.id, SelfURL: m.url, Peers: m.peers, Lease: m.lease, Logger: logger, Events: ev,
	})
	if err != nil {
		store.Close()
		ln.Close()
		return err
	}
	srv := server.NewClusterMember(store, f, node)
	srv.SetEvents(ev)
	ctx, cancel := context.WithCancel(context.Background())
	hs := &http.Server{Handler: srv.Handler()}
	go node.Run(ctx)
	go hs.Serve(ln)

	m.mu.Lock()
	m.store, m.srv, m.node, m.hs, m.cancel = store, srv, node, hs, cancel
	m.down, m.partitioned = false, false
	m.mu.Unlock()
	return nil
}

// crash stops everything: the node, open streams, the listener and
// the store. State on disk survives for restart.
func (m *clusterMember) crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return
	}
	m.cancel()
	m.srv.StopStreams()
	m.hs.Close()
	m.store.Close()
	m.down = true
	m.partitioned = false
}

// restart reopens a crashed member on its original address.
func (m *clusterMember) restart() error {
	m.mu.Lock()
	if !m.down {
		m.mu.Unlock()
		return fmt.Errorf("member %s: restart while running", m.id)
	}
	m.mu.Unlock()
	return m.start(nil)
}

// partition blocks inbound traffic: peers and clients cannot reach
// the member, but its node keeps running and can still poll peers —
// the asymmetric case where a deposed leader discovers the new epoch
// on its own.
func (m *clusterMember) partition() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down || m.partitioned {
		return
	}
	m.srv.StopStreams()
	m.hs.Close()
	m.partitioned = true
}

// healPartition restores inbound service on the original address.
func (m *clusterMember) healPartition() error {
	m.mu.Lock()
	if !m.partitioned {
		m.mu.Unlock()
		return nil
	}
	var (
		ln  net.Listener
		err error
	)
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", m.addr)
		if err == nil {
			break
		}
		if i == 50 {
			m.mu.Unlock()
			return fmt.Errorf("member %s: heal rebind %s: %w", m.id, m.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hs := &http.Server{Handler: m.srv.Handler()}
	go hs.Serve(ln)
	m.hs = hs
	m.partitioned = false
	m.mu.Unlock()
	return nil
}

// reachable reports whether clients can talk to the member.
func (m *clusterMember) reachable() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.down && !m.partitioned
}

// status fetches the member's /v1/repl/status.
func (m *clusterMember) status() (repl.StatusInfo, error) {
	var st repl.StatusInfo
	c := &http.Client{Timeout: time.Second}
	resp, err := c.Get(m.url + "/v1/repl/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// client returns an API client for the member.
func (m *clusterMember) client() *server.Client {
	return &server.Client{BaseURL: m.url, HTTPClient: &http.Client{Timeout: 5 * time.Second}}
}

// waitLeader polls until some reachable member reports itself leader
// (not suspended) and returns it.
func waitLeader(t *testing.T, members []*clusterMember, timeout time.Duration) *clusterMember {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range members {
			if !m.reachable() {
				continue
			}
			st, err := m.status()
			if err == nil && st.Role == "leader" && !st.Suspended {
				return m
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no leader elected within %v", timeout)
	return nil
}

// TestClusterElectsSingleLeader: from a cold start every member is a
// follower with an expired lease, so candidacy is simultaneous by
// construction; exactly one leader must emerge and every member must
// agree on it.
func TestClusterElectsSingleLeader(t *testing.T) {
	for _, size := range []int{3, 5} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			t.Parallel()
			members := startCluster(t, size, testLease)
			leader := waitLeader(t, members, 20*testLease)

			// Convergence: everyone agrees on one leader in one epoch.
			deadline := time.Now().Add(20 * testLease)
			for _, m := range members {
				for {
					st, err := m.status()
					if err == nil && st.LeaderID == leader.id {
						if m == leader != (st.Role == "leader") {
							t.Fatalf("member %s: role %q but leaderId %s (self %s)",
								m.id, st.Role, st.LeaderID, m.id)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("member %s never converged on leader %s (status %+v, err %v)",
							m.id, leader.id, st, err)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			// Exactly one member claims leadership.
			leaders := 0
			for _, m := range members {
				if st, err := m.status(); err == nil && st.Role == "leader" {
					leaders++
				}
			}
			if leaders != 1 {
				t.Fatalf("%d members claim leadership, want exactly 1", leaders)
			}
		})
	}
}

// TestClusterFailoverOnLeaderCrash: acked writes survive the leader's
// death, a new leader takes over under a higher epoch within the
// failover bound, writes resume, and the restarted ex-leader rejoins
// as a fenced follower that redirects writes to the new leader.
func TestClusterFailoverOnLeaderCrash(t *testing.T) {
	t.Parallel()
	members := startCluster(t, 3, testLease)
	leader := waitLeader(t, members, 20*testLease)
	st0, err := leader.status()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	c := leader.client()
	var acked []string
	for i := 0; i < 8; i++ {
		fact := fmt.Sprintf("w(a%d)", i)
		if _, err := c.Transact(ctx, "+"+fact+"."); err != nil {
			t.Fatalf("write %d on leader: %v", i, err)
		}
		acked = append(acked, fact)
	}

	leader.crash()
	var survivors []*clusterMember
	for _, m := range members {
		if m != leader {
			survivors = append(survivors, m)
		}
	}
	next := waitLeader(t, survivors, 20*testLease)
	if next == leader {
		t.Fatal("dead leader re-elected")
	}
	nst, err := next.status()
	if err != nil {
		t.Fatal(err)
	}
	if nst.Epoch <= st0.Epoch {
		t.Fatalf("new leader epoch %d, want > deposed epoch %d", nst.Epoch, st0.Epoch)
	}

	// Every acknowledged write is on the new leader: acked means
	// replicated to a majority, and any electable candidate's prefix
	// includes every majority-acknowledged write.
	db, err := next.client().Database(ctx)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range db {
		have[f] = true
	}
	for _, f := range acked {
		if !have[f] {
			t.Fatalf("acked write %s lost across failover (new leader db: %v)", f, db)
		}
	}

	// Writes resume on the new leader.
	if _, err := next.client().Transact(ctx, "+w(after)."); err != nil {
		t.Fatalf("write after failover: %v", err)
	}

	// The restarted ex-leader rejoins as a follower and redirects
	// writes to the new leader.
	if err := leader.restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * testLease)
	for {
		st, err := leader.status()
		if err == nil && st.Role == "follower" && st.LeaderID == next.id && st.Epoch >= nst.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted ex-leader never rejoined as follower of %s (status %+v, err %v)",
				next.id, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, err = leader.client().Transact(ctx, "+w(fenced).")
	if err == nil || !strings.Contains(err.Error(), "HTTP 421") {
		t.Fatalf("write on rejoined ex-leader = %v, want HTTP 421 redirect", err)
	}
	if !strings.Contains(err.Error(), next.url) {
		t.Fatalf("421 error %q does not name the new leader %s", err, next.url)
	}
}

// TestClusterMinorityCannotElect: with a majority of the member set
// down, the surviving minority must refuse to elect (its writes would
// be unreplicatable); service resumes once a majority is back.
func TestClusterMinorityCannotElect(t *testing.T) {
	for _, tc := range []struct {
		size, kill int
	}{
		{size: 3, kill: 2},
		{size: 5, kill: 3},
	} {
		t.Run(fmt.Sprintf("size=%d", tc.size), func(t *testing.T) {
			t.Parallel()
			members := startCluster(t, tc.size, testLease)
			leader := waitLeader(t, members, 20*testLease)

			// Kill the leader plus enough followers to leave a minority.
			killed := []*clusterMember{leader}
			for _, m := range members {
				if len(killed) == tc.kill {
					break
				}
				if m != leader {
					killed = append(killed, m)
				}
			}
			for _, m := range killed {
				m.crash()
			}
			var survivors []*clusterMember
			for _, m := range members {
				if m.reachable() {
					survivors = append(survivors, m)
				}
			}

			// Across many leases, no survivor may claim leadership.
			until := time.Now().Add(8 * testLease)
			for time.Now().Before(until) {
				for _, m := range survivors {
					if st, err := m.status(); err == nil && st.Role == "leader" {
						t.Fatalf("minority member %s elected itself leader (%+v)", m.id, st)
					}
				}
				time.Sleep(testLease / 4)
			}
			// Writes on a survivor fail retryably (503: no leader).
			_, err := survivors[0].client().Transact(context.Background(), "+m(x).")
			if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
				t.Fatalf("leaderless write = %v, want HTTP 503", err)
			}

			// Restoring one member restores the majority and a leader.
			if err := killed[1].restart(); err != nil {
				t.Fatal(err)
			}
			alive := append(append([]*clusterMember{}, survivors...), killed[1])
			waitLeader(t, alive, 30*testLease)
		})
	}
}

// TestClusterManualPromotionDeposesLeader: a forced promotion on a
// healthy follower must raise the epoch, and the old leader must
// notice and demote itself without being killed.
func TestClusterManualPromotionDeposesLeader(t *testing.T) {
	t.Parallel()
	members := startCluster(t, 3, testLease)
	leader := waitLeader(t, members, 20*testLease)
	var target *clusterMember
	for _, m := range members {
		if m != leader {
			target = m
			break
		}
	}
	st0, err := leader.status()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(target.url+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var promoted repl.StatusInfo
	if err := json.NewDecoder(resp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote on %s: HTTP %d (%+v)", target.id, resp.StatusCode, promoted)
	}
	if promoted.Role != "leader" || promoted.Epoch <= st0.Epoch {
		t.Fatalf("promotion result %+v, want leader above epoch %d", promoted, st0.Epoch)
	}

	// The deposed leader sees the higher epoch and steps down.
	deadline := time.Now().Add(20 * testLease)
	for {
		st, err := leader.status()
		if err == nil && st.Role == "follower" && st.LeaderID == target.id {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old leader %s never demoted (status %+v, err %v)", leader.id, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And it redirects writes to the new leader.
	_, err = leader.client().Transact(context.Background(), "+d(x).")
	if err == nil || !strings.Contains(err.Error(), "HTTP 421") {
		t.Fatalf("write on deposed leader = %v, want HTTP 421", err)
	}
}

// TestClusterEventJournalAndAggregatedStatus: an election round lands
// its lifecycle events in the members' journals — campaign-won on the
// winner, leader-demoted on the deposed leader, a vote grant
// somewhere in the set — and /v1/cluster on every member reports the
// same leader with full agreement.
func TestClusterEventJournalAndAggregatedStatus(t *testing.T) {
	t.Parallel()
	members := startCluster(t, 3, testLease)
	leader := waitLeader(t, members, 20*testLease)
	ctx := context.Background()

	// The first winner's journal already has its campaign and win.
	evs, err := leader.client().Events(ctx, 0, []string{"campaign-started", "campaign-won"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	won := false
	for _, e := range evs.Events {
		if e.Type == events.CampaignWon {
			if e.NodeID != leader.id || e.Epoch <= 0 {
				t.Fatalf("campaign-won event %+v, want nodeId %s and a positive epoch", e, leader.id)
			}
			won = true
		}
	}
	if !won {
		t.Fatalf("leader %s's journal has no campaign-won event (%+v)", leader.id, evs.Events)
	}

	// Force a failover without killing anyone: promote a follower and
	// let the old leader demote itself on seeing the higher epoch.
	var target *clusterMember
	for _, m := range members {
		if m != leader {
			target = m
			break
		}
	}
	resp, err := http.Post(target.url+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted repl.StatusInfo
	err = json.NewDecoder(resp.Body).Decode(&promoted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promote on %s: HTTP %d, err %v", target.id, resp.StatusCode, err)
	}
	deadline := time.Now().Add(20 * testLease)
	for {
		st, err := leader.status()
		if err == nil && st.Role == "follower" && st.LeaderID == target.id {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old leader %s never demoted (status %+v, err %v)", leader.id, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The new leader's journal has the win at the promoted epoch, the
	// deposed leader's has its demotion naming the successor.
	evs, err = target.client().Events(ctx, 0, []string{"campaign-won"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	won = false
	for _, e := range evs.Events {
		if e.Type == events.CampaignWon && e.Epoch == promoted.Epoch {
			won = true
		}
	}
	if !won {
		t.Fatalf("promoted leader %s's journal has no campaign-won at epoch %d (%+v)",
			target.id, promoted.Epoch, evs.Events)
	}
	evs, err = leader.client().Events(ctx, 0, []string{"leader-demoted"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs.Events) == 0 {
		t.Fatalf("deposed leader %s's journal has no leader-demoted event", leader.id)
	}
	// The successor is named when the demotion came from the peer poll;
	// a demotion triggered by a follower's ack (which only carries the
	// higher epoch, not who won it) legitimately leaves Peer empty.
	if got := evs.Events[len(evs.Events)-1].Peer; got != target.id && got != "" {
		t.Fatalf("leader-demoted names successor %q, want %q or unknown", got, target.id)
	}

	// A majority win means at least one member granted a vote (the
	// candidate's own is a fence-raised, a peer's is vote-granted).
	granted := false
	for _, m := range members {
		evs, err := m.client().Events(ctx, 0, []string{"vote-granted"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs.Events) > 0 {
			granted = true
		}
	}
	if !granted {
		t.Fatal("no member's journal records a granted vote")
	}

	// Aggregated status: every member's /v1/cluster converges on the
	// new leader, full agreement, nobody unreachable.
	for _, m := range members {
		deadline := time.Now().Add(20 * testLease)
		for {
			cs, err := m.client().ClusterStatus(ctx)
			if err == nil && cs.LeaderAgreement && cs.LeaderID == target.id && !cs.Partial {
				if cs.ReportedBy != m.id || len(cs.Members) != 3 {
					t.Fatalf("cluster status from %s: %+v", m.id, cs)
				}
				for _, row := range cs.Members {
					if !row.Reachable {
						t.Fatalf("cluster status from %s marks %s unreachable: %+v", m.id, row.ID, cs)
					}
				}
				if cs.MaxEpoch < promoted.Epoch {
					t.Fatalf("cluster status from %s reports maxEpoch %d, want >= %d", m.id, cs.MaxEpoch, promoted.Epoch)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("member %s's /v1/cluster never agreed on leader %s (last %+v, err %v)",
					m.id, target.id, cs, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Incremental polling: a cursor at lastSeq sees nothing new and
	// misses nothing.
	last, err := target.client().Events(ctx, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := target.client().Events(ctx, last.LastSeq, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Missed != 0 {
		t.Fatalf("cursor at lastSeq %d missed %d events", last.LastSeq, tail.Missed)
	}
	for _, e := range tail.Events {
		// Anything new must be strictly after the cursor.
		if e.Seq <= last.LastSeq {
			t.Fatalf("cursor at %d returned event with seq %d", last.LastSeq, e.Seq)
		}
	}
}

// TestNonLeaderStreamNeverNamesItself proves a member that does not
// lead, but still serves its replication stream, names the leader it
// follows in the stream's heartbeats, never itself. Knowing no leader,
// it names no one, so a member downstream cannot renew a lease for it.
func TestNonLeaderStreamNeverNamesItself(t *testing.T) {
	store := openStore(t)
	f := repl.NewFollower(store, "")
	node, err := repl.NewNode(store, f, repl.NodeConfig{
		ID: "a", SelfURL: "http://a", Peers: map[string]string{"b": "http://b"}, Lease: testLease,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewClusterMember(store, f, node).Handler())
	t.Cleanup(ts.Close) // after the follower below stops streaming
	down := fastFollower(openStore(t), ts.URL)
	runFollower(t, down)
	waitFor(t, 5*time.Second, "the first heartbeat", func() bool {
		return !down.Status().LastFrame.IsZero()
	})
	if id := down.Status().LeaderID; id != "" {
		t.Fatalf("a member that leads no one sent heartbeats naming %q", id)
	}
}

// defaultFailoverSeed is the first schedule's seed when
// PARK_FAILOVER_SEED is unset.
const defaultFailoverSeed int64 = 1792072353587602137

// TestRandomFailoverSchedules is the randomized leader-crash/partition
// extension of the persist fault harness (see the package comment at
// the top of this file for the knobs).
func TestRandomFailoverSchedules(t *testing.T) {
	schedules := 6
	if testing.Short() {
		schedules = 2
	}
	baseSeed := defaultFailoverSeed
	if v := os.Getenv("PARK_FAILOVER_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad PARK_FAILOVER_SEED %q", v)
		}
		baseSeed = n
		schedules = 1
	}
	if v := os.Getenv("PARK_FAILOVER_SCHEDULES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad PARK_FAILOVER_SCHEDULES %q", v)
		}
		schedules = n
	}
	t.Logf("failover harness: %d schedule(s), base seed %d; replay with PARK_FAILOVER_SEED=<seed>", schedules, baseSeed)
	for i := 0; i < schedules; i++ {
		seed := baseSeed + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runFailoverSchedule(t, seed)
		})
	}
}

// runFailoverSchedule executes one seeded schedule: writers chase the
// live leader while the disruptor crashes or partitions members, then
// everything heals and the safety invariants are checked.
func runFailoverSchedule(t *testing.T, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	members := startCluster(t, 3, testLease)
	waitLeader(t, members, 20*testLease)
	ctx := context.Background()

	// currentLeader finds the leader by asking reachable members, the
	// way a real client re-discovers it.
	currentLeader := func() *clusterMember {
		for _, m := range members {
			if !m.reachable() {
				continue
			}
			st, err := m.status()
			if err != nil || st.LeaderURL == "" {
				continue
			}
			for _, cand := range members {
				if cand.url == st.LeaderURL && cand.reachable() {
					return cand
				}
			}
		}
		return nil
	}

	// Writers: each op targets the leader of the moment; a 200 means
	// the write is acknowledged and must survive everything below.
	const writers = 2
	const opsPerWriter = 15
	var ackedMu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-writer rng: the shared one is not goroutine-safe.
			wrnd := rand.New(rand.NewSource(seed ^ int64(w+1)))
			for op := 0; op < opsPerWriter; op++ {
				time.Sleep(time.Duration(wrnd.Int63n(int64(testLease / 4))))
				m := currentLeader()
				if m == nil {
					continue // mid-election; the op is simply not acked
				}
				fact := fmt.Sprintf("f(w%dn%d)", w, op)
				if _, err := m.client().Transact(ctx, "+"+fact+"."); err == nil {
					ackedMu.Lock()
					acked = append(acked, fact)
					ackedMu.Unlock()
				}
			}
		}(w)
	}

	// The disruptor: a few rounds of crash/partition against random
	// members — the leader is the preferred victim — with heals in
	// between. It never takes down two members at once, so a majority
	// always exists and progress resumes.
	disruptions := 2 + rnd.Intn(2)
	for d := 0; d < disruptions; d++ {
		time.Sleep(time.Duration(rnd.Int63n(int64(2 * testLease))))
		victim := members[rnd.Intn(len(members))]
		if l := currentLeader(); l != nil && rnd.Intn(3) > 0 {
			victim = l // 2/3 of disruptions hit the leader
		}
		if !victim.reachable() {
			continue
		}
		if rnd.Intn(2) == 0 {
			victim.crash()
			time.Sleep(time.Duration(int64(2*testLease) + rnd.Int63n(int64(2*testLease))))
			if err := victim.restart(); err != nil {
				t.Fatalf("[seed %d] restart %s: %v", seed, victim.id, err)
			}
		} else {
			victim.partition()
			time.Sleep(time.Duration(int64(2*testLease) + rnd.Int63n(int64(2*testLease))))
			if err := victim.healPartition(); err != nil {
				t.Fatalf("[seed %d] heal %s: %v", seed, victim.id, err)
			}
		}
	}
	wg.Wait()

	// Heal: everyone reachable, a leader elected, one last write so
	// the cluster proves liveness.
	for _, m := range members {
		if m.reachable() {
			continue
		}
		m.mu.Lock()
		part := m.partitioned
		m.mu.Unlock()
		if part {
			if err := m.healPartition(); err != nil {
				t.Fatalf("[seed %d] final heal %s: %v", seed, m.id, err)
			}
		} else if err := m.restart(); err != nil {
			t.Fatalf("[seed %d] final restart %s: %v", seed, m.id, err)
		}
	}
	final := waitLeader(t, members, 40*testLease)
	if _, err := final.client().Transact(ctx, "+final(ok)."); err != nil {
		t.Fatalf("[seed %d] write after heal: %v", seed, err)
	}

	// Convergence: every member reaches the final leader's applied
	// sequence with the identical database — a fenced write surviving
	// anywhere would show up as divergence here.
	fst, err := final.status()
	if err != nil {
		t.Fatalf("[seed %d] final leader status: %v", seed, err)
	}
	leaderDB, err := final.client().Database(ctx)
	if err != nil {
		t.Fatalf("[seed %d] final leader db: %v", seed, err)
	}
	for _, m := range members {
		deadline := time.Now().Add(40 * testLease)
		for {
			st, err := m.status()
			if err == nil && st.AppliedSeq >= fst.AppliedSeq && st.Epoch == fst.Epoch {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("[seed %d] member %s never converged (status %+v, err %v; leader %+v)",
					seed, m.id, st, err, fst)
			}
			time.Sleep(10 * time.Millisecond)
		}
		db, err := m.client().Database(ctx)
		if err != nil {
			t.Fatalf("[seed %d] member %s db: %v", seed, m.id, err)
		}
		if got, want := strings.Join(db, " "), strings.Join(leaderDB, " "); got != want {
			t.Fatalf("[seed %d] member %s diverged from leader %s:\n  member: {%s}\n  leader: {%s}",
				seed, m.id, final.id, got, want)
		}
	}
	// No acked write lost: every 200-acknowledged fact is in the
	// converged database.
	have := map[string]bool{}
	for _, f := range leaderDB {
		have[f] = true
	}
	ackedMu.Lock()
	defer ackedMu.Unlock()
	for _, f := range acked {
		if !have[f] {
			t.Fatalf("[seed %d] acked write %s lost (converged db: %v)", seed, f, leaderDB)
		}
	}
}
