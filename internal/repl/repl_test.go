package repl_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/server"
)

// openStore opens a store in a fresh temp dir.
func openStore(t *testing.T) *persist.Store {
	t.Helper()
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// apply commits one update-set transaction on the store.
func apply(t *testing.T, store *persist.Store, updates string) {
	t.Helper()
	ups, err := parser.ParseUpdates(store.Universe(), "test", updates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply(context.Background(), &core.Program{}, ups, nil, core.Options{}); err != nil {
		t.Fatal(err)
	}
}

// facts renders a store's database as a sorted comma-joined string.
func facts(store *persist.Store) string {
	u, db := store.Universe(), store.Snapshot()
	ids := append([]core.AID(nil), db.Atoms()...)
	u.SortAtoms(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = u.AtomString(id)
	}
	return strings.Join(parts, ", ")
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fastFollower builds a follower tuned for tests: tight backoff so
// reconnect storms finish within the test timeout.
func fastFollower(store *persist.Store, leaderURL string) *repl.Follower {
	return repl.NewFollower(store, leaderURL,
		repl.WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		repl.WithStaleAfter(2*time.Second),
		repl.WithSyncEvery(4),
	)
}

// runFollower starts f.Run and returns a cancel that waits for exit.
// The cancel also runs in t.Cleanup. Tests close their httptest
// servers in t.Cleanup registered before this one, so the follower
// stops first and Close does not wait on its open stream.
func runFollower(t *testing.T, f *repl.Follower) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

func TestFollowerConvergesAndStaysLive(t *testing.T) {
	leaderStore := openStore(t)
	ts := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 5; i++ {
		apply(t, leaderStore, fmt.Sprintf("+p(a%d).", i))
	}

	followerStore := openStore(t)
	f := fastFollower(followerStore, ts.URL)
	runFollower(t, f)

	waitFor(t, 5*time.Second, "initial catch-up", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})
	if facts(followerStore) != facts(leaderStore) {
		t.Fatalf("follower = %q, leader = %q", facts(followerStore), facts(leaderStore))
	}

	// Live tail: new commits stream through without reconnecting.
	apply(t, leaderStore, "+p(live). -p(a0).")
	waitFor(t, 5*time.Second, "live commit", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})
	if facts(followerStore) != facts(leaderStore) {
		t.Fatalf("after live commit: follower = %q, leader = %q", facts(followerStore), facts(leaderStore))
	}
	st := f.Status()
	if !st.Connected || st.LagSeq() != 0 {
		t.Fatalf("status = %+v, want connected with zero lag", st)
	}
}

// TestFollowerSnapshotBootstrap pins the out-of-window path: a
// follower whose sequence predates the leader's checkpoint cannot be
// served from history and must bootstrap from the snapshot.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	leaderStore := openStore(t)
	ts := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 4; i++ {
		apply(t, leaderStore, fmt.Sprintf("+q(b%d).", i))
	}
	// Checkpoint truncates the WAL: history before seq 4 is gone.
	if err := leaderStore.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(t, leaderStore, "+q(tail).")

	followerStore := openStore(t)
	f := fastFollower(followerStore, ts.URL)
	runFollower(t, f)
	waitFor(t, 5*time.Second, "snapshot bootstrap", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})
	if facts(followerStore) != facts(leaderStore) {
		t.Fatalf("follower = %q, leader = %q", facts(followerStore), facts(leaderStore))
	}
	if st := f.Status(); st.SnapshotLoads == 0 {
		t.Fatalf("status = %+v, want at least one snapshot load", st)
	}
}

// TestFollowerBehindTailCatchesUpFromWAL: a follower that falls
// further behind than the leader's in-memory history tail resumes from
// the leader's WAL, not from a snapshot.
func TestFollowerBehindTailCatchesUpFromWAL(t *testing.T) {
	leaderStore := openStore(t)
	ts := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 3; i++ {
		apply(t, leaderStore, fmt.Sprintf("+u(e%d).", i))
	}
	followerStore := openStore(t)
	reg := metrics.NewRegistry()
	loads := reg.Counter("park_repl_follower_snapshot_loads_total", "")
	f := fastFollower(followerStore, ts.URL)
	f.Instrument(reg)
	stop := runFollower(t, f)
	waitFor(t, 5*time.Second, "initial catch-up", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})
	stop()
	bootstrap := loads.Value()

	// Commit until the leader's tail no longer reaches back to the
	// follower. ApplyReplicatedFrom skips the engine and the fsync.
	behind := followerStore.Seq()
	for leaderStore.Growth().HistoryRecords >= leaderStore.Seq()-behind {
		seq := leaderStore.Seq() + 1
		txn := persist.TxnRecord{Seq: seq, Added: []string{fmt.Sprintf("u(e%d)", seq)}, Removed: []string{fmt.Sprintf("u(e%d)", seq-2)}}
		if err := leaderStore.ApplyReplicatedFrom(txn, 0); err != nil {
			t.Fatal(err)
		}
	}

	f2 := fastFollower(followerStore, ts.URL)
	f2.Instrument(reg)
	runFollower(t, f2)
	waitFor(t, 10*time.Second, "catch-up from the WAL", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})
	if facts(followerStore) != facts(leaderStore) {
		t.Fatalf("follower = %q, leader = %q", facts(followerStore), facts(leaderStore))
	}
	if got := loads.Value(); got != bootstrap {
		t.Fatalf("snapshot loads = %d, want %d as at bootstrap: the follower was not served from the WAL", got, bootstrap)
	}
}

// chokeProxy forwards bytes from the leader to the client but severs
// each connection after a byte budget, cutting the stream at
// arbitrary byte (hence frame) boundaries.
type chokeProxy struct {
	target string
	mu     sync.Mutex
	budget int64
	conns  int
}

func (p *chokeProxy) setBudget(n int64) {
	p.mu.Lock()
	p.budget = n
	p.mu.Unlock()
}

func (p *chokeProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	budget := p.budget
	p.conns++
	p.mu.Unlock()
	// The upstream request carries the client's context, so the
	// upstream stream ends when the client hangs up.
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.target+r.URL.Path+"?"+r.URL.RawQuery, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.WriteHeader(resp.StatusCode)
	flusher := w.(http.Flusher)
	buf := make([]byte, 113) // odd size so cuts land mid-frame
	var sent int64
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if budget > 0 && sent+int64(n) > budget {
				n = int(budget - sent)
			}
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				flusher.Flush()
				sent += int64(n)
			}
			if budget > 0 && sent >= budget {
				return // sever mid-stream
			}
		}
		if err != nil {
			return
		}
	}
}

// TestFollowerTornStreamResume kills the stream at arbitrary byte
// boundaries, over and over, and asserts the follower still converges
// exactly — the satellite mirror of the WAL's crash-during-commit
// test, at the wire layer.
func TestFollowerTornStreamResume(t *testing.T) {
	leaderStore := openStore(t)
	leader := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(leader.Close)
	for i := 0; i < 20; i++ {
		apply(t, leaderStore, fmt.Sprintf("+r(c%d).", i))
	}

	proxy := &chokeProxy{target: leader.URL, budget: 97}
	proxied := httptest.NewServer(proxy)
	t.Cleanup(proxied.Close)

	followerStore := openStore(t)
	f := fastFollower(followerStore, proxied.URL)
	runFollower(t, f)

	// Grow the budget slowly so many reconnects cut at different
	// offsets before the follower is allowed to finish.
	for budget := int64(97); budget < 4000; budget += 211 {
		proxy.setBudget(budget)
		time.Sleep(10 * time.Millisecond)
	}
	proxy.setBudget(0) // unlimited
	waitFor(t, 10*time.Second, "torn-stream catch-up", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})
	if facts(followerStore) != facts(leaderStore) {
		t.Fatalf("follower = %q, leader = %q", facts(followerStore), facts(leaderStore))
	}
	proxy.mu.Lock()
	conns := proxy.conns
	proxy.mu.Unlock()
	if conns < 2 {
		t.Fatalf("proxy saw %d connections; the stream was never torn", conns)
	}
}

// TestFollowerRestartMidCatchUp stops the follower partway through
// replication (simulating a crash), reopens its store from disk, and
// asserts a fresh follower resumes from the durable sequence and
// catches up exactly.
func TestFollowerRestartMidCatchUp(t *testing.T) {
	leaderStore := openStore(t)
	ts := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 30; i++ {
		apply(t, leaderStore, fmt.Sprintf("+s(d%d).", i))
	}

	dir := t.TempDir()
	followerStore, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fastFollower(followerStore, ts.URL)
	stop := runFollower(t, f)
	// Kill mid-catch-up: anywhere in (0, 30) exercises a partial
	// apply; losing the race (already done) still checks resume.
	waitFor(t, 5*time.Second, "some progress", func() bool { return followerStore.Seq() > 0 })
	stop()
	if err := followerStore.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	f2 := fastFollower(reopened, ts.URL)
	runFollower(t, f2)
	waitFor(t, 5*time.Second, "post-restart catch-up", func() bool {
		return reopened.Seq() == leaderStore.Seq()
	})
	if facts(reopened) != facts(leaderStore) {
		t.Fatalf("follower = %q, leader = %q", facts(reopened), facts(leaderStore))
	}
}

// TestFollowerSurvivesLeaderRestart restarts the leader process (same
// store directory, same address) under a running follower and asserts
// the follower reconnects and converges without intervention.
func TestFollowerSurvivesLeaderRestart(t *testing.T) {
	leaderDir := t.TempDir()
	leaderStore, err := persist.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: server.New(leaderStore).Handler()}
	go hs.Serve(ln)
	apply(t, leaderStore, "+t(e1). +t(e2).")

	followerStore := openStore(t)
	f := fastFollower(followerStore, "http://"+addr)
	runFollower(t, f)
	waitFor(t, 5*time.Second, "pre-restart catch-up", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})

	// Leader goes down hard (streams cut), then comes back on the
	// same address with the same durable state.
	hs.Close()
	if err := leaderStore.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := persist.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	hs2 := &http.Server{Handler: server.New(reopened).Handler()}
	defer hs2.Close()
	go hs2.Serve(ln2)
	apply(t, reopened, "+t(after_restart).")

	waitFor(t, 10*time.Second, "post-restart catch-up", func() bool {
		return followerStore.Seq() == reopened.Seq()
	})
	if facts(followerStore) != facts(reopened) {
		t.Fatalf("follower = %q, leader = %q", facts(followerStore), facts(reopened))
	}
	if st := f.Status(); st.Reconnects == 0 {
		t.Fatalf("status = %+v, want at least one reconnect", st)
	}
}

// TestReplicaServerEndToEnd wires the full read-replica stack: leader
// server, follower replicating into a replica server, reads answered
// locally (including time travel), writes rejected with 421.
func TestReplicaServerEndToEnd(t *testing.T) {
	leaderStore := openStore(t)
	leader := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(leader.Close)
	apply(t, leaderStore, "+u(f1).")
	apply(t, leaderStore, "+u(f2).")

	replicaStore := openStore(t)
	f := fastFollower(replicaStore, leader.URL)
	replica := httptest.NewServer(server.NewReplica(replicaStore, f, leader.URL).Handler())
	t.Cleanup(replica.Close)
	runFollower(t, f)

	c := &server.Client{BaseURL: replica.URL}
	ctx := context.Background()
	waitFor(t, 5*time.Second, "replica catch-up", func() bool {
		return replicaStore.Seq() == leaderStore.Seq()
	})
	db, err := c.Database(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(db, ", ") != facts(leaderStore) {
		t.Fatalf("replica database = %v, leader = %q", db, facts(leaderStore))
	}
	// Sequentially consistent time travel on the replica.
	at1, err := c.DatabaseAt(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(at1, ", ") != "u(f1)" {
		t.Fatalf("replica ?at=1 = %v, want [u(f1)]", at1)
	}
	// Writes are misdirected.
	if _, err := c.Transact(ctx, "+u(f3)."); err == nil || !strings.Contains(err.Error(), "HTTP 421") {
		t.Fatalf("replica write = %v, want HTTP 421", err)
	}
	// Replication metrics come out of /v1/metrics with zero lag.
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "park_repl_follower_lag_seq ") {
			found = true
			if !strings.HasSuffix(line, " 0") {
				t.Fatalf("lag metric = %q, want 0", line)
			}
		}
	}
	if !found {
		t.Fatal("park_repl_follower_lag_seq missing from /v1/metrics")
	}
}

// TestChainedReplicas pins that a follower's store re-notifies
// replicated commits, so a second-tier follower can replicate from a
// first-tier one.
func TestChainedReplicas(t *testing.T) {
	leaderStore := openStore(t)
	leader := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(leader.Close)

	midStore := openStore(t)
	fMid := fastFollower(midStore, leader.URL)
	mid := httptest.NewServer(server.NewReplica(midStore, fMid, leader.URL).Handler())
	t.Cleanup(mid.Close)
	runFollower(t, fMid)

	tipStore := openStore(t)
	fTip := fastFollower(tipStore, mid.URL)
	runFollower(t, fTip)

	for i := 0; i < 5; i++ {
		apply(t, leaderStore, fmt.Sprintf("+v(g%d).", i))
	}
	waitFor(t, 10*time.Second, "tier-2 catch-up", func() bool {
		return tipStore.Seq() == leaderStore.Seq()
	})
	if facts(tipStore) != facts(leaderStore) {
		t.Fatalf("tip = %q, leader = %q", facts(tipStore), facts(leaderStore))
	}
}

// TestLeaderRejectsBadFrom pins stream-parameter validation.
func TestLeaderRejectsBadFrom(t *testing.T) {
	leaderStore := openStore(t)
	ts := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(ts.Close)
	for _, q := range []string{"from=x", "from=-1"} {
		resp, err := http.Get(ts.URL + "/v1/repl/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestTracePropagation checks the flight-recorder fields ride the
// stream: the follower's history keeps the leader's trace IDs, and its
// flight ring serves the leader-evaluated traces (origin "leader").
func TestTracePropagation(t *testing.T) {
	leaderStore := openStore(t)
	ts := httptest.NewServer(server.New(leaderStore).Handler())
	t.Cleanup(ts.Close)

	ctx := flight.WithTraceID(context.Background(), "req-42")
	ups, err := parser.ParseUpdates(leaderStore.Universe(), "test", "+p(a).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderStore.Apply(ctx, &core.Program{}, ups, nil, core.Options{}); err != nil {
		t.Fatal(err)
	}
	apply(t, leaderStore, "+p(b).") // no trace ID on this one

	followerStore := openStore(t)
	f := fastFollower(followerStore, ts.URL)
	runFollower(t, f)
	waitFor(t, 5*time.Second, "catch-up", func() bool {
		return followerStore.Seq() == leaderStore.Seq()
	})

	hist, err := followerStore.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].TraceID != "req-42" || hist[1].TraceID != "" {
		t.Fatalf("follower history trace IDs wrong: %+v", hist)
	}
	tr := followerStore.Flight().Get(hist[0].Seq)
	if tr == nil {
		t.Fatal("follower has no flight trace for the replicated transaction")
	}
	if tr.TraceID != "req-42" || tr.Origin != "leader" {
		t.Fatalf("follower trace = %+v; want traceId req-42, origin leader", tr)
	}
	// The leader's own copy stays marked local.
	if lt := leaderStore.Flight().Get(hist[0].Seq); lt == nil || lt.Origin != "local" {
		t.Fatalf("leader trace = %+v; want origin local", lt)
	}
}
