package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestSetupWithRuleProgram(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "rules.park")
	if err := os.WriteFile(prog, []byte(`p(X) -> +q(X).`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, store, _, err := setup(config{dir: filepath.Join(dir, "data"), program: prog, strategy: "priority"})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &server.Client{BaseURL: ts.URL}
	resp, err := c.Program(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rules != 1 || resp.Strategy != "priority" {
		t.Fatalf("program = %+v", resp)
	}
	tx, err := c.Transact(context.Background(), `+p(a).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Added) != 2 || len(tx.Removed) != 0 || tx.Seq != 1 {
		t.Fatalf("txn %d: +%v -%v, want seq 1 adding p(a) and q(a)", tx.Seq, tx.Added, tx.Removed)
	}
	facts, err := c.Database(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 2 {
		t.Fatalf("database = %v", facts)
	}
}

func TestSetupWithTriggerProgram(t *testing.T) {
	dir := t.TempDir()
	ddl := filepath.Join(dir, "ddl.sql")
	if err := os.WriteFile(ddl, []byte(`CREATE RULE r WHEN p(X) DO INSERT q(X);`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, store, _, err := setup(config{dir: filepath.Join(dir, "data"), triggers: ddl})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_ = srv
}

func TestBuildHandlerPprofGating(t *testing.T) {
	srv, store, _, err := setup(config{dir: filepath.Join(t.TempDir(), "data")})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	get := func(h http.Handler, path string) int {
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	without := buildHandler(srv, false)
	with := buildHandler(srv, true)
	if code := get(without, "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof disabled: /debug/pprof/ = %d, want 404", code)
	}
	if code := get(with, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof enabled: /debug/pprof/ = %d, want 200", code)
	}
	// The API (including /v1/metrics) is mounted either way.
	if code := get(without, "/v1/metrics"); code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d, want 200", code)
	}
	if code := get(with, "/v1/metrics"); code != http.StatusOK {
		t.Fatalf("/v1/metrics (pprof build) = %d, want 200", code)
	}
}

func TestNewHTTPServerTimeouts(t *testing.T) {
	cfg := config{
		readTimeout:  7 * time.Second,
		writeTimeout: 3 * time.Second,
		idleTimeout:  11 * time.Second,
	}
	hs := newHTTPServer(":0", http.NotFoundHandler(), cfg)
	if hs.ReadTimeout != 7*time.Second || hs.WriteTimeout != 3*time.Second ||
		hs.IdleTimeout != 11*time.Second || hs.ReadHeaderTimeout == 0 {
		t.Fatalf("server timeouts not applied: %+v", hs)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	cfg := config{shutdownTimeout: 5 * time.Second}
	hs := newHTTPServer("127.0.0.1:0", http.NotFoundHandler(), cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, hs, cfg) }()
	time.Sleep(50 * time.Millisecond) // let ListenAndServe bind
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after context cancellation")
	}
}

// TestShutdownRequestsGet503 pins the graceful-shutdown contract: a
// transaction racing the store close must get 503 Service Unavailable
// (the client should retry elsewhere), not a 422 "engine error", and
// must not be counted as an engine failure in the metrics.
func TestShutdownRequestsGet503(t *testing.T) {
	srv, store, _, err := setup(config{dir: filepath.Join(t.TempDir(), "data")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(buildHandler(srv, false))
	defer ts.Close()
	c := &server.Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := c.Transact(ctx, `+p(a).`); err != nil {
		t.Fatal(err)
	}

	// main closes the store after serve returns; requests on
	// still-open connections race that close.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.Transact(ctx, `+p(b).`)
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("transaction after close = %v, want HTTP 503", err)
	}
	if err := c.Checkpoint(ctx); err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("checkpoint after close = %v, want HTTP 503", err)
	}
	// Shutdown must not pollute the engine error counter.
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "park_engine_errors_total") && !strings.HasSuffix(line, " 0") {
			t.Fatalf("engine errors after shutdown = %q, want 0", line)
		}
	}
}

// TestSetupFollowerMode pins the replica-mode contract: state-shaping
// flags are rejected (the leader owns the state), and the resulting
// server refuses writes with 421 and a leader hint while still
// serving reads.
func TestSetupFollowerMode(t *testing.T) {
	dir := t.TempDir()
	leaderURL := "http://leader.example:7474"
	prog := filepath.Join(dir, "rules.park")
	os.WriteFile(prog, []byte(`p(X) -> +q(X).`), 0o644)
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d1"), follow: leaderURL, program: prog}); err == nil {
		t.Fatal("follower mode accepted -program")
	}
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d2"), follow: leaderURL, strategy: "priority"}); err == nil {
		t.Fatal("follower mode accepted -strategy")
	}
	srv, store, follower, err := setup(config{dir: filepath.Join(dir, "d3"), follow: leaderURL, strategy: "inertia"})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if follower == nil {
		t.Fatal("follower mode returned no follower")
	}
	ts := httptest.NewServer(buildHandler(srv, false))
	defer ts.Close()
	c := &server.Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := c.Transact(ctx, `+p(a).`); err == nil || !strings.Contains(err.Error(), "HTTP 421") {
		t.Fatalf("replica transaction = %v, want HTTP 421", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/transaction", "application/json", strings.NewReader(`{"updates":"+p(a)."}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Park-Leader"); got != leaderURL {
		t.Fatalf("X-Park-Leader = %q, want %q", got, leaderURL)
	}
	// Reads keep working locally.
	if _, err := c.Database(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MetricsText(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSetupClusterMode pins the replica-set contract: the three
// cluster flags are all-or-nothing, -follow is mutually exclusive
// with them, the peers roster parses id=url entries, and a valid
// config yields a server with a failover node that starts as a
// follower (so writes are refused until a leader exists).
func TestSetupClusterMode(t *testing.T) {
	dir := t.TempDir()
	peers := "b=http://b.example:7474, c=http://c.example:7474"
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d1"), nodeID: "a"}); err == nil {
		t.Fatal("-node-id without -advertise/-peers accepted")
	}
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d2"), nodeID: "a",
		advertise: "http://a.example:7474", peers: peers, follow: "http://x:1"}); err == nil {
		t.Fatal("-follow combined with replica-set flags accepted")
	}
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d3"), nodeID: "a",
		advertise: "http://a.example:7474", peers: "b=,c=http://c:1"}); err == nil {
		t.Fatal("malformed -peers entry accepted")
	}
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d4"), nodeID: "a",
		advertise: "http://a.example:7474", peers: "b=http://b:1,b=http://b2:1"}); err == nil {
		t.Fatal("duplicate peer id accepted")
	}
	srv, store, follower, err := setup(config{dir: filepath.Join(dir, "d5"), nodeID: "a",
		advertise: "http://a.example:7474", peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if follower != nil {
		t.Fatal("cluster mode returned a follower for main to run (the node owns it)")
	}
	node := srv.Node()
	if node == nil {
		t.Fatal("cluster mode produced no failover node")
	}
	if node.IsLeader() {
		t.Fatal("member starts as leader without an election")
	}
	if got := len(node.MemberIDs()); got != 3 {
		t.Fatalf("member count = %d, want 3", got)
	}
	// No leader yet: writes answer 503 (retryable — an election is
	// pending), not 421 (no leader URL to point at).
	ts := httptest.NewServer(buildHandler(srv, false))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/transaction", "application/json", strings.NewReader(`{"updates":"+p(a)."}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("write with no leader = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("leaderless 503 carries no Retry-After")
	}
}

func TestSetupErrors(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "x.park")
	os.WriteFile(f, []byte(`p -> +q.`), 0o644)
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d1"), program: f, triggers: f}); err == nil {
		t.Fatal("both program kinds accepted")
	}
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d2"), program: filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("missing program file accepted")
	}
	bad := filepath.Join(dir, "bad.park")
	os.WriteFile(bad, []byte(`p(X) -> +q(Y).`), 0o644)
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d3"), program: bad}); err == nil {
		t.Fatal("unsafe program accepted")
	}
	if _, _, _, err := setup(config{dir: filepath.Join(dir, "d4"), strategy: "bogus"}); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}
