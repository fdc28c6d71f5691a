// Command parkd serves a persistent PARK active database over HTTP.
//
// Usage:
//
//	parkd -dir ./data [-addr :7474] [-program rules.park | -triggers ddl.sql]
//	      [-strategy inertia] [-follow http://leader:7474] [-pprof]
//	      [-node-id a -advertise http://host:7474 -peers b=http://...,c=http://...]
//	      [-lease 3s] [-failpoints] [-probe-interval 3s]
//	      [-log-format text|json] [-log-level info]
//	      [-trace-buffer 64] [-slow-txn 250ms]
//	      [-read-timeout 30s] [-write-timeout 0]
//	      [-idle-timeout 2m] [-shutdown-timeout 10s]
//
// The store directory holds the snapshot and write-ahead log; state
// survives restarts. See internal/server for the JSON API and
// docs/OBSERVABILITY.md for the metrics (/v1/metrics) and profiling
// (-pprof) surfaces.
//
// parkd logs structured records (log/slog) to stderr: one access-log
// line per request carrying its X-Park-Trace-Id, plus commit, degrade
// and replication events from the store. -log-format selects the
// text or JSON rendering and -log-level the minimum severity
// (per-transaction commit records are logged at debug). The
// transaction flight recorder retains the last -trace-buffer traces
// (0 disables recording) plus any transaction slower than -slow-txn;
// fetch them with GET /v1/txns/{seq}/trace or `parkcli txn trace`.
// The -events journal retains the last N lifecycle events (elections,
// fence raises, degraded transitions, checkpoints, replication
// stalls) for GET /v1/events; per-rule profiling is served at
// GET /v1/rules/stats (`parkcli rules top`) and the aggregated
// replica-set view at GET /v1/cluster (`parkcli cluster status`).
// See docs/OBSERVABILITY.md.
//
// With -follow, parkd runs as a read-only replica of the leader at
// the given base URL: it bootstraps from the leader's snapshot,
// replays its committed transactions in order (resuming across
// restarts of either side), serves queries locally and answers write
// requests with 421 plus an X-Park-Leader hint. -program, -triggers
// and -strategy are rejected in follower mode — the replicated state
// is the leader's. See docs/REPLICATION.md and docs/OPERATIONS.md.
//
// With -node-id/-advertise/-peers, parkd runs as a member of a
// replica set with automatic failover: members elect a leader by
// lease-based election (highest applied sequence wins), the leader
// streams to the others, and if it dies the followers promote a new
// leader within roughly two lease durations. Writes to non-leaders
// answer 421 with the current leader's URL; every member serves
// reads. Deposed leaders are fenced by epoch and rejoin as followers.
// -lease tunes the failover detection window. Give all members the
// same -program so whichever is leader evaluates the same rules. See
// docs/REPLICATION.md and the failover runbook in docs/OPERATIONS.md.
//
// If the disk fails underneath the store (failed fsync, ENOSPC), parkd
// degrades to read-only instead of crashing: writes answer 503 with a
// Retry-After header while a background probe (-probe-interval)
// retests the disk, and /v1/healthz reports the state; reads, queries
// and replication streaming keep serving. -failpoints (drills and
// tests only) lets an operator inject such faults on a live process
// via /v1/debug/failpoint. See docs/OPERATIONS.md.
//
// parkd shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests get -shutdown-timeout to finish, and
// the store is closed (syncing the WAL) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/flight"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/server"
)

// config captures the daemon's startup parameters.
type config struct {
	dir      string
	program  string // rule-language program file
	triggers string // trigger-DDL program file
	strategy string
	follow   string // leader base URL; non-empty selects replica mode

	// Replica-set (automatic failover) mode: a non-empty nodeID selects
	// it. Every member runs with the same -peers roster; leadership is
	// decided by lease-based election, not by flags.
	nodeID    string
	advertise string        // this member's base URL as peers reach it
	peers     string        // comma list of id=url for the other members
	lease     time.Duration // leader lease duration (0 = repl.DefaultLease)

	pprof           bool
	eventBuf        int           // event-journal capacity (0 disables /v1/events)
	failpoints      bool          // expose /v1/debug/failpoint (fault drills)
	probeInterval   time.Duration // degraded-mode disk re-probe cadence
	traceBuffer     int           // flight-recorder window (traces; 0 disables)
	slowTxn         time.Duration // slow-transaction trace threshold (0 = store default)
	readTimeout     time.Duration
	writeTimeout    time.Duration
	idleTimeout     time.Duration
	shutdownTimeout time.Duration

	// logger receives the structured process log; nil (as in tests)
	// falls back to slog.Default().
	logger *slog.Logger
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// parsePeers decodes the -peers roster ("a=http://h:1,b=http://h:2")
// into an id → base-URL map.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("parkd: bad -peers entry %q (want id=url)", entry)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("parkd: duplicate peer id %q in -peers", id)
		}
		peers[id] = url
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("parkd: -peers lists no members")
	}
	return peers, nil
}

// setup opens the store and builds the configured server. The caller
// owns closing the returned store and, in follower mode, running the
// returned follower (nil otherwise). In replica-set mode the returned
// server's Node() coordinates failover and the caller runs it (the
// node manages the follower itself, so the returned follower is nil).
func setup(cfg config) (*server.Server, *persist.Store, *repl.Follower, error) {
	cluster := cfg.nodeID != "" || cfg.advertise != "" || cfg.peers != ""
	if cluster {
		if cfg.follow != "" {
			return nil, nil, nil, fmt.Errorf("parkd: -follow is incompatible with -node-id/-peers (a replica-set member discovers its leader by election; use one or the other)")
		}
		if cfg.nodeID == "" || cfg.advertise == "" || cfg.peers == "" {
			return nil, nil, nil, fmt.Errorf("parkd: replica-set mode needs all of -node-id, -advertise and -peers")
		}
	}
	if cfg.follow != "" {
		if cfg.program != "" || cfg.triggers != "" {
			return nil, nil, nil, fmt.Errorf("parkd: -follow is incompatible with -program/-triggers (replicas take their state from the leader)")
		}
		if cfg.strategy != "" && cfg.strategy != "inertia" {
			return nil, nil, nil, fmt.Errorf("parkd: -follow is incompatible with -strategy (replicas do not evaluate rules)")
		}
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.Default()
	}
	// The event journal collects lifecycle events (elections, fences,
	// degraded transitions, checkpoints, replication stalls) from every
	// layer and serves them over /v1/events. A nil journal is a no-op
	// at each emission site, so -events 0 simply disables the endpoint.
	var ev *events.Log
	if cfg.eventBuf != 0 {
		ev = events.NewLog(cfg.eventBuf)
		ev.SetNodeID(cfg.nodeID)
	}
	popts := []persist.Option{
		persist.WithSlog(logger),
		persist.WithTraceBuffer(cfg.traceBuffer),
		persist.WithEvents(ev),
	}
	if cfg.slowTxn != 0 {
		popts = append(popts, persist.WithSlowThreshold(cfg.slowTxn))
	}
	if cfg.probeInterval > 0 {
		popts = append(popts, persist.WithProbeInterval(cfg.probeInterval))
	}
	// -failpoints routes all store I/O through a fault-injection
	// filesystem controllable over /v1/debug/failpoint, for operator
	// drills and the replication smoke test. Off by default: faults can
	// only be injected when explicitly armed at startup.
	var ffs *persist.FaultFS
	if cfg.failpoints {
		ffs = persist.NewFaultFS(persist.OSFS())
		popts = append(popts, persist.WithFS(ffs))
	}
	store, err := persist.Open(cfg.dir, popts...)
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (*server.Server, *persist.Store, *repl.Follower, error) {
		store.Close()
		return nil, nil, nil, err
	}
	if cfg.follow != "" {
		follower := repl.NewFollower(store, cfg.follow, repl.WithLogger(logger), repl.WithEvents(ev))
		srv := server.NewReplica(store, follower, cfg.follow)
		srv.SetLogger(logger)
		if ev != nil {
			srv.SetEvents(ev)
		}
		if ffs != nil {
			srv.EnableFailpoints(ffs)
		}
		return srv, store, follower, nil
	}
	var srv *server.Server
	if cluster {
		peers, err := parsePeers(cfg.peers)
		if err != nil {
			return fail(err)
		}
		// The member starts with no known leader; the node's election
		// loop discovers or elects one and retargets the follower.
		follower := repl.NewFollower(store, "", repl.WithLogger(logger), repl.WithEvents(ev))
		node, err := repl.NewNode(store, follower, repl.NodeConfig{
			ID:      cfg.nodeID,
			SelfURL: cfg.advertise,
			Peers:   peers,
			Lease:   cfg.lease,
			Logger:  logger,
			Events:  ev,
		})
		if err != nil {
			return fail(err)
		}
		srv = server.NewClusterMember(store, follower, node)
	} else {
		srv = server.New(store)
	}
	srv.SetLogger(logger)
	if ev != nil {
		srv.SetEvents(ev)
	}
	if ffs != nil {
		srv.EnableFailpoints(ffs)
	}
	if cfg.program != "" && cfg.triggers != "" {
		return fail(fmt.Errorf("parkd: use only one of -program and -triggers"))
	}
	if cfg.program != "" {
		src, err := os.ReadFile(cfg.program)
		if err != nil {
			return fail(err)
		}
		if err := srv.SetProgram(string(src)); err != nil {
			return fail(fmt.Errorf("program: %w", err))
		}
	}
	if cfg.triggers != "" {
		src, err := os.ReadFile(cfg.triggers)
		if err != nil {
			return fail(err)
		}
		if err := srv.SetTriggerProgram(string(src)); err != nil {
			return fail(fmt.Errorf("triggers: %w", err))
		}
	}
	if cfg.strategy != "" {
		if err := srv.SetStrategy(cfg.strategy); err != nil {
			return fail(err)
		}
	}
	return srv, store, nil, nil
}

// buildHandler mounts the API handler and, when enabled, the
// net/http/pprof endpoints under /debug/pprof/.
func buildHandler(srv *server.Server, withPprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// newHTTPServer builds the http.Server with the configured timeouts.
// The write timeout defaults to 0 (disabled) because /v1/watch is a
// long-lived SSE stream; setting it bounds every response including
// watch streams.
func newHTTPServer(addr string, h http.Handler, cfg config) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadTimeout:       cfg.readTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
}

// serve runs the HTTP server until ctx is cancelled (or the listener
// fails), then shuts down gracefully within cfg.shutdownTimeout.
func serve(ctx context.Context, hs *http.Server, cfg config) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("parkd: shutting down (waiting up to %v for in-flight requests)", cfg.shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// Long-lived connections (e.g. /v1/watch streams) that outlive
		// the grace period are cut hard.
		hs.Close()
		return fmt.Errorf("parkd: forced shutdown: %w", err)
	}
	return nil
}

func main() {
	var cfg config
	addr := flag.String("addr", ":7474", "listen address")
	flag.StringVar(&cfg.dir, "dir", "", "store directory (required)")
	flag.StringVar(&cfg.program, "program", "", "rule program file to install at startup")
	flag.StringVar(&cfg.triggers, "triggers", "", "trigger-DDL program file to install at startup")
	flag.StringVar(&cfg.strategy, "strategy", "inertia", "default conflict resolution strategy")
	flag.StringVar(&cfg.follow, "follow", "", "leader base URL; run as a read-only replica of that node")
	flag.StringVar(&cfg.nodeID, "node-id", "", "replica-set member id; selects automatic-failover mode (requires -advertise and -peers)")
	flag.StringVar(&cfg.advertise, "advertise", "", "base URL peers use to reach this member (replica-set mode)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated id=url roster of the replica set's members (self may be included)")
	flag.DurationVar(&cfg.lease, "lease", 0, "leader lease duration in replica-set mode (0 uses the default, "+repl.DefaultLease.String()+")")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.IntVar(&cfg.eventBuf, "events", events.DefaultCap, "event-journal capacity: retain the last N lifecycle events for /v1/events (0 disables)")
	flag.BoolVar(&cfg.failpoints, "failpoints", false, "route store I/O through a fault-injection filesystem controllable via /v1/debug/failpoint (fault drills only)")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", 0, "disk re-probe interval while degraded to read-only (0 uses the store default)")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", flight.DefaultRecent, "flight-recorder window: retain traces of the last N transactions (0 disables recording)")
	flag.DurationVar(&cfg.slowTxn, "slow-txn", flight.DefaultSlowThreshold, "retain the trace of any transaction slower than this, beyond the -trace-buffer window")
	logFormat := flag.String("log-format", "text", "structured log rendering: text or json")
	logLevel := flag.String("log-level", "info", "minimum log severity: debug, info, warn or error (per-txn commit records log at debug)")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 30*time.Second, "max duration for reading a request (0 disables)")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 0, "max duration for writing a response (0 disables; >0 also bounds /v1/watch streams)")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	flag.Parse()
	if cfg.dir == "" {
		fmt.Fprintln(os.Stderr, "parkd: -dir is required")
		os.Exit(2)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parkd: %v\n", err)
		os.Exit(2)
	}
	cfg.logger = logger
	// Route the remaining log.Printf call sites through the same
	// structured handler.
	slog.SetDefault(logger)
	srv, store, follower, err := setup(cfg)
	if err != nil {
		log.Fatalf("parkd: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// In replica mode the follower replicates in the background for
	// the whole life of the process; it stops with the same signal
	// context that stops the HTTP server. In replica-set mode the
	// failover node owns the follower and runs it itself.
	replDone := make(chan struct{})
	if node := srv.Node(); node != nil {
		go func() {
			defer close(replDone)
			if err := node.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("parkd: cluster node stopped: %v", err)
			}
		}()
		log.Printf("parkd: replica-set member %s advertising %s (lease %v, members %v)",
			node.ID(), node.SelfURL(), node.Lease(), node.MemberIDs())
	} else if follower != nil {
		go func() {
			defer close(replDone)
			if err := follower.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("parkd: replication stopped: %v", err)
			}
		}()
		log.Printf("parkd: following leader at %s", cfg.follow)
	} else {
		close(replDone)
	}

	hs := newHTTPServer(*addr, buildHandler(srv, cfg.pprof), cfg)
	// Abort open /v1/watch and /v1/repl/stream responses when graceful
	// shutdown begins: they are unbounded by design and would otherwise
	// hold Shutdown for the entire grace period.
	hs.RegisterOnShutdown(srv.StopStreams)
	log.Printf("parkd: serving store %s on %s (%d facts, pprof=%v)", cfg.dir, *addr, store.Len(), cfg.pprof)
	serveErr := serve(ctx, hs, cfg)
	// Wait for the follower to stop applying before closing the store.
	stop()
	<-replDone
	// Close the store regardless of how serving ended, so the WAL is
	// synced before the process exits.
	if err := store.Close(); err != nil {
		log.Printf("parkd: store close: %v", err)
	}
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		log.Fatalf("parkd: %v", serveErr)
	}
	log.Printf("parkd: store closed, bye")
}
