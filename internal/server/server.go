// Package server exposes a persistent PARK active database over an
// HTTP/JSON API, together with a matching Go client. It turns the
// library into the kind of system the paper targets: a database that
// holds a rule set and reacts to transactions (update sets) by
// computing PARK(P, D, U) and durably installing the result.
//
// Endpoints (all JSON):
//
//	PUT  /v1/program       install the active rule program
//	GET  /v1/program       fetch the active rule program
//	POST /v1/transaction   apply an update set through the rules; answers the diff
//	GET  /v1/database      list the current facts
//	POST /v1/query         run a conjunctive query
//	POST /v1/analyze       static analysis of the active program
//	POST /v1/checkpoint    snapshot the store and truncate the WAL
//	GET  /v1/history       committed transactions since the checkpoint
//	GET  /v1/txns          flight-recorder trace summaries (recent window)
//	GET  /v1/txns/slow     retained traces over the slow threshold
//	GET  /v1/txns/{seq}/trace   full trace of one transaction (?format=text)
//	POST /v1/timers        register an interval event source (timer)
//	GET  /v1/timers        list timers and their firing stats
//	DELETE /v1/timers/{name}  stop and remove a timer
//	GET  /v1/watch         SSE stream of committed transactions
//	GET  /v1/repl/stream   framed replication stream for followers
//	GET  /v1/metrics       engine/HTTP/store metrics (JSON or Prometheus)
//	GET  /v1/version       build provenance and uptime
//	GET  /v1/healthz       write-readiness: 200 healthy, 503 degraded
//	GET  /v1/events        structured lifecycle event journal (?since=N&type=...)
//	GET  /v1/rules/stats   per-rule profiler, ranked by cumulative match cost
//	GET  /v1/cluster       aggregated replica-set view (fans out to peers)
//
// Every request is stamped with an X-Park-Trace-Id (propagated from
// the client when valid, assigned otherwise) that correlates the
// access log, the store's commit log, the flight trace and — across
// replication — the follower's applied-transaction log.
//
// A store that loses durability (failed fsync, full disk) degrades to
// read-only: the write endpoints answer 503 Service Unavailable with a
// Retry-After header while a background probe retests the disk, and
// /v1/healthz reports the degradation; reads, queries and replication
// streaming keep serving throughout. See docs/OPERATIONS.md.
//
// A server built with NewReplica runs in read-only follower mode:
// queries, history, watch and metrics are served from the local
// replicated store, while the write endpoints (PUT /v1/program,
// POST /v1/transaction) answer 421 Misdirected Request with an
// X-Park-Leader header naming the node that does accept writes. See
// docs/REPLICATION.md for the protocol and consistency model.
//
// Every endpoint is instrumented with request counters, latency
// histograms and an in-flight gauge; /v1/metrics exposes those
// together with the engine counters (phases, restarts, conflicts,
// Γ steps). See docs/OBSERVABILITY.md for the full catalogue.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/resolve"
)

// Server is the HTTP handler for one persistent store. The active
// program and default strategy are part of the server state.
type Server struct {
	store  *persist.Store
	reg    *metrics.Registry
	em     *engineMetrics
	leader *repl.Leader

	// follower is non-nil in read-only replica mode; leaderURL is the
	// write-endpoint hint returned with 421 responses.
	follower  *repl.Follower
	leaderURL string

	// node is the failover coordinator in cluster mode (NewClusterMember):
	// the writable gate consults it on every mutating request, because
	// the role changes at runtime as leases expire and elections run.
	node *repl.Node

	// ev is the structured event journal (SetEvents); nil disables
	// /v1/events. The events.Log methods are nil-safe, so emission
	// sites don't guard.
	ev *events.Log

	// faultFS is non-nil when EnableFailpoints has armed the
	// /v1/debug/failpoint endpoints (tests and operator drills only).
	faultFS *persist.FaultFS

	// watchKeepalive is the SSE comment-line heartbeat interval for
	// /v1/watch (default 15s; tests shrink it).
	watchKeepalive time.Duration

	// streamCtx is cancelled by StopStreams to abort long-lived
	// streaming responses during graceful shutdown.
	streamCtx   context.Context
	stopStreams context.CancelFunc

	// timers holds the interval event sources registered via
	// POST /v1/timers (see timer.go); their firing loops stop with
	// streamCtx.
	timers timerSet

	// logger receives the structured access log (one record per
	// request, with the trace ID); discarded unless SetLogger is
	// called. start anchors the uptime gauge and /v1/version.
	logger *slog.Logger
	start  time.Time

	mu          sync.RWMutex
	programSrc  string
	program     *core.Program
	strategyTag string
}

// New creates a server over the store. The initial program is empty
// and the default strategy is inertia. The store's commit-pipeline
// metrics (fsyncs, group-commit batch sizes, slot and lock waits)
// are registered into the server's registry.
func New(store *persist.Store) *Server {
	reg := metrics.NewRegistry()
	store.Instrument(reg)
	leader := repl.NewLeader(store)
	leader.Instrument(reg)
	streamCtx, stopStreams := context.WithCancel(context.Background())
	s := &Server{
		store:          store,
		reg:            reg,
		em:             newEngineMetrics(reg),
		leader:         leader,
		watchKeepalive: 15 * time.Second,
		streamCtx:      streamCtx,
		stopStreams:    stopStreams,
		program:        &core.Program{},
		strategyTag:    "inertia",
		logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		start:          time.Now(),
	}
	registerBuildInfo(reg)
	return s
}

// StopStreams aborts the long-lived streaming responses (/v1/watch
// and /v1/repl/stream) and stops every registered timer's firing
// loop. Graceful shutdown should call this (e.g. via
// http.Server.RegisterOnShutdown) so open streams don't hold
// Shutdown for its whole grace period; watchers see EOF and
// followers reconnect and resume by design. Timers are not durable —
// re-register them after a restart, like the active program.
func (s *Server) StopStreams() { s.stopStreams() }

// NewReplica creates a read-only server over a replicated store. The
// follower (which the caller starts with follower.Run) is the store's
// only writer; its replication metrics are registered alongside the
// server's, and leaderURL is advertised to rejected writers. A
// replica still serves /v1/repl/stream — its store re-notifies every
// replicated commit, so replicas can be chained.
func NewReplica(store *persist.Store, follower *repl.Follower, leaderURL string) *Server {
	s := New(store)
	s.follower = follower
	s.leaderURL = leaderURL
	if follower != nil {
		follower.Instrument(s.reg)
	}
	return s
}

// Metrics returns the server's metric registry, for embedding callers
// that want to add their own instruments or render the metrics out of
// band.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// SetProgram installs a rule program from rule-language source.
func (s *Server) SetProgram(src string) error { return s.setProgram(src, "rules") }

// SetTriggerProgram installs a program from trigger-DDL source.
func (s *Server) SetTriggerProgram(src string) error { return s.setProgram(src, "triggers") }

// setProgram installs a program in the given format ("rules" or
// "triggers").
func (s *Server) setProgram(src, format string) error {
	var prog *core.Program
	var err error
	switch format {
	case "", "rules":
		prog, err = parser.ParseProgram(s.store.Universe(), "program", src)
	case "triggers":
		prog, err = parser.ParseTriggers(s.store.Universe(), "program", src)
	default:
		return fmt.Errorf("unknown program format %q (want rules or triggers)", format)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.programSrc = src
	s.program = prog
	return nil
}

// SetStrategy sets the server's default conflict resolution strategy
// tag, validating it.
func (s *Server) SetStrategy(tag string) error {
	if _, err := strategyFor(tag, 0); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.strategyTag = tag
	return nil
}

// strategyFor resolves a strategy tag. Interactive strategies are not
// available over the wire.
func strategyFor(tag string, seed int64) (core.Strategy, error) {
	switch tag {
	case "", "inertia":
		return resolve.Inertia(), nil
	case "priority":
		return resolve.Priority{TieBreak: resolve.Inertia()}, nil
	case "specificity":
		return resolve.Fallback{Strategies: []core.Strategy{resolve.Specificity{}, resolve.Inertia()}}, nil
	case "random":
		return resolve.NewRandom(seed), nil
	case "protect-inertia":
		return resolve.ProtectUpdates{Inner: resolve.Inertia()}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q", tag)
}

// Handler returns the HTTP handler. Every route runs behind the
// metrics middleware (request counter, latency histogram, in-flight
// gauge), including /v1/metrics itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/program", s.instrument("/v1/program", s.writable(s.handleSetProgram)))
	mux.HandleFunc("GET /v1/program", s.instrument("/v1/program", s.handleGetProgram))
	mux.HandleFunc("POST /v1/transaction", s.instrument("/v1/transaction", s.writable(s.handleTransaction)))
	mux.HandleFunc("GET /v1/database", s.instrument("/v1/database", s.handleDatabase))
	mux.HandleFunc("POST /v1/query", s.instrument("/v1/query", s.handleQuery))
	mux.HandleFunc("POST /v1/analyze", s.instrument("/v1/analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/checkpoint", s.instrument("/v1/checkpoint", s.handleCheckpoint))
	mux.HandleFunc("GET /v1/history", s.instrument("/v1/history", s.handleHistory))
	mux.HandleFunc("GET /v1/txns", s.instrument("/v1/txns", s.handleTxns))
	mux.HandleFunc("GET /v1/txns/slow", s.instrument("/v1/txns/slow", s.handleSlowTxns))
	mux.HandleFunc("GET /v1/txns/{seq}/trace", s.instrument("/v1/txns/trace", s.handleTxnTrace))
	mux.HandleFunc("POST /v1/timers", s.instrument("/v1/timers", s.writable(s.handleCreateTimer)))
	mux.HandleFunc("GET /v1/timers", s.instrument("/v1/timers", s.handleListTimers))
	mux.HandleFunc("DELETE /v1/timers/{name}", s.instrument("/v1/timers", s.writable(s.handleDeleteTimer)))
	mux.HandleFunc("GET /v1/version", s.instrument("/v1/version", s.handleVersion))
	mux.HandleFunc("GET /v1/watch", s.instrument("/v1/watch", s.streaming(s.handleWatch)))
	mux.HandleFunc("GET /v1/repl/stream", s.instrument("/v1/repl/stream", s.streaming(s.leader.ServeHTTP)))
	mux.HandleFunc("GET /v1/repl/status", s.instrument("/v1/repl/status", s.handleReplStatus))
	mux.HandleFunc("POST /v1/repl/vote", s.instrument("/v1/repl/vote", s.handleReplVote))
	mux.HandleFunc("POST /v1/repl/ack", s.instrument("/v1/repl/ack", s.handleReplAck))
	mux.HandleFunc("POST /v1/repl/promote", s.instrument("/v1/repl/promote", s.handleReplPromote))
	mux.HandleFunc("GET /v1/metrics", s.instrument("/v1/metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/healthz", s.instrument("/v1/healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/events", s.instrument("/v1/events", s.handleEvents))
	mux.HandleFunc("GET /v1/rules/stats", s.instrument("/v1/rules/stats", s.handleRuleStats))
	mux.HandleFunc("GET /v1/cluster", s.instrument("/v1/cluster", s.handleCluster))
	if s.faultFS != nil {
		mux.HandleFunc("POST /v1/debug/failpoint", s.instrument("/v1/debug/failpoint", s.handleSetFailpoint))
		mux.HandleFunc("GET /v1/debug/failpoint", s.instrument("/v1/debug/failpoint", s.handleGetFailpoints))
	}
	return s.traced(mux)
}

// streaming ties a long-lived handler's request context to the
// server's stream context, so StopStreams aborts it.
func (s *Server) streaming(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		defer context.AfterFunc(s.streamCtx, cancel)()
		h(w, r.WithContext(ctx))
	}
}

// ReplicaRejection is the 421 body a replica returns for write
// requests. Error stays first and unchanged in shape so existing
// clients that decode ErrorResponse keep working; the extra fields
// tell a redirecting client where the leader is and how fresh this
// replica's data was when it said no.
type ReplicaRejection struct {
	Error  string `json:"error"`
	Leader string `json:"leader,omitempty"`
	// Epoch is this node's leadership epoch (cluster mode only):
	// clients following a chain of 421s can prefer the highest epoch
	// they have seen.
	Epoch int64 `json:"epoch,omitempty"`
	// Stale mirrors park_repl_follower_stale: no frame has arrived
	// within the follower's staleness bound, so local reads may lag
	// the leader arbitrarily.
	Stale bool `json:"stale"`
	// StaleAfterSeconds is the bound Stale was judged against.
	StaleAfterSeconds float64 `json:"staleAfterSeconds"`
	// AppliedSeq is the newest leader transaction applied locally.
	AppliedSeq int `json:"appliedSeq"`
	// LagSeq is the known replication lag in transactions.
	LagSeq int `json:"lagSeq"`
	// LastFrameAgeSeconds is the silence on the replication stream; 0
	// when no frame has arrived yet.
	LastFrameAgeSeconds float64 `json:"lastFrameAgeSeconds,omitempty"`
}

// writable gates a mutating handler: on a replica the logical state
// is owned by the replication stream, so writes are misdirected —
// answer 421 with the leader's address (header and body) plus the
// replica's staleness so clients can retry at the leader and judge
// what they just read here.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Cluster mode: the role is dynamic, ask the coordinator.
		if s.node != nil {
			switch {
			case !s.node.IsLeader():
				s.rejectNotLeader(w)
			case s.node.Suspended():
				s.rejectSuspended(w)
			default:
				h(w, r)
			}
			return
		}
		if s.follower != nil {
			if s.leaderURL != "" {
				w.Header().Set("X-Park-Leader", s.leaderURL)
			}
			st := s.follower.Status()
			resp := ReplicaRejection{
				Error:             fmt.Sprintf("read-only replica: send writes to the leader at %s", s.leaderURL),
				Leader:            s.leaderURL,
				Stale:             st.Stale,
				StaleAfterSeconds: st.StaleAfter.Seconds(),
				AppliedSeq:        st.AppliedSeq,
				LagSeq:            st.LagSeq(),
			}
			if !st.LastFrame.IsZero() {
				resp.LastFrameAgeSeconds = time.Since(st.LastFrame).Seconds()
			}
			writeJSON(w, http.StatusMisdirectedRequest, resp)
			return
		}
		h(w, r)
	}
}

// --- wire types ---

// ProgramRequest installs a program.
type ProgramRequest struct {
	Source string `json:"source"`
	// Format is "rules" (default) or "triggers" (the CREATE TRIGGER
	// DDL).
	Format string `json:"format,omitempty"`
	// Strategy optionally sets the server's default strategy tag.
	Strategy string `json:"strategy,omitempty"`
}

// ProgramResponse reports the active program.
type ProgramResponse struct {
	Source   string `json:"source"`
	Rules    int    `json:"rules"`
	Strategy string `json:"strategy"`
}

// TransactionRequest applies an update set.
type TransactionRequest struct {
	// Updates in rule-language syntax, e.g. "+q(b). -p(a).".
	Updates string `json:"updates"`
	// Strategy overrides the server default for this transaction.
	Strategy string `json:"strategy,omitempty"`
	// Seed parameterizes the random strategy.
	Seed int64 `json:"seed,omitempty"`
}

// ConflictInfo describes one resolved conflict.
type ConflictInfo struct {
	Atom     string `json:"atom"`
	Decision string `json:"decision"`
}

// TransactionResponse reports the outcome of a transaction: what it
// changed in D, not D itself (GET /v1/database lists D).
type TransactionResponse struct {
	// Seq is the committed global sequence (0 when the transaction was
	// a no-op and nothing was installed).
	Seq int `json:"seq"`
	// Epoch is the leadership epoch the transaction committed under
	// (0 outside cluster mode and for a no-op).
	Epoch int64 `json:"epoch"`
	// Added and Removed are the transaction's delta in rule-language
	// syntax, as /v1/history, /v1/watch and replication frames carry
	// it; both are empty for a no-op.
	Added     []string       `json:"added"`
	Removed   []string       `json:"removed"`
	Phases    int            `json:"phases"`
	Restarts  int            `json:"restarts"`
	Steps     int            `json:"steps"`
	Conflicts []ConflictInfo `json:"conflicts,omitempty"`
	Blocked   int            `json:"blocked"`
	// WallSeconds is the engine wall-clock time of this transaction.
	WallSeconds float64 `json:"wallSeconds"`
}

// DatabaseResponse lists the current facts.
type DatabaseResponse struct {
	Facts []string `json:"facts"`
}

// HistoryResponse lists the committed transactions since the last
// checkpoint.
type HistoryResponse struct {
	Transactions []TxnInfo `json:"transactions"`
}

// TxnInfo describes one committed transaction's delta.
type TxnInfo struct {
	Seq     int      `json:"seq"`
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// QueryRequest runs a conjunctive query.
type QueryRequest struct {
	Query string `json:"query"`
}

// QueryResponse returns variable names and answer rows.
type QueryResponse struct {
	Vars []string   `json:"vars"`
	Rows [][]string `json:"rows"`
}

// AnalyzeResponse reports static analysis of the active program.
type AnalyzeResponse struct {
	Rules              int      `json:"rules"`
	ConflictPredicates []string `json:"conflictPredicates"`
	Stratified         bool     `json:"stratified"`
	Recursive          bool     `json:"recursive"`
	UsesEvents         bool     `json:"usesEvents"`
	Warnings           []string `json:"warnings,omitempty"`
}

// ErrorResponse carries an error message.
type ErrorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// --- handlers ---

func (s *Server) handleSetProgram(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Strategy != "" {
		if _, err := strategyFor(req.Strategy, 0); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := s.setProgram(req.Source, req.Format); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	if req.Strategy != "" {
		s.strategyTag = req.Strategy
	}
	s.mu.Unlock()
	s.handleGetProgram(w, r)
}

func (s *Server) handleGetProgram(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	writeJSON(w, http.StatusOK, ProgramResponse{
		Source:   s.programSrc,
		Rules:    len(s.program.Rules),
		Strategy: s.strategyTag,
	})
}

func (s *Server) handleTransaction(w http.ResponseWriter, r *http.Request) {
	var req TransactionRequest
	if !readJSON(w, r, &req) {
		return
	}
	u := s.store.Universe()
	var ups []core.Update
	if req.Updates != "" {
		var err error
		ups, err = parser.ParseUpdates(u, "transaction", req.Updates)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	s.mu.RLock()
	prog := s.program
	tag := s.strategyTag
	s.mu.RUnlock()
	if req.Strategy != "" {
		tag = req.Strategy
	}
	strat, err := strategyFor(tag, req.Seed)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, txn, err := s.store.ApplyTxn(r.Context(), prog, ups, strat, core.Options{})
	if err != nil {
		s.writeApplyErr(w, err)
		return
	}
	// In cluster mode a write is acknowledged only once a majority of
	// the replica set has applied it — the invariant failover leans on
	// ("acked" implies "survives leader loss"). A commit that cannot
	// reach quorum in time is reported 503: it is durable locally but
	// its fate is decided by the next election.
	if err := s.waitReplicated(r.Context(), txn.Seq); err != nil {
		s.setRetryAfterSecs(w, 1)
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("committed locally as seq %d but not yet replicated to a majority: %w", txn.Seq, err))
		return
	}
	s.em.recordRun(res.RunStats)
	resp := TransactionResponse{
		Seq:         txn.Seq,
		Epoch:       txn.Epoch,
		Added:       orEmpty(txn.Added),
		Removed:     orEmpty(txn.Removed),
		Phases:      res.RunStats.Phases,
		Restarts:    res.RunStats.Restarts,
		Steps:       res.RunStats.Steps,
		Blocked:     res.RunStats.BlockedInstances,
		WallSeconds: res.RunStats.Wall.Seconds(),
	}
	for _, rc := range res.Conflicts {
		resp.Conflicts = append(resp.Conflicts, ConflictInfo{
			Atom:     u.AtomString(rc.Conflict.Atom),
			Decision: rc.Decision.String(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is nginx's non-standard 499 "client
// closed request": the client went away before the transaction
// finished. Neither a client error we can report to anyone nor an
// engine failure.
const statusClientClosedRequest = 499

// writeApplyErr maps store.Apply failures to HTTP statuses. Only
// genuine evaluation failures are 422s and counted as engine errors;
// client disconnects, server timeouts and shutdown are transport
// conditions and must not pollute the engine error counter.
func (s *Server) writeApplyErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		writeErr(w, statusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, persist.ErrDegraded):
		// The store lost durability (failed fsync, disk full) and is
		// read-only while a background probe retests the disk; advertise
		// the probe interval as the retry horizon.
		s.setRetryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, persist.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		s.em.errors.Inc()
		writeErr(w, http.StatusUnprocessableEntity, err)
	}
}

func (s *Server) handleDatabase(w http.ResponseWriter, r *http.Request) {
	db := s.store.Snapshot()
	// ?at=N time-travels to the state after global transaction
	// sequence N (the earliest reachable value is the last
	// checkpoint's sequence).
	if at := r.URL.Query().Get("at"); at != "" {
		seq, err := strconv.Atoi(at)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad 'at' parameter %q", at))
			return
		}
		db, err = s.store.StateAt(seq)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, DatabaseResponse{Facts: factStrings(s.store.Universe(), db)})
}

// handleWatch streams committed transactions as server-sent events
// ("data: {json}\n\n" frames) until the client disconnects. While the
// store is idle it emits an SSE comment line (": keepalive") every
// watchKeepalive, so intermediaries with idle timeouts don't sever
// quiet streams and clients can detect dead connections. Slow
// consumers may miss events (the store drops rather than blocks); use
// /v1/history for a complete log.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	events, cancel := s.store.Subscribe(64)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	keepalive := time.NewTicker(s.watchKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			// SSE comment line: ignored by event parsers, but keeps
			// the connection demonstrably alive.
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case txn, ok := <-events:
			if !ok {
				return
			}
			data, err := json.Marshal(TxnInfo{Seq: txn.Seq, Added: txn.Added, Removed: txn.Removed})
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// orEmpty renders a nil list as [] rather than null.
func orEmpty(atoms []string) []string {
	if atoms == nil {
		return []string{}
	}
	return atoms
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	hist, err := s.store.History()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := HistoryResponse{Transactions: []TxnInfo{}}
	for _, txn := range hist {
		resp.Transactions = append(resp.Transactions, TxnInfo{Seq: txn.Seq, Added: txn.Added, Removed: txn.Removed})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	u := s.store.Universe()
	q, err := parser.ParseQuery(u, "query", req.Query)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var keep []int
	resp := QueryResponse{Rows: [][]string{}}
	for i, n := range q.VarNames {
		if n != "_" {
			keep = append(keep, i)
			resp.Vars = append(resp.Vars, n)
		}
	}
	seen := make(map[string]struct{})
	err = s.store.Query(q, func(binding []core.Sym) bool {
		row := make([]string, len(keep))
		key := ""
		for j, i := range keep {
			row[j] = u.Syms.Name(binding[i])
			key += row[j] + "\x00"
		}
		if _, dup := seen[key]; dup {
			return true
		}
		seen[key] = struct{}{}
		resp.Rows = append(resp.Rows, row)
		return true
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	prog := s.program
	s.mu.RUnlock()
	u := s.store.Universe()
	rep := analysis.Analyze(u, prog)
	resp := AnalyzeResponse{
		Rules:      len(prog.Rules),
		Stratified: rep.Stratified,
		Recursive:  rep.Recursive,
		UsesEvents: rep.UsesEvents,
		Warnings:   rep.Warnings,
	}
	for _, p := range rep.ConflictPredicates {
		resp.ConflictPredicates = append(resp.ConflictPredicates, u.Syms.Name(p))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Checkpoint(); err != nil {
		if errors.Is(err, persist.ErrDegraded) {
			s.setRetryAfter(w)
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		if errors.Is(err, persist.ErrClosed) {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func factStrings(u *core.Universe, d *core.Database) []string {
	ids := append([]core.AID(nil), d.Atoms()...)
	u.SortAtoms(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = u.AtomString(id)
	}
	return out
}
