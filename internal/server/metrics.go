package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// engineMetrics are the pre-registered instruments fed by transaction
// results. Every counter accumulates across transactions since
// process start (or the last registry reset); the paper-semantics
// meaning of each is documented in docs/OBSERVABILITY.md.
type engineMetrics struct {
	txns       *metrics.Counter
	errors     *metrics.Counter
	phases     *metrics.Counter
	restarts   *metrics.Counter
	fullSteps  *metrics.Counter
	deltaSteps *metrics.Counter
	insWins    *metrics.Counter
	delWins    *metrics.Counter
	stale      *metrics.Counter
	groundings *metrics.Counter
	derivs     *metrics.Counter
	newFacts   *metrics.Counter
	blocked    *metrics.Gauge
	runSeconds *metrics.Histogram

	storeFacts   *metrics.Gauge
	storeWAL     *metrics.Gauge
	walBytes     *metrics.Gauge
	historyTxns  *metrics.Gauge
	historyBytes *metrics.Gauge
	inFlight     *metrics.Gauge
	uptime       *metrics.Gauge
}

// newEngineMetrics registers the engine and store instruments.
func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	return &engineMetrics{
		txns: reg.Counter("park_engine_transactions_total",
			"Transactions evaluated successfully (PARK(P, D, U) computed and committed)."),
		errors: reg.Counter("park_engine_errors_total",
			"Transactions that failed evaluation (bad updates, strategy errors, phase limits)."),
		phases: reg.Counter("park_engine_phases_total",
			"Inflationary phases run (1 + restarts per transaction; Δ operator iterations from <∅, D>)."),
		restarts: reg.Counter("park_engine_restarts_total",
			"Bi-structure restarts: phases re-run from D after a conflict resolution grew the blocked set."),
		fullSteps: reg.Counter("park_engine_gamma_steps_total",
			"Γ evaluations by kind: full re-evaluates every rule, delta only instances triggered by the previous step.",
			metrics.L("kind", "full")),
		deltaSteps: reg.Counter("park_engine_gamma_steps_total",
			"Γ evaluations by kind: full re-evaluates every rule, delta only instances triggered by the previous step.",
			metrics.L("kind", "delta")),
		insWins: reg.Counter("park_engine_conflicts_total",
			"Conflict triples resolved, labeled by the SELECT outcome that won.",
			metrics.L("decision", "insert")),
		delWins: reg.Counter("park_engine_conflicts_total",
			"Conflict triples resolved, labeled by the SELECT outcome that won.",
			metrics.L("decision", "delete")),
		stale: reg.Counter("park_engine_stale_conflicts_total",
			"Conflicts whose stale side was recovered from provenance (the DESIGN.md extension)."),
		groundings: reg.Counter("park_engine_groundings_total",
			"Rule groundings enumerated, before per-step dedup and blocked-set filtering."),
		derivs: reg.Counter("park_engine_derivations_total",
			"Rule-instance derivations that produced a head (after dedup and blocked filtering)."),
		newFacts: reg.Counter("park_engine_new_facts_total",
			"Marked atoms added to interpretations, summed over phases."),
		blocked: reg.Gauge("park_engine_blocked_instances",
			"Final size of the blocked set B of the most recent transaction."),
		runSeconds: reg.Histogram("park_engine_run_seconds",
			"Wall-clock duration of engine runs (one observation per transaction).", nil),
		storeFacts: reg.Gauge("park_store_facts",
			"Facts in the current database instance (sampled at scrape time)."),
		storeWAL: reg.Gauge("park_store_wal_records",
			"Write-ahead-log records appended since the last checkpoint (sampled at scrape time)."),
		walBytes: reg.Gauge("park_store_wal_bytes",
			"Write-ahead-log bytes appended since the last checkpoint; only a checkpoint bounds them (sampled at scrape time)."),
		historyTxns: reg.Gauge("park_store_history_records",
			"Committed transactions held in the in-memory history tail; bounded, older ones are read from the WAL (sampled at scrape time)."),
		historyBytes: reg.Gauge("park_store_history_bytes",
			"Atom text bytes held in the in-memory history tail; bounded (sampled at scrape time)."),
		inFlight: reg.Gauge("park_http_in_flight",
			"HTTP requests currently being served."),
		uptime: reg.Gauge("park_uptime_seconds",
			"Whole seconds since this server started (sampled at scrape time)."),
	}
}

// recordRun folds one engine run's statistics into the counters.
func (m *engineMetrics) recordRun(rs core.RunStats) {
	m.txns.Inc()
	m.phases.Add(int64(rs.Phases))
	m.restarts.Add(int64(rs.Restarts))
	m.fullSteps.Add(int64(rs.FullSteps))
	m.deltaSteps.Add(int64(rs.DeltaSteps))
	m.insWins.Add(int64(rs.InsertDecisions))
	m.delWins.Add(int64(rs.DeleteDecisions))
	m.stale.Add(int64(rs.StaleConflicts))
	m.groundings.Add(rs.Groundings)
	m.derivs.Add(rs.Derivations)
	m.newFacts.Add(rs.NewFacts)
	m.blocked.Set(int64(rs.BlockedInstances))
	m.runSeconds.Observe(rs.Wall.Seconds())
}

// statusWriter records the response status code; it forwards Flush so
// the SSE stream (/v1/watch) keeps working through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush implements http.Flusher when the underlying writer does; on
// writers without flush support it is a no-op.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-endpoint middleware: a
// request counter (labeled by endpoint, method and status code), a
// latency histogram (labeled by endpoint), the in-flight gauge, and a
// pprof goroutine label so CPU profile samples taken while the
// request runs (including the engine work it triggers — child
// goroutines inherit the label set) attribute to the endpoint.
// parkload's per-endpoint CPU attribution reads these labels out of
// /debug/pprof/profile; see docs/BENCHMARKING.md.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("park_http_request_seconds",
		"HTTP request latency by endpoint.", nil, metrics.L("endpoint", endpoint))
	labels := pprof.Labels("endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		s.em.inFlight.Inc()
		defer s.em.inFlight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		pprof.Do(r.Context(), labels, func(ctx context.Context) {
			h(sw, r.WithContext(ctx))
		})
		hist.Observe(time.Since(start).Seconds())
		s.reg.Counter("park_http_requests_total",
			"HTTP requests served, by endpoint, method and status code.",
			metrics.L("endpoint", endpoint),
			metrics.L("method", r.Method),
			metrics.L("code", strconv.Itoa(sw.status)),
		).Inc()
	}
}

// handleMetrics serves GET /v1/metrics. The default response is the
// JSON snapshot (metrics.Snapshot); ?format=prometheus — or an Accept
// header asking for text/plain — selects the Prometheus text
// exposition format instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Store gauges are sampled at scrape time: they describe current
	// state, not an accumulation.
	s.em.storeFacts.Set(int64(s.store.Len()))
	g := s.store.Growth()
	s.em.storeWAL.Set(int64(g.WALRecords))
	s.em.walBytes.Set(g.WALBytes)
	s.em.historyTxns.Set(int64(g.HistoryRecords))
	s.em.historyBytes.Set(int64(g.HistoryBytes))
	s.em.uptime.Set(int64(time.Since(s.start).Seconds()))
	if s.follower != nil {
		// Replication lag, sequences and connectedness likewise.
		s.follower.RefreshMetrics()
	}
	format := r.URL.Query().Get("format")
	if format == "prometheus" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
		return
	}
	if format != "" && format != "json" {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("unknown metrics format %q (want json or prometheus)", format))
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}
