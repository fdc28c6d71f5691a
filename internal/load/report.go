package load

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
)

// ReportSchema tags the BENCH_*.json format. Consumers (CI, the
// trajectory scripts in docs/BENCHMARKING.md) dispatch on it; bump it
// when a field changes meaning.
const ReportSchema = "parkload/v1"

// Report is one parkload run: the machine-readable artifact committed
// as BENCH_PR<k>.json so the repo accumulates a performance trajectory
// PR over PR.
type Report struct {
	// Schema is always ReportSchema.
	Schema string `json:"schema"`
	// Generated is the run's RFC3339 timestamp.
	Generated string `json:"generated"`
	// GoVersion and Label record provenance ("go1.24.0", "pr6").
	GoVersion string `json:"goVersion"`
	Label     string `json:"label,omitempty"`
	// Quick marks a scaled-down smoke run whose numbers are not
	// comparable to full runs.
	Quick bool `json:"quick,omitempty"`
	// Scenarios holds one result per scenario, in run order.
	Scenarios []ScenarioResult `json:"scenarios"`
}

// ScenarioResult is the measured outcome of one scenario.
type ScenarioResult struct {
	Name        string `json:"name"`
	Family      string `json:"family"`
	Description string `json:"description,omitempty"`

	// OfferedRate is the arrival rate actually scheduled (ops/s);
	// AchievedRate the completion rate. A gap means the server could
	// not keep up inside the window.
	OfferedRate  float64 `json:"offeredRate"`
	AchievedRate float64 `json:"achievedRate"`
	// DurationSeconds is the measured window (excluding warmup).
	DurationSeconds float64 `json:"durationSeconds"`

	// Scheduled counts arrivals dispatched; Ops completions observed
	// inside the window; Errors transport-level failures.
	Scheduled int64 `json:"scheduled"`
	Ops       int64 `json:"ops"`
	Errors    int64 `json:"errors"`
	// Status counts completions by HTTP status code ("200", "503",
	// "421"); transport errors appear under "error".
	Status map[string]int64 `json:"status,omitempty"`

	// Latency is measured from each op's *scheduled* time, so queueing
	// behind a slow server is included (no coordinated omission).
	Latency LatencySummary `json:"latencyMs"`
	// KindLatency breaks latency down by op kind.
	KindLatency map[string]LatencySummary `json:"kindLatencyMs,omitempty"`

	// Timeline buckets completions by whole seconds since the window
	// start: Ok counts 2xx statuses, Other everything else (421, 503,
	// transport errors). A mid-run failover shows as an Ok dip with an
	// Other spike, then recovery.
	Timeline []TimelineBucket `json:"timeline,omitempty"`

	// Failover reports a mid-run leader-kill drill; nil for ordinary
	// scenarios.
	Failover *FailoverResult `json:"failover,omitempty"`

	// ServerDelta is the change in the server's park_* counters over
	// the measured window (engine phases, restarts, fsyncs,
	// timer fires, ...), summed across labels per metric name.
	ServerDelta map[string]int64 `json:"serverDelta,omitempty"`

	// EventDelta counts the lifecycle events (by type) the server's
	// /v1/events journal recorded during the measured window — a
	// failover drill shows its campaign-won and leader-demoted here.
	// Events the bounded journal evicted before collection are counted
	// under "(evicted)". Absent when the target serves no journal.
	EventDelta map[string]int64 `json:"eventDelta,omitempty"`

	// CPUSeconds attributes server CPU to endpoints over the window,
	// from pprof goroutine labels (see docs/BENCHMARKING.md). Samples
	// outside any labeled request are under "(other)". Empty when the
	// target exposes no pprof endpoint; CPUNote says why.
	CPUSeconds map[string]float64 `json:"cpuSeconds,omitempty"`
	CPUNote    string             `json:"cpuNote,omitempty"`
}

// TimelineBucket is one second of the completion timeline.
type TimelineBucket struct {
	// Second since the measured window's start.
	Second int `json:"second"`
	// Ok counts completions with 2xx statuses in this second.
	Ok int64 `json:"ok"`
	// Other counts every non-2xx completion (421 redirects, 503s,
	// transport errors).
	Other int64 `json:"other"`
}

// FailoverResult is the outcome of a mid-run leader-kill drill: the
// load keeps arriving open-loop while the leader dies, the survivors
// elect, and the runner chases the new leader.
type FailoverResult struct {
	// KillAtSeconds is when the leader was killed, relative to the
	// measured window's start.
	KillAtSeconds float64 `json:"killAtSeconds"`
	// RecoverySeconds is how long after the kill successful writes
	// resumed (first post-kill second with 2xx completions); negative
	// when writes never recovered.
	RecoverySeconds float64 `json:"recoverySeconds"`
	// NewLeaderURL is the member the runner retargeted to.
	NewLeaderURL string `json:"newLeaderUrl,omitempty"`
	// BeforeOkRate/DuringOkRate/AfterOkRate are successful-completion
	// rates (ops/s) before the kill, during the outage, and after
	// recovery.
	BeforeOkRate float64 `json:"beforeOkRate"`
	DuringOkRate float64 `json:"duringOkRate"`
	AfterOkRate  float64 `json:"afterOkRate"`
}

// LatencySummary reports latency quantiles in milliseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// latencySummary converts a duration summary to milliseconds.
func latencySummary(s metrics.DurationSummary) LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count: int64(s.Count),
		Mean:  ms(s.Mean),
		P50:   ms(s.P50),
		P95:   ms(s.P95),
		P99:   ms(s.P99),
		Max:   ms(s.Max),
	}
}

// ValidateReport checks that data is a well-formed Report: the schema
// tag, at least one scenario, and per-scenario sanity (identity
// fields present, counters consistent, quantiles ordered). CI runs
// this over the freshly generated JSON (`parkload -check`), so a
// reporter regression fails the build rather than committing a
// corrupt trajectory point.
func ValidateReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: %v", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("report: schema %q, want %q", r.Schema, ReportSchema)
	}
	if _, err := time.Parse(time.RFC3339, r.Generated); err != nil {
		return nil, fmt.Errorf("report: bad generated timestamp %q", r.Generated)
	}
	if r.GoVersion == "" {
		return nil, fmt.Errorf("report: goVersion is empty")
	}
	if len(r.Scenarios) == 0 {
		return nil, fmt.Errorf("report: no scenarios")
	}
	seen := map[string]bool{}
	for i, s := range r.Scenarios {
		where := fmt.Sprintf("report: scenarios[%d] (%s)", i, s.Name)
		if s.Name == "" || s.Family == "" {
			return nil, fmt.Errorf("%s: name and family are required", where)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("%s: duplicate scenario name", where)
		}
		seen[s.Name] = true
		if s.DurationSeconds <= 0 {
			return nil, fmt.Errorf("%s: durationSeconds = %v", where, s.DurationSeconds)
		}
		if s.Ops <= 0 {
			return nil, fmt.Errorf("%s: no completed ops", where)
		}
		if s.Ops > s.Scheduled {
			return nil, fmt.Errorf("%s: ops %d > scheduled %d", where, s.Ops, s.Scheduled)
		}
		var statusTotal int64
		for _, n := range s.Status {
			statusTotal += n
		}
		if statusTotal != s.Ops {
			return nil, fmt.Errorf("%s: status counts sum to %d, want ops %d", where, statusTotal, s.Ops)
		}
		l := s.Latency
		if l.Count != s.Ops {
			return nil, fmt.Errorf("%s: latency count %d, want ops %d", where, l.Count, s.Ops)
		}
		if !(l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
			return nil, fmt.Errorf("%s: quantiles out of order: p50=%v p95=%v p99=%v max=%v",
				where, l.P50, l.P95, l.P99, l.Max)
		}
		if s.OfferedRate <= 0 || s.AchievedRate <= 0 {
			return nil, fmt.Errorf("%s: rates must be positive (offered=%v achieved=%v)",
				where, s.OfferedRate, s.AchievedRate)
		}
		var timelineTotal int64
		for j, b := range s.Timeline {
			if b.Second != j {
				return nil, fmt.Errorf("%s: timeline[%d] labeled second %d", where, j, b.Second)
			}
			timelineTotal += b.Ok + b.Other
		}
		if len(s.Timeline) > 0 && timelineTotal != s.Ops {
			return nil, fmt.Errorf("%s: timeline sums to %d completions, want ops %d", where, timelineTotal, s.Ops)
		}
		if f := s.Failover; f != nil {
			if f.KillAtSeconds < 0 || f.KillAtSeconds > s.DurationSeconds {
				return nil, fmt.Errorf("%s: failover kill at %vs outside the %vs window",
					where, f.KillAtSeconds, s.DurationSeconds)
			}
			if f.RecoverySeconds >= 0 && f.AfterOkRate <= 0 {
				return nil, fmt.Errorf("%s: failover claims recovery but afterOkRate = %v", where, f.AfterOkRate)
			}
		}
	}
	return &r, nil
}

// Families returns the distinct scenario families in the report,
// sorted.
func (r *Report) Families() []string {
	set := map[string]bool{}
	for _, s := range r.Scenarios {
		set[s.Family] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
