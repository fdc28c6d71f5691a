package load

import "repro/internal/workload"

// DefaultScenarios returns the built-in scenario suite — one entry
// per family documented in docs/SCENARIOS.md. The suite is the
// repo's standing performance surface: cmd/parkload runs it to
// produce the BENCH_*.json trajectory, and `parkload -dump` writes
// these definitions to scenarios/*.json so they can be edited and
// replayed declaratively.
//
// Rates and durations are sized so a full run finishes in under a
// minute on a developer laptop while still scheduling thousands of
// ops per scenario; -quick scales them down further for CI smoke.
func DefaultScenarios() []Scenario {
	var out []Scenario

	// mixed: the baseline read/write mix over a small event-indexed
	// keyspace. Most ops read (query + full database scans); writes
	// trigger a one-rule index maintenance cascade.
	out = append(out, Scenario{
		Name:   "mixed-rw",
		Family: "mixed",
		Description: "60/30/10 query/write/scan mix over a 200-key space; " +
			"writes fire a single index-maintenance event rule",
		Program: `
			rule track: +val(K, V) -> +seen(K).
		`,
		Ops: []Op{
			{Kind: "query", Weight: 6, Body: "val(k${rand:200}, V)"},
			{Kind: "transaction", Weight: 3, Body: "+val(k${rand:200}, v${nmod:50})."},
			{Kind: "database", Weight: 1},
		},
		Rate:     300,
		Duration: "6s",
		Warmup:   "1s",
		Seed:     1,
	})

	// cascade: every write mints a fresh event constant and rides an
	// ECA trigger chain eight rules deep — the depth knob of the B7
	// experiment, but driven at a fixed arrival rate.
	cas := workload.TriggerCascade(8, 4)
	out = append(out, Scenario{
		Name:   "cascade-d8",
		Family: "cascade",
		Description: "each write starts an 8-deep ECA trigger cascade " +
			"on a fresh constant; measures event-rule chaining under load",
		Program:  cas.Program,
		Database: cas.Database,
		Ops: []Op{
			{Kind: "transaction", Weight: 1, Body: "+l0(x${n})."},
		},
		Rate:     200,
		Duration: "6s",
		Warmup:   "1s",
		Seed:     2,
	})

	// payroll: the paper's §2 HR example at scale. Deactivations ride
	// the cleanup/audit cascade; queries read the audit trail.
	hr := workload.HRPayroll(300, 10, 42)
	out = append(out, Scenario{
		Name:   "payroll-300",
		Family: "payroll",
		Description: "the paper's HR payroll example with 300 employees: " +
			"deactivations cascade through cleanup and audit rules, " +
			"queries read the audit trail",
		Program:  hr.Program,
		Database: hr.Database,
		Ops: []Op{
			{Kind: "transaction", Weight: 4, Body: "-active(e${nmod:300})."},
			{Kind: "query", Weight: 1, Body: "audit(X, D)"},
		},
		Rate:     250,
		Duration: "6s",
		Warmup:   "1s",
		Seed:     3,
	})

	// closure: incremental transitive-closure maintenance. The seeded
	// graph's closure is computed during setup; each write adds a
	// random edge and the recursive rules extend tc; queries probe
	// reachability.
	tc := workload.TransitiveClosure(30, 6, 7)
	out = append(out, Scenario{
		Name:   "closure-30",
		Family: "closure",
		Description: "incremental transitive closure over a 30-node random " +
			"graph: writes insert edges, recursion repairs tc, queries " +
			"probe reachability",
		Program:  tc.Program,
		Database: tc.Database,
		Ops: []Op{
			{Kind: "transaction", Weight: 1, Body: "+edge(n${rand:30}, n${rand:30})."},
			{Kind: "query", Weight: 1, Body: "tc(n${rand:30}, X)"},
		},
		Rate:     150,
		Duration: "6s",
		Warmup:   "1s",
		Seed:     4,
	})

	// hotkey: every write hits the same atom at high concurrency, so
	// commits queue for the store's commit slot and share fsyncs;
	// compare park_store_fsyncs_total with the transaction count in the
	// server delta.
	out = append(out, Scenario{
		Name:   "hotkey",
		Family: "hotkey",
		Description: "all writes contend on a single key at high " +
			"concurrency; exercises the store's commit slot and group " +
			"commit under contention",
		Program: `
			rule bump: +hit(K) -> +hot(K).
		`,
		Ops: []Op{
			{Kind: "transaction", Weight: 9, Body: "+hit(k0)."},
			{Kind: "query", Weight: 1, Body: "hot(X)"},
		},
		Rate:     400,
		Duration: "6s",
		Warmup:   "1s",
		Workers:  64,
		Seed:     5,
	})

	// temporal: a timer-driven interval event source ticks through
	// the normal transaction path while clients read the state the
	// tick rules derive — the ECA-RuleML interval-event family.
	out = append(out, Scenario{
		Name:   "temporal-ticks",
		Family: "temporal",
		Description: "a 25ms interval timer injects +tick events that " +
			"rules fold into derived state while clients query it and " +
			"write marks of their own",
		Program: `
			rule obs: +tick(X) -> +seen(X).
			rule note: +mark(M) -> +noted(M).
		`,
		Timers: []TimerSpec{
			{Name: "beat", Every: "25ms", Updates: "+tick(t${n})."},
		},
		Ops: []Op{
			{Kind: "query", Weight: 7, Body: "seen(X)"},
			{Kind: "transaction", Weight: 3, Body: "+mark(m${n})."},
		},
		Rate:     250,
		Duration: "6s",
		Warmup:   "1s",
		Seed:     6,
	})

	return out
}

// ScenarioByName finds one scenario in a list.
func ScenarioByName(scs []Scenario, name string) *Scenario {
	for i := range scs {
		if scs[i].Name == name {
			return &scs[i]
		}
	}
	return nil
}

// QuickCopy returns a scaled-down copy of a scenario for smoke runs:
// same program, mix and knobs, but a short window and a modest rate
// so the whole suite finishes in seconds. Reports from quick runs are
// marked Quick and are not comparable to full runs.
func QuickCopy(sc Scenario) Scenario {
	q := sc
	q.Rate = minF(sc.Rate, 50)
	q.Duration = "1s"
	q.Warmup = "200ms"
	return q
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
