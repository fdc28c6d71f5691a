package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json
// lists the same names and units; bench_test.go holds the two equal.
type metricDef struct {
	name, unit string
	// exact marks a count that repeats exactly for one seed and
	// -seconds value, so two versions of the program can be compared
	// on it without repeated runs.
	exact bool
}

// endToEnd are the metrics a user of the server would see, one set per
// workload. error_share is printed too but is not in this list: it is
// 0 on a healthy run, and a metric that is 0 has no relative bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_ops_s", unit: "ops/s"},
	{name: "txn_p50_ms", unit: "ms"},
	{name: "txn_p95_ms", unit: "ms"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_p95_ms", unit: "ms"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "live_heap_mb", unit: "MB"},
}

// plan is how long each part of a run is. It depends only on the
// workload and -seconds, never on the commit.
type plan struct {
	setups int // set-ups timed; the last one is measured on
	// The measured time is cut into rounds of one closed-loop slice
	// (peak) followed by one open-loop slice (paced), so that both
	// stages sample the whole run and not one stretch of it each.
	rounds      int
	peak, paced time.Duration // per round
	passOps     int           // ops per traced pass
	mini        time.Duration // the traced run's two short concurrent stages
}

func planFor(w *workload, seconds int) plan {
	s := time.Duration(seconds) * time.Second
	const rounds = 10
	return plan{setups: 5, rounds: rounds, peak: s / 4 / rounds, paced: s * 3 / 4 / rounds,
		passOps: w.traceOps * seconds, mini: s / 10}
}

// result is what one run reports: the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the reported set, in the order of
// defs, and prints them. A metric without a value is a bug in this
// program.
func collect(out io.Writer, defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("no value measured for " + d.name)
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	return m
}

// clientSet is the two connections with their generators over one model.
type clientSet struct {
	conns   []*httpTarget
	targets []target // conns, as the loops take them
	gens    []*generator
	model   *model
}

func newClientSet(w *workload, m *model, seed int64, base string) *clientSet {
	cs := &clientSet{model: m}
	for c := 0; c < clients; c++ {
		conn := newHTTPTarget(base)
		cs.conns, cs.targets = append(cs.conns, conn), append(cs.targets, conn)
		cs.gens = append(cs.gens, newGenerator(w, cs.model, seed, c, clients))
	}
	return cs
}

func (cs *clientSet) close() {
	for _, c := range cs.conns {
		c.hc.CloseIdleConnections()
	}
}

// setUp is stage 1: open a fresh store, install program and strategy,
// seed D, warm up with a fixed number of generated ops.
func setUp(w *workload, seed int64, dir string) (*env, *clientSet, time.Duration, error) {
	t0 := time.Now()
	e, err := openEnv(dir, true)
	if err != nil {
		return nil, nil, 0, err
	}
	cs := newClientSet(w, newModel(w.pool), seed, e.ts.URL)
	if err := install(cs.targets[0], w); err != nil {
		e.close()
		return nil, nil, 0, err
	}
	warm := closedLoop(cs.targets, cs.gens, w.warmup/clients, 0, 0)
	if len(warm.errs) > 0 {
		e.close()
		return nil, nil, 0, fmt.Errorf("warm-up: %w", warm.errs[0])
	}
	return e, cs, time.Since(t0), nil
}

// runEndToEnd measures one workload with tracing off: set-ups, then
// rounds of a closed-loop and an open-loop slice, heap, state check,
// re-open.
func runEndToEnd(out io.Writer, w *workload, seed int64, p plan, dir string) (*result, error) {
	var (
		e      *env
		cs     *clientSet
		setups []time.Duration
	)
	for {
		var d time.Duration
		var err error
		if e, cs, d, err = setUp(w, seed, filepath.Join(dir, "e2e")); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
		if len(setups) == p.setups {
			break // this one is measured on
		}
		cs.close()
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	defer cs.close()

	var (
		peak, paced stage
		peakTime    time.Duration   // closed-loop time, all slices
		cpuPerOp    []time.Duration // process CPU per op of each open-loop slice
	)
	runtime.GC()
	for r := 0; r < p.rounds; r++ {
		slice := closedLoop(cs.targets, cs.gens, 0, p.peak, r)
		peakTime += slice.elapsed
		peak.merge(slice)

		cpu0 := cpuTime()
		slice, err := pacedLoop(cs.targets, cs.gens, w.rate, p.paced, r)
		if err != nil {
			e.close()
			return nil, err
		}
		cpuPerOp = append(cpuPerOp, (cpuTime()-cpu0)/time.Duration(len(slice.samples)))
		paced.merge(slice)
	}
	heap := liveHeap()

	res := &result{
		Attempted: len(peak.samples) + len(paced.samples),
		Failed:    peak.failed() + paced.failed(),
	}
	values := map[string]float64{
		"setup_s":       median(setups).Seconds(),
		"peak_ops_s":    float64(len(peak.samples)-peak.failed()) / peakTime.Seconds(),
		"txn_p50_ms":    ms(calmest(paced.samples, opTxn, p.rounds, 0.50)),
		"txn_p95_ms":    ms(calmest(paced.samples, opTxn, p.rounds, 0.95)),
		"query_p50_ms":  ms(calmest(paced.samples, opQuery, p.rounds, 0.50)),
		"query_p95_ms":  ms(calmest(paced.samples, opQuery, p.rounds, 0.95)),
		"cpu_ms_per_op": ms(quantile(cpuPerOp, 0)),
		"live_heap_mb":  float64(heap) / (1 << 20),
	}

	fmt.Fprintf(out, "  %d set-ups: %v\n", p.setups, setups)
	fmt.Fprintf(out, "  %d rounds of %.2f s closed loop (%d clients) and %.2f s open loop (%d connections, %.0f ops/s)\n",
		p.rounds, p.peak.Seconds(), clients, p.paced.Seconds(), clients, w.rate)
	fmt.Fprintf(out, "  closed loop: %d ops in %.2f s; by slice: %v\n", len(peak.samples), peakTime.Seconds(), windowCounts(peak.samples, p.rounds))
	achieved := float64(len(paced.samples)-paced.late) / (p.paced.Seconds() * float64(p.rounds))
	fmt.Fprintf(out, "  open loop: offered %.1f/s, achieved %.1f/s, saturated: %v, sched lag p95 %.3f ms, cpu/op by slice %v\n",
		w.rate, achieved, achieved < 0.99*w.rate, ms(quantile(paced.lags, 0.95)), cpuPerOp)
	for _, k := range []opKind{opTxn, opQuery} {
		l := latencies(paced.samples, k)
		fmt.Fprintf(out, "  open loop %-5s n=%d, whole stage: p50 %.3f p95 %.3f p99 %.3f max %.3f ms; by slice: p50 %v p95 %v\n", k, len(l),
			ms(quantile(l, 0.5)), ms(quantile(l, 0.95)), ms(quantile(l, 0.99)), ms(quantile(l, 1)),
			windowQuantiles(paced.samples, k, p.rounds, 0.5), windowQuantiles(paced.samples, k, p.rounds, 0.95))
	}
	fmt.Fprintf(out, "  error_share %.6f (%d of %d ops of the measured rounds)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, err := range append(peak.errs, paced.errs...) {
		fmt.Fprintf(out, "  FAILED op: %v\n", err)
	}

	reopen, walRecords, err := checkState(e, cs.targets[0], w, cs.model)
	if err != nil {
		fmt.Fprintf(out, "  FAILED state check: %v\n", err)
	} else {
		fmt.Fprintf(out, "  state check: GET /v1/database and the re-opened store (%.1f ms, %d WAL records) equal the model, %d facts\n",
			ms(reopen), walRecords, len(w.expect(cs.model)))
	}
	res.Correct = err == nil && res.Failed == 0
	res.Metrics = collect(out, endToEnd, values)
	return res, nil
}
