package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/persist"
	"repro/internal/resolve"
)

// perLayer are the metrics of single layers, all taken from outside by
// timing calls into the layers' public functions. The prefix is the
// module (internal/<prefix>); load is this generator.
var perLayer = []metricDef{
	{name: "parser.parse_us", unit: "us"},
	{name: "core.load_ms", unit: "ms"},
	{name: "storage.rows_loaded_per_txn", unit: "count", exact: true},
	{name: "core.run_ms", unit: "ms"},
	{name: "core.groundings_per_txn", unit: "count", exact: true},
	{name: "core.groundings_per_new_fact", unit: "ratio", exact: true},
	{name: "core.new_facts_per_txn", unit: "count", exact: true},
	{name: "core.full_steps_per_txn", unit: "count", exact: true},
	{name: "core.delta_steps_per_txn", unit: "count", exact: true},
	{name: "core.phases_per_txn", unit: "count", exact: true},
	{name: "core.conflicts_per_txn", unit: "count", exact: true},
	{name: "core.blocked_per_txn", unit: "count", exact: true},
	{name: "core.allocs_per_txn", unit: "count"},
	{name: "core.alloc_kb_per_txn", unit: "KB"},
	{name: "core.query_ms", unit: "ms"},
	{name: "core.rows_per_query", unit: "count", exact: true},
	{name: "resolve.select_us", unit: "us"},
	{name: "resolve.selects_per_txn", unit: "count", exact: true},
	{name: "persist.apply_ms", unit: "ms"},
	{name: "persist.self_ms", unit: "ms"},
	{name: "persist.wal_bytes_per_txn", unit: "bytes", exact: true},
	{name: "persist.fsyncs_per_txn", unit: "count", exact: true},
	{name: "persist.fsync_ms", unit: "ms"},
	{name: "persist.write_ms", unit: "ms"},
	{name: "persist.commit_retries_per_txn", unit: "ratio"},
	{name: "persist.batch_size_mean", unit: "count"},
	{name: "persist.checkpoint_ms", unit: "ms"},
	{name: "persist.snapshot_bytes_per_fact", unit: "bytes", exact: true},
	{name: "persist.open_ms", unit: "ms"},
	{name: "persist.wal_records", unit: "count", exact: true},
	{name: "server.handle_ms", unit: "ms"},
	{name: "server.query_handle_ms", unit: "ms"},
	{name: "server.resp_kb_per_txn", unit: "KB", exact: true},
	{name: "server.resp_kb_per_query", unit: "KB", exact: true},
	{name: "server.self_ms", unit: "ms"},
	{name: "load.net_ms", unit: "ms"},
	{name: "load.sched_lag_p95_ms", unit: "ms"},
	{name: "load.trace_overhead_pct", unit: "%"},
}

// The traced run replays one op sequence pass by pass over fresh stores
// whose state is identical at each op index.
const (
	passProbe       = "probe"          // NewInterp and Engine.Run on the snapshot each transaction is about to see
	passChain       = "chain"          // parser, then persist or core, called as the handlers call them
	passHandler     = "handler"        // Handler().ServeHTTP, no socket
	passHandlerFS   = "handler+tracer" // the same over the tracing FS: what the wrappers cost
	passHTTP        = "http"           // the loopback socket, closed loop, one client
	spanParse       = "parser.parse"
	spanLoad        = "core.load"      // probe pass: NewInterp
	spanRun         = "core.run"       // probe pass: Engine.Run, nothing installed
	spanApply       = "persist.apply"  // store.ApplyTxn
	spanInner       = "core.run.inner" // the engine wall clock ApplyTxn reports for its own run
	spanSelect      = "resolve.select"
	spanWrite       = "persist.write"
	spanFsync       = "persist.fsync"
	spanQuery       = "core.query" // store.Query, which only hands the installed state to core.EvalQuery
	spanHandle      = "server.handle"
	spanHTTP        = "load.http"
	noParent        = -1
	walFileBaseName = "wal.log"
)

// span is one timed call into a layer. Spans of one op share its index
// in the sequence; Parent is the span that caused it.
type span struct {
	Name   string        `json:"name"`
	Pass   string        `json:"pass"`
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"` // since the traced run began
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span belongs to.
func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name, pass string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Pass: pass, Op: op, ID: id, Parent: parent, Start: time.Since(t.t0)})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// scope is where the wrappers hang the spans they record: the call the
// pass is currently inside.
type scope struct {
	tr     *tracer
	mu     sync.Mutex
	pass   string
	op     int
	parent int // noParent: not inside a traced call, record nothing
}

func (sc *scope) enter(pass string, op, parent int) {
	sc.mu.Lock()
	sc.pass, sc.op, sc.parent = pass, op, parent
	sc.mu.Unlock()
}

func (sc *scope) leave() { sc.enter("", 0, noParent) }

// timed runs fn inside a child span of the current scope.
func (sc *scope) timed(name string, fn func()) {
	sc.mu.Lock()
	pass, op, parent := sc.pass, sc.op, sc.parent
	sc.mu.Unlock()
	if parent == noParent {
		fn()
		return
	}
	id := sc.tr.begin(name, pass, op, parent)
	fn()
	sc.tr.end(id)
}

// tracedFS times every write and fsync the store issues, and counts
// the bytes that go to the WAL.
type tracedFS struct {
	persist.FS
	sc       scope
	walBytes int64 // under sc.mu
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: inner, fs: f, wal: filepath.Base(name) == walFileBaseName}, nil
}

func (f *tracedFS) CreateTemp(dir, pattern string) (persist.File, error) {
	inner, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: inner, fs: f}, nil
}

type tracedFile struct {
	persist.File
	fs  *tracedFS
	wal bool
}

func (w *tracedFile) Write(p []byte) (n int, err error) {
	w.fs.sc.timed(spanWrite, func() { n, err = w.File.Write(p) })
	if w.wal {
		w.fs.sc.mu.Lock()
		if w.fs.sc.parent != noParent {
			w.fs.walBytes += int64(n)
		}
		w.fs.sc.mu.Unlock()
	}
	return n, err
}

func (w *tracedFile) Sync() (err error) {
	w.fs.sc.timed(spanFsync, func() { err = w.File.Sync() })
	return err
}

// tracedStrategy times every SELECT call.
type tracedStrategy struct {
	core.Strategy
	sc scope
}

func (s *tracedStrategy) Select(in *core.SelectInput) (d core.Decision, err error) {
	s.sc.timed(spanSelect, func() { d, err = s.Strategy.Select(in) })
	return d, err
}

// strategyFor mirrors the two tags of server.strategyFor the workloads
// use, for the chain pass, which calls core without the server.
func strategyFor(tag string) (core.Strategy, error) {
	switch tag {
	case "inertia":
		return resolve.Inertia(), nil
	case "priority":
		return resolve.Priority{TieBreak: resolve.Inertia()}, nil
	}
	return nil, fmt.Errorf("no strategy %q in the benchmark", tag)
}

// selfTimes is each span's duration minus its direct children's. The
// children of one span never overlap: they are sequential calls, or
// come from the matched op of another pass.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent != noParent {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// matchOps joins the three passes into one tree per op. A layer that
// can only be reached through its caller gets its children from the
// same op index of the pass that called them directly: what the chain
// pass timed goes under the handler span, and that under the http span.
func matchOps(spans []span) {
	type key struct {
		pass string
		op   int
	}
	top := map[key]int{}
	for _, s := range spans {
		if s.Name == spanHandle || s.Name == spanHTTP {
			top[key{s.Pass, s.Op}] = s.ID
		}
	}
	for i, s := range spans {
		var parentPass string
		switch {
		case s.Pass == passHandler && s.Name == spanHandle:
			parentPass = passHTTP
		case s.Pass == passChain && s.Parent == noParent && (s.Name == spanParse || s.Name == spanApply || s.Name == spanQuery):
			parentPass = passHandler
		default:
			continue
		}
		if p, ok := top[key{parentPass, s.Op}]; ok {
			spans[i].Parent = p
		}
	}
}

// budgetLayers is the order the budget line names the stages in.
var budgetLayers = []string{"parser", "core", "resolve", "persist", "server", "load"}

// opBudget is one op's http time split into layer self times; the
// parts add up to total exactly.
type opBudget struct {
	parts map[string]time.Duration
	total time.Duration
}

// budgets computes every op's split from a matched span forest. Probe
// spans are on no request path and stay out.
func budgets(spans []span, nOps int) []opBudget {
	self := selfTimes(spans)
	root := func(i int) int {
		for spans[i].Parent != noParent {
			i = spans[i].Parent
		}
		return i
	}
	out := make([]opBudget, nOps)
	for i := range out {
		out[i].parts = map[string]time.Duration{}
	}
	for i, s := range spans {
		top := root(i)
		if spans[top].Name != spanHTTP {
			continue
		}
		out[s.Op].parts[s.layer()] += self[i]
		if top == i {
			out[s.Op].total = s.dur()
		}
	}
	return out
}

// budgetLine is the stage medians of one op kind, their sum, the
// single-client http median and what the sum leaves unexplained.
type budgetLine struct {
	stages   map[string]time.Duration
	sum      time.Duration
	http     time.Duration
	residual time.Duration
}

func budgetOf(bs []opBudget, ops []op, kind opKind) budgetLine {
	line := budgetLine{stages: map[string]time.Duration{}}
	var totals []time.Duration
	parts := map[string][]time.Duration{}
	for i, b := range bs {
		if ops[i].kind != kind {
			continue
		}
		totals = append(totals, b.total)
		for _, l := range budgetLayers {
			parts[l] = append(parts[l], b.parts[l])
		}
	}
	for _, l := range budgetLayers {
		line.stages[l] = median(parts[l])
		line.sum += line.stages[l]
	}
	line.http = median(totals)
	line.residual = line.http - line.sum
	return line
}

func (b budgetLine) String() string {
	var sb strings.Builder
	for _, l := range budgetLayers {
		fmt.Fprintf(&sb, "%s %.3f + ", l, ms(b.stages[l]))
	}
	s := strings.TrimSuffix(sb.String(), " + ")
	share := 0.0
	if b.http > 0 {
		share = 100 * float64(b.sum) / float64(b.http)
	}
	return fmt.Sprintf("%s = %.3f ms of the http median %.3f ms (%.1f%%), residual %.3f ms", s, ms(b.sum), ms(b.http), share, ms(b.residual))
}

// stableLen is the size of a response without the digits of its
// wallSeconds value, the one field whose length differs between
// identical runs.
func stableLen(resp []byte) int {
	const field = `"wallSeconds":`
	i := bytes.Index(resp, []byte(field))
	if i < 0 {
		return len(resp)
	}
	j := i + len(field)
	for j < len(resp) && resp[j] != ',' && resp[j] != '}' {
		j++
	}
	return len(resp) - (j - i - len(field))
}

// traced is everything one traced run produced.
type traced struct {
	values    map[string]float64
	opsSHA    string // of the op sequence the passes replayed
	txn, qry  budgetLine
	attempted int
	failed    int     // ops
	wrong     bool    // a state check failed
	errs      []error // the first few
	spans     []span
}

// tracedRun is the state the passes of one traced run share.
type tracedRun struct {
	w    *workload
	p    plan
	dir  string // the passes make their store directories in here
	m    *model // where the op sequence leaves the pool: every pass must end there
	warm []op
	ops  []op
	tr   *tracer
	out  *traced

	probe     *probeStats
	fs        *tracedFS // the chain pass's
	queryRows int       // answered in the chain pass
}

// note keeps the first few errors for the report.
func (r *tracedRun) note(err error) {
	if len(r.out.errs) < 8 {
		r.out.errs = append(r.out.errs, err)
	}
}

// sent records the outcome of one op.
func (r *tracedRun) sent(err error) {
	r.out.attempted++
	if err != nil {
		r.out.failed++
		r.note(err)
	}
}

// checked records the outcome of one pass's state check.
func (r *tracedRun) checked(err error) {
	if err != nil {
		r.out.wrong = true
		r.note(err)
	}
}

// traceRun is the traced run: single client, the first p.passOps ops
// of the seed's sequence replayed pass by pass over fresh stores, then
// two short concurrent stages for the numbers only concurrency
// produces.
func traceRun(w *workload, seed int64, p plan, dir string) (*traced, error) {
	r := &tracedRun{w: w, p: p, dir: dir, m: newModel(w.pool), tr: &tracer{t0: time.Now()},
		out: &traced{values: map[string]float64{}}}
	g := newGenerator(w, r.m, seed, 0, 1)
	take := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	r.warm, r.ops = take(w.warmup), take(p.passOps)
	h := sha256.New()
	for _, o := range r.ops {
		fmt.Fprintf(h, "%s %s\n", o.kind, o.text)
	}
	r.out.opsSHA = fmt.Sprintf("%x", h.Sum(nil))

	for _, pass := range []func() error{
		r.probePass,
		r.chainPass,
		func() error { return r.handlerPass(passHandler) },
		func() error { return r.handlerPass(passHandlerFS) },
		func() error { return r.httpPass(seed) },
	} {
		if err := pass(); err != nil {
			return nil, err
		}
	}
	r.out.attempted += 2 * len(r.ops) // the probe and chain passes return on their first error
	r.derive()
	r.out.spans = r.tr.spans
	return r.out, nil
}

// passEnv sets up one pass's store: fresh directory, program, seed,
// and the warm-up ops.
func (r *tracedRun) passEnv(pass string, listen bool, opts ...persist.Option) (*env, target, error) {
	e, err := openEnv(filepath.Join(r.dir, pass), listen, opts...)
	if err != nil {
		return nil, nil, err
	}
	var t target = handlerTarget{e.srv.Handler()}
	if listen {
		t = newHTTPTarget(e.ts.URL)
	}
	if err := install(t, r.w); err != nil {
		e.close()
		return nil, nil, err
	}
	for _, o := range r.warm {
		if _, err := send(t, o); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, t, nil
}

func (r *tracedRun) newScope() scope { return scope{tr: r.tr, parent: noParent} }

// engineInputs is what a pass that calls core and persist directly
// needs besides the store: the parsed program and the strategy.
func (r *tracedRun) engineInputs(store *persist.Store) (*core.Program, core.Strategy, error) {
	prog, err := parser.ParseProgram(store.Universe(), "program", r.w.program)
	if err != nil {
		return nil, nil, err
	}
	strat, err := strategyFor(r.w.strategy)
	return prog, strat, err
}

// probeStats is what the probe pass counted besides its spans.
type probeStats struct {
	run                 core.RunStats // summed over the probe runs
	rowsLoaded          int
	mallocs, allocBytes uint64
}

// probePass measures what ApplyTxn does inside and does not report.
// For every transaction, on the snapshot it is about to run on, it
// times core.NewInterp (the load) and a whole Engine.Run that installs
// nothing, with a fresh engine as ApplyTxn makes one; from that run
// come the engine's counters and, this being the only goroutine, its
// allocations. The store then applies the transaction, untimed, to
// move on. The probes keep to a pass of their own because they are
// heavy enough to slow down whatever is timed next to them.
func (r *tracedRun) probePass() error {
	e, t, err := r.passEnv(passProbe, false)
	if err != nil {
		return err
	}
	prog, strat, err := r.engineInputs(e.store)
	if err != nil {
		return err
	}
	ctx, u, ps := context.Background(), e.store.Universe(), &probeStats{}
	r.probe = ps
	for i, o := range r.ops {
		if o.kind == opQuery {
			continue
		}
		ups, err := parser.ParseUpdates(u, "transaction", o.text)
		if err != nil {
			return err
		}
		snap := e.store.Snapshot()

		id := r.tr.begin(spanLoad, passProbe, i, noParent)
		in := core.NewInterp(u, snap)
		r.tr.end(id)
		ps.rowsLoaded += in.Store().Stats().BaseRows

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id = r.tr.begin(spanRun, passProbe, i, noParent)
		eng, err := core.NewEngine(u, prog, strat, core.Options{})
		if err != nil {
			return err
		}
		res, err := eng.Run(ctx, snap, ups)
		r.tr.end(id)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		ps.mallocs += m1.Mallocs - m0.Mallocs
		ps.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		rs := res.RunStats
		ps.run.Groundings += rs.Groundings
		ps.run.NewFacts += rs.NewFacts
		ps.run.FullSteps += rs.FullSteps
		ps.run.DeltaSteps += rs.DeltaSteps
		ps.run.Phases += rs.Phases
		ps.run.Conflicts += rs.Conflicts
		ps.run.BlockedInstances += rs.BlockedInstances

		if _, _, err := e.store.ApplyTxn(ctx, prog, ups, strat, core.Options{}); err != nil {
			return err
		}
	}
	_, _, err = checkState(e, t, r.w, r.m)
	r.checked(err)
	return nil
}

// chainPass calls the layers below the server one after the other, as
// the handlers do: parser then store.ApplyTxn for a transaction,
// parser then store.Query (core.EvalQuery on the
// installed state) for a query. The store runs over the
// tracing FS and is given the tracing strategy, so its writes, fsyncs
// and SELECT calls are spans too. At the end it times a checkpoint of
// what the ops left.
func (r *tracedRun) chainPass() error {
	r.fs = &tracedFS{FS: persist.OSFS(), sc: r.newScope()}
	e, t, err := r.passEnv(passChain, false, persist.WithFS(r.fs))
	if err != nil {
		return err
	}
	prog, inner, err := r.engineInputs(e.store)
	if err != nil {
		return err
	}
	strat := &tracedStrategy{Strategy: inner, sc: r.newScope()}
	ctx, u, tr := context.Background(), e.store.Universe(), r.tr
	for i, o := range r.ops {
		parse := tr.begin(spanParse, passChain, i, noParent)
		if o.kind == opQuery {
			q, err := parser.ParseQuery(u, "query", o.text)
			tr.end(parse)
			if err != nil {
				return err
			}
			id := tr.begin(spanQuery, passChain, i, noParent)
			err = e.store.Query(q, func([]core.Sym) bool { r.queryRows++; return true })
			tr.end(id)
			if err != nil {
				return err
			}
			continue
		}
		ups, err := parser.ParseUpdates(u, "transaction", o.text)
		tr.end(parse)
		if err != nil {
			return err
		}
		apply := tr.begin(spanApply, passChain, i, noParent)
		engine := tr.begin(spanInner, passChain, i, apply)
		r.fs.sc.enter(passChain, i, apply)
		strat.sc.enter(passChain, i, engine)
		res, _, err := e.store.ApplyTxn(ctx, prog, ups, strat, core.Options{})
		tr.end(apply)
		if err != nil {
			return err
		}
		// The store does not say when its engine run began, only how
		// long it took; self times need no more than that.
		tr.spans[engine].End = tr.spans[engine].Start + res.RunStats.Wall
	}
	r.fs.sc.leave()
	strat.sc.leave()

	t0 := time.Now()
	if err := e.store.Checkpoint(); err != nil {
		return err
	}
	v := r.out.values
	v["persist.checkpoint_ms"] = ms(time.Since(t0))
	st, err := os.Stat(filepath.Join(e.dir, "snapshot.park"))
	if err != nil {
		return err
	}
	v["persist.snapshot_bytes_per_fact"] = float64(st.Size()) / float64(e.store.Len())
	_, _, err = checkState(e, t, r.w, r.m)
	r.checked(err)
	return nil
}

// handlerPass sends every op through Handler().ServeHTTP, over the
// plain FS (the pass the budget uses) or the tracing one (what the
// wrappers cost).
func (r *tracedRun) handlerPass(pass string) error {
	fs := &tracedFS{FS: persist.OSFS(), sc: r.newScope()}
	var opts []persist.Option
	if pass == passHandlerFS {
		opts = append(opts, persist.WithFS(fs))
	}
	e, t, err := r.passEnv(pass, false, opts...)
	if err != nil {
		return err
	}
	var respBytes [2]float64
	for i, o := range r.ops {
		id := r.tr.begin(spanHandle, pass, i, noParent)
		fs.sc.enter(pass, i, id)
		resp, err := send(t, o)
		r.tr.end(id)
		r.sent(err)
		respBytes[o.kind] += float64(stableLen(resp))
	}
	fs.sc.leave()
	reopen, walRecords, err := checkState(e, t, r.w, r.m)
	r.checked(err)
	if pass == passHandler {
		v := r.out.values
		v["persist.open_ms"], v["persist.wal_records"] = ms(reopen), float64(walRecords)
		v["server.resp_kb_per_txn"] = div(respBytes[opTxn]/1024, r.count(opTxn))
		v["server.resp_kb_per_query"] = div(respBytes[opQuery]/1024, r.count(opQuery))
	}
	return nil
}

// httpPass sends every op over the loopback socket, one client, and
// then runs the two concurrent stages on the same server: closed loop
// for commit retries and group-commit batches, open loop for how late
// the generator runs.
func (r *tracedRun) httpPass(seed int64) error {
	e, t, err := r.passEnv(passHTTP, true)
	if err != nil {
		return err
	}
	for i, o := range r.ops {
		id := r.tr.begin(spanHTTP, passHTTP, i, noParent)
		_, err := send(t, o)
		r.tr.end(id)
		r.sent(err)
	}
	set := newClientSet(r.w, r.m, seed, e.ts.URL)
	defer set.close()
	reg := e.srv.Metrics()
	retries := reg.Counter("park_store_commit_retries_total", "")
	batches := reg.Histogram("park_store_commit_batch_size", "", persist.BatchBuckets)
	r0, b0, n0 := retries.Value(), batches.Sum(), batches.Count()
	peak := closedLoop(set.targets, set.gens, 0, r.p.mini, 0)
	v := r.out.values
	v["persist.commit_retries_per_txn"] = div(float64(retries.Value()-r0), float64(len(latencies(peak.samples, opTxn))))
	v["persist.batch_size_mean"] = div(batches.Sum()-b0, float64(batches.Count()-n0))
	paced, err := pacedLoop(set.targets, set.gens, r.w.rate, r.p.mini, 0)
	if err != nil {
		return err
	}
	v["load.sched_lag_p95_ms"] = ms(quantile(paced.lags, 0.95))
	for _, st := range []*stage{peak, paced} {
		r.out.attempted += len(st.samples)
		r.out.failed += st.failed()
		for _, err := range st.errs {
			r.note(err)
		}
	}
	_, _, err = checkState(e, t, r.w, r.m)
	r.checked(err)
	return nil
}

func (r *tracedRun) count(kind opKind) float64 {
	n := 0.0
	for _, o := range r.ops {
		if o.kind == kind {
			n++
		}
	}
	return n
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durs is the durations of one pass's spans of one name, for the ops
// keep accepts (nil: all).
func (r *tracedRun) durs(pass, name string, keep func(op) bool) []time.Duration {
	var ds []time.Duration
	for _, s := range r.tr.spans {
		if s.Pass == pass && s.Name == name && (keep == nil || keep(r.ops[s.Op])) {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// derive turns spans and counts into the per-layer metrics and the two
// budget lines.
func (r *tracedRun) derive() {
	v, ps := r.out.values, r.probe
	isTxn := func(o op) bool { return o.kind == opTxn }
	isQuery := func(o op) bool { return o.kind == opQuery }
	med := func(pass, name string, keep func(op) bool) time.Duration { return median(r.durs(pass, name, keep)) }
	nTxn, nQry := r.count(opTxn), r.count(opQuery)

	v["parser.parse_us"] = us(med(passChain, spanParse, nil))
	v["core.load_ms"] = ms(med(passProbe, spanLoad, nil))
	v["core.run_ms"] = ms(med(passProbe, spanRun, nil))
	v["core.query_ms"] = ms(med(passChain, spanQuery, nil))
	v["resolve.select_us"] = us(med(passChain, spanSelect, nil))
	v["persist.apply_ms"] = ms(med(passChain, spanApply, nil))
	v["persist.fsync_ms"] = ms(med(passChain, spanFsync, nil))
	writes := make([]time.Duration, len(r.ops)) // a transaction's writes, summed
	for _, s := range r.tr.spans {
		if s.Pass == passChain && s.Name == spanWrite {
			writes[s.Op] += s.dur()
		}
	}
	var txnWrites []time.Duration
	for i, o := range r.ops {
		if isTxn(o) {
			txnWrites = append(txnWrites, writes[i])
		}
	}
	v["persist.write_ms"] = ms(median(txnWrites))
	v["server.handle_ms"] = ms(med(passHandler, spanHandle, isTxn))
	v["server.query_handle_ms"] = ms(med(passHandler, spanHandle, isQuery))
	v["load.trace_overhead_pct"] = 100 * (div(float64(med(passHandlerFS, spanHandle, nil)), float64(med(passHandler, spanHandle, nil))) - 1)

	rs := ps.run
	v["storage.rows_loaded_per_txn"] = div(float64(ps.rowsLoaded), nTxn)
	v["core.groundings_per_txn"] = div(float64(rs.Groundings), nTxn)
	v["core.groundings_per_new_fact"] = div(float64(rs.Groundings), float64(rs.NewFacts))
	v["core.new_facts_per_txn"] = div(float64(rs.NewFacts), nTxn)
	v["core.full_steps_per_txn"] = div(float64(rs.FullSteps), nTxn)
	v["core.delta_steps_per_txn"] = div(float64(rs.DeltaSteps), nTxn)
	v["core.phases_per_txn"] = div(float64(rs.Phases), nTxn)
	v["core.conflicts_per_txn"] = div(float64(rs.Conflicts), nTxn)
	v["core.blocked_per_txn"] = div(float64(rs.BlockedInstances), nTxn)
	v["core.allocs_per_txn"] = div(float64(ps.mallocs), nTxn)
	v["core.alloc_kb_per_txn"] = div(float64(ps.allocBytes)/1024, nTxn)
	v["core.rows_per_query"] = div(float64(r.queryRows), nQry)
	v["resolve.selects_per_txn"] = div(float64(len(r.durs(passChain, spanSelect, nil))), nTxn)
	v["persist.wal_bytes_per_txn"] = div(float64(r.fs.walBytes), nTxn)
	v["persist.fsyncs_per_txn"] = div(float64(len(r.durs(passChain, spanFsync, nil))), nTxn)

	matchOps(r.tr.spans)
	bs := budgets(r.tr.spans, len(r.ops))
	r.out.txn, r.out.qry = budgetOf(bs, r.ops, opTxn), budgetOf(bs, r.ops, opQuery)
	v["persist.self_ms"] = ms(r.out.txn.stages["persist"])
	v["server.self_ms"] = ms(r.out.txn.stages["server"])
	v["load.net_ms"] = ms(r.out.txn.stages["load"])
}

// runTraced runs and prints the traced run.
func runTraced(out io.Writer, w *workload, seed int64, p plan, dir, spansFile string) (*result, error) {
	tr, err := traceRun(w, seed, p, dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  traced run: single client, %d ops a pass (sha256 %.12s), passes chain, handler, handler+tracer, http; then %d clients for %.1f s closed and %.1f s paced\n",
		p.passOps, tr.opsSHA, clients, p.mini.Seconds(), p.mini.Seconds())
	for _, err := range tr.errs {
		fmt.Fprintf(out, "  FAILED: %v\n", err)
	}
	fmt.Fprintf(out, "  budget txn:   %s\n", tr.txn)
	fmt.Fprintf(out, "  budget query: %s\n", tr.qry)
	res := &result{Correct: tr.failed == 0 && !tr.wrong, Attempted: tr.attempted, Failed: tr.failed}
	res.Metrics = collect(out, perLayer, tr.values)
	if spansFile != "" {
		if err := writeSpans(spansFile, tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeSpans(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
