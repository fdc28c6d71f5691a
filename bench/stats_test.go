package main

import (
	"math"
	"testing"
	"time"
)

const msec = time.Millisecond

// forest is two ops as the three passes leave them: op 0 a transaction
// with nested children (select inside the inner engine run, write and
// fsync beside it), op 1 a query; plus a probe that is on no request
// path.
func forest() ([]span, []op) {
	var spans []span
	add := func(name, pass string, op, parent int, dur time.Duration) int {
		id := len(spans)
		start := time.Duration(id) * time.Second
		spans = append(spans, span{Name: name, Pass: pass, Op: op, ID: id, Parent: parent, Start: start, End: start + dur})
		return id
	}
	add(spanParse, passChain, 0, noParent, 1*msec)
	probe := add(spanRun, passProbe, 0, noParent, 40*msec)
	add(spanLoad, passProbe, 0, probe, 3*msec)
	apply := add(spanApply, passChain, 0, noParent, 50*msec)
	inner := add(spanInner, passChain, 0, apply, 30*msec)
	add(spanSelect, passChain, 0, inner, 2*msec)
	add(spanSelect, passChain, 0, inner, 2*msec)
	add(spanWrite, passChain, 0, apply, 1*msec)
	add(spanFsync, passChain, 0, apply, 9*msec)
	add(spanParse, passChain, 1, noParent, 1*msec)
	add(spanQuery, passChain, 1, noParent, 5*msec)
	add(spanHandle, passHandler, 0, noParent, 60*msec)
	add(spanHandle, passHandler, 1, noParent, 8*msec)
	tracedHandle := add(spanHandle, passHandlerFS, 0, noParent, 61*msec)
	add(spanFsync, passHandlerFS, 0, tracedHandle, 9*msec)
	add(spanHTTP, passHTTP, 0, noParent, 63*msec)
	add(spanHTTP, passHTTP, 1, noParent, 10*msec)
	return spans, []op{{kind: opTxn}, {kind: opQuery}}
}

func TestSelfTimeAndBudget(t *testing.T) {
	spans, ops := forest()

	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1:  37 * msec, // probe run minus its select
		3:  10 * msec, // apply minus inner run, write, fsync
		4:  26 * msec, // inner run minus two selects (siblings)
		5:  2 * msec,  // a leaf is all self
		11: 60 * msec, // handler: nothing matched under it yet
	} {
		if self[id] != want {
			t.Errorf("before matching, self time of span %d (%s) = %v, want %v", id, spans[id].Name, self[id], want)
		}
	}

	matchOps(spans)
	bs := budgets(spans, len(ops))
	want := []map[string]time.Duration{
		{"parser": 1 * msec, "core": 26 * msec, "resolve": 4 * msec, "persist": 20 * msec, "server": 9 * msec, "load": 3 * msec},
		{"parser": 1 * msec, "core": 5 * msec, "server": 2 * msec, "load": 2 * msec},
	}
	for i, b := range bs {
		var sum time.Duration
		for _, l := range budgetLayers {
			if b.parts[l] != want[i][l] {
				t.Errorf("op %d: layer %s self = %v, want %v", i, l, b.parts[l], want[i][l])
			}
			sum += b.parts[l]
		}
		if sum != b.total {
			t.Errorf("op %d: layer self times add up to %v, its http span is %v", i, sum, b.total)
		}
	}

	line := budgetOf(bs, ops, opTxn)
	if line.sum != 63*msec || line.http != 63*msec || line.residual != 0 {
		t.Errorf("txn budget of one op: sum %v http %v residual %v, want 63ms 63ms 0", line.sum, line.http, line.residual)
	}
	// With several ops the stage medians come from different ops and
	// no longer add up; the residual is exactly what is missing.
	bs = append(bs, opBudget{total: 100 * msec, parts: map[string]time.Duration{"core": 90 * msec, "load": 10 * msec}},
		opBudget{total: 80 * msec, parts: map[string]time.Duration{"persist": 75 * msec, "load": 5 * msec}})
	ops = append(ops, op{kind: opTxn}, op{kind: opTxn})
	line = budgetOf(bs, ops, opTxn)
	if line.http != 80*msec || line.sum != 26*msec+20*msec+5*msec || line.residual != line.http-line.sum {
		t.Errorf("txn budget of three ops: %+v", line)
	}
}

func TestCalmestWindow(t *testing.T) {
	var samples []sample
	for w := 0; w < 5; w++ {
		for i := 1; i <= 20; i++ {
			lat := time.Duration(i) * msec
			if w == 3 {
				lat *= 10 // one stalled window
			}
			samples = append(samples, sample{kind: opTxn, window: w, lat: lat})
		}
		samples = append(samples, sample{kind: opQuery, window: w, lat: time.Hour})
	}
	if got := windowQuantiles(samples, opTxn, 5, 0.95); got[0] != 19*msec || got[3] != 190*msec {
		t.Errorf("window p95s = %v, want 19ms in a quiet window and 190ms in the stalled one", got)
	}
	if got := calmest(samples, opTxn, 5, 0.95); got != 19*msec {
		t.Errorf("calmest-window p95 = %v, want 19ms: the stalled window must not move it", got)
	}
	if got := calmest(samples, opTxn, 7, 0.95); got != 19*msec {
		t.Errorf("calmest-window p95 = %v with two empty windows, want 19ms: an empty window is not calm", got)
	}
	// A failed op has whatever latency its error took; it counts as the
	// slowest op of its window instead.
	samples = append(samples, sample{kind: opTxn, window: 0, lat: 1 * msec, failed: true})
	if got := windowQuantiles(samples, opTxn, 5, 1)[0]; got != 20*msec {
		t.Errorf("max of the window with a failed op = %v, want 20ms", got)
	}
	if got := windowQuantiles(samples, opTxn, 5, 0.5)[0]; got != 11*msec {
		t.Errorf("p50 of the window with a failed op = %v, want 11ms (21 samples, the failed one at the top)", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	share, med := spread(xs)
	if med != 5.5 || math.Abs(share-1.0) > 1e-12 {
		t.Errorf("spread = %v of median %v, want 1.0 of 5.5", share, med)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12.0, 16.5]
	share, med = spread([]float64{10, 11, 12, 13, 20})
	if med != 12 || math.Abs(share-0.5) > 1e-12 {
		t.Errorf("spread = %v of median %v, want 0.5 of 12", share, med)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		diff, noise, bound float64
		lower              bool
		want               string
	}{
		{0.05, 0.03, 0.10, true, "same"},
		{0.15, 0.03, 0.10, true, "worse"},
		{-0.15, 0.03, 0.10, true, "better"},
		{0.15, 0.03, 0.10, false, "better"},
		{-0.15, 0.03, 0.10, false, "worse"},
		{0.05, 0.20, 0.10, true, "unresolved"},
		{0.15, 0.20, 0.10, true, "unresolved"}, // beyond the bound but inside the noise
		{0.30, 0.20, 0.10, true, "worse"},
	} {
		if got := verdict(c.diff, c.noise, c.bound, c.lower); got != c.want {
			t.Errorf("verdict(diff %v, noise %v, bound %v, lower-is-better %v) = %s, want %s", c.diff, c.noise, c.bound, c.lower, got, c.want)
		}
	}
}

func TestStableLen(t *testing.T) {
	a := []byte(`{"facts":["p"],"wallSeconds":0.000123456,"seq":7}`)
	b := []byte(`{"facts":["p"],"wallSeconds":0.01,"seq":7}`)
	if stableLen(a) != stableLen(b) {
		t.Errorf("stableLen differs with the digits of wallSeconds: %d and %d", stableLen(a), stableLen(b))
	}
	q := []byte(`{"vars":["X"],"rows":[["a"]]}`)
	if stableLen(q) != len(q) {
		t.Errorf("stableLen changed a response without wallSeconds")
	}
}
