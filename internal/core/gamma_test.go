package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/workload"
)

// gammaFixture is one transaction whose Engine.Run TestGammaPinned
// pins exactly, TestGammaAllocBudget holds to an allocation budget and
// the BenchmarkGamma* benchmarks time.
type gammaFixture struct {
	program, db, updates string
	strategy             core.Strategy
	want                 string // D after the transaction, as database text
}

// closureFixture is a closure-maint write: a 32-node ring with 8 of its
// 16 chords and the complete transitive closure, then a ninth chord
// inserted. The closure does not change, but Γ re-derives all of it.
func closureFixture() gammaFixture {
	const nodes = 32
	chord := func(k int) string { return fmt.Sprintf("edge(n%d, n%d). ", 2*k, (2*k+9)%nodes) }
	var db strings.Builder
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&db, "edge(n%d, n%d). ", i, (i+1)%nodes)
	}
	for k := 0; k < 16; k += 4 {
		db.WriteString(chord(k) + chord(k+1))
	}
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			fmt.Fprintf(&db, "tc(n%d, n%d). ", i, j)
		}
	}
	return gammaFixture{
		program:  workload.TransitiveClosure(2, 0, 0).Program,
		db:       db.String(),
		updates:  "+" + chord(2),
		strategy: core.InertiaStrategy{},
		want:     db.String() + chord(2),
	}
}

// ladderFixture is a conflict-ladder write: the update climbs eight
// rungs for key k2 and meets one conflict on each, which the priority
// strategy settles for the insertion on odd rungs.
func ladderFixture() gammaFixture {
	const rungs = 8
	var prog, climbed strings.Builder
	for i := 1; i <= rungs; i++ {
		fmt.Fprintf(&prog, "rule drive%d priority %d: +s%d(X) -> +s%d(X).\n", i, i, i-1, i)
		fmt.Fprintf(&prog, "rule ins%d priority %d: +s%d(X) -> +c%d(X).\n", i, 10+i%2, i, i)
		fmt.Fprintf(&prog, "rule del%d priority %d: +s%d(X) -> -c%d(X).\n", i, 11-i%2, i, i)
		fmt.Fprintf(&climbed, "s%d(k2). ", i)
		if i%2 == 1 {
			fmt.Fprintf(&climbed, "c%d(k2). ", i)
		}
	}
	const db = "s0(k0). s0(k1). s0(k2). s0(k3). mark(k0). mark(k1). "
	return gammaFixture{
		program:  prog.String(),
		db:       db,
		updates:  "+s0(k2). +mark(k2).",
		strategy: priorityStrategy,
		want:     db + "mark(k2). " + climbed.String(),
	}
}

// staleFixture is the stale-conflict shape over six keys: +a(X) is
// derived from !b(X), which the same step's +b(X) falsifies, so when
// -a(X) arrives every insert side is recovered from provenance. r4
// reads a(X) under negation, so the blocked r1 groundings flip what
// it derives; a(k1) starts in D and c(k2) keeps r4 off k2.
func staleFixture() gammaFixture {
	const db = "p(k0). p(k1). p(k2). p(k3). p(k4). p(k5). a(k1). c(k2). "
	return gammaFixture{
		program: `
			rule r1: p(X), !b(X) -> +a(X).
			rule r2: p(X) -> +b(X).
			rule r3: b(X) -> -a(X).
			rule r4: a(X), !c(X) -> +d(X).
		`,
		db:       db,
		updates:  "+p(k6).",
		strategy: core.InertiaStrategy{},
		want:     db + "b(k0). b(k1). b(k2). b(k3). b(k4). b(k5). b(k6). d(k1). p(k6). ",
	}
}

// gammaRunner parses the fixture once and returns its universe and a
// function that builds an engine and runs the transaction, as the
// store does for every write.
func gammaRunner(tb testing.TB, fx gammaFixture) (*core.Universe, func() *core.Result) {
	tb.Helper()
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "prog", fx.program)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := parser.ParseDatabase(u, "db", fx.db)
	if err != nil {
		tb.Fatal(err)
	}
	ups, err := parser.ParseUpdates(u, "upd", fx.updates)
	if err != nil {
		tb.Fatal(err)
	}
	return u, func() *core.Result {
		eng, err := core.NewEngine(u, prog, fx.strategy, core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		res, err := eng.Run(context.Background(), db, ups)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
}

// gammaPin is what a run must reproduce exactly: its counters, each
// rule's work, and the order of the blocked set and of the conflicts.
type gammaPin struct {
	Stats      core.RunStats // counters only: timings and Rules are cleared
	Groundings []int64       // per rule of P_U
	Fires      []int64
	Blocked    []string
	Conflicts  []string
}

func pinOf(u *core.Universe, res *core.Result) gammaPin {
	p := gammaPin{Stats: res.RunStats}
	p.Stats.PhaseWall, p.Stats.Wall, p.Stats.Rules = nil, 0, nil
	for _, r := range res.RunStats.Rules {
		p.Groundings = append(p.Groundings, r.Groundings)
		p.Fires = append(p.Fires, r.Fires)
	}
	for _, g := range res.Blocked {
		p.Blocked = append(p.Blocked, groundingText(u, g))
	}
	for _, rc := range res.Conflicts {
		c := rc.Conflict
		p.Conflicts = append(p.Conflicts, fmt.Sprintf("%s ins=%s del=%s -> %s",
			u.AtomString(c.Atom), groundingsText(u, c.Ins), groundingsText(u, c.Del), rc.Decision))
	}
	return p
}

// groundingText renders a grounding as its rule index and
// substitution, e.g. 3[k2].
func groundingText(u *core.Universe, g core.Grounding) string {
	names := make([]string, len(g.Args))
	for i, a := range g.Args {
		names[i] = u.Syms.Name(a)
	}
	return fmt.Sprintf("%d[%s]", g.Rule, strings.Join(names, " "))
}

func groundingsText(u *core.Universe, gs []core.Grounding) string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = groundingText(u, g)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestGammaPinned pins two benchmark-shaped runs and a stale-conflict
// run exactly, so that a change to what a grounding costs cannot change
// which groundings run.
func TestGammaPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		fx   gammaFixture
		want gammaPin
	}{
		{"closure", closureFixture(), gammaPin{
			Stats: core.RunStats{Phases: 1, Steps: 1, Derivations: 2634, NewFacts: 1025,
				FullSteps: 1, DeltaSteps: 1, Groundings: 2698},
			Groundings: []int64{41, 2656, 1},
			Fires:      []int64{41, 2592, 1},
		}},
		{"ladder", ladderFixture(), gammaPin{
			Stats: core.RunStats{Phases: 9, Steps: 54, Conflicts: 8, BlockedInstances: 8,
				Derivations: 121, NewFacts: 98, Restarts: 8, FullSteps: 9, DeltaSteps: 54,
				Groundings: 157, InsertDecisions: 4, DeleteDecisions: 4},
			Groundings: []int64{9, 9, 9, 9, 8, 8, 8, 7, 7, 7, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3, 3, 2, 2, 9, 9},
			Fires:      []int64{9, 9, 1, 9, 1, 8, 8, 7, 1, 7, 1, 6, 6, 5, 1, 5, 1, 4, 4, 3, 1, 3, 1, 2, 9, 9},
			Blocked:    []string{"2[k2]", "4[k2]", "8[k2]", "10[k2]", "14[k2]", "16[k2]", "20[k2]", "22[k2]"},
			Conflicts: []string{
				"c1(k2) ins=[1[k2]] del=[2[k2]] -> insert",
				"c2(k2) ins=[4[k2]] del=[5[k2]] -> delete",
				"c3(k2) ins=[7[k2]] del=[8[k2]] -> insert",
				"c4(k2) ins=[10[k2]] del=[11[k2]] -> delete",
				"c5(k2) ins=[13[k2]] del=[14[k2]] -> insert",
				"c6(k2) ins=[16[k2]] del=[17[k2]] -> delete",
				"c7(k2) ins=[19[k2]] del=[20[k2]] -> insert",
				"c8(k2) ins=[22[k2]] del=[23[k2]] -> delete",
			},
		}},
		{"stale", staleFixture(), gammaPin{
			Stats: core.RunStats{Phases: 3, Steps: 6, Conflicts: 7, StaleConflicts: 7, BlockedInstances: 7,
				Derivations: 63, NewFacts: 46, Restarts: 2, FullSteps: 3, DeltaSteps: 6, Groundings: 76,
				InsertDecisions: 1, DeleteDecisions: 6},
			Groundings: []int64{21, 21, 20, 11, 3},
			Fires:      []int64{10, 21, 18, 11, 3},
			Blocked:    []string{"2[k1]", "0[k0]", "0[k2]", "0[k3]", "0[k4]", "0[k5]", "0[k6]"},
			Conflicts: []string{
				"a(k1) ins=[0[k1]] del=[2[k1]] -> insert",
				"a(k0) ins=[0[k0]] del=[2[k0]] -> delete",
				"a(k2) ins=[0[k2]] del=[2[k2]] -> delete",
				"a(k3) ins=[0[k3]] del=[2[k3]] -> delete",
				"a(k4) ins=[0[k4]] del=[2[k4]] -> delete",
				"a(k5) ins=[0[k5]] del=[2[k5]] -> delete",
				"a(k6) ins=[0[k6]] del=[2[k6]] -> delete",
			},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, run := gammaRunner(t, tc.fx)
			res := run()
			want, err := parser.ParseDatabase(u, "want", tc.fx.want)
			if err != nil {
				t.Fatal(err)
			}
			if got, w := dbString(u, res.Output), dbString(u, want); got != w {
				t.Fatalf("output = {%s}\nwant {%s}", got, w)
			}
			if got := pinOf(u, res); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("run = %#v\nwant %#v", got, tc.want)
			}
		})
	}
}

// TestGammaAllocBudget holds what one grounding folded into Γ costs: a
// closure-maint run, engine construction included, allocates at most
// four times per grounding. Dedup keys, atom lookups, the provenance
// log and the matcher allocate nothing on their common path.
func TestGammaAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 4
	_, run := gammaRunner(t, closureFixture())
	var groundings int64
	allocs := testing.AllocsPerRun(5, func() { groundings = run().RunStats.Groundings })
	perGrounding := allocs / float64(groundings)
	t.Logf("%.0f allocations for %d groundings: %.2f per grounding", allocs, groundings, perGrounding)
	if perGrounding > budget {
		t.Fatalf("%.2f allocations per grounding, budget %d", perGrounding, budget)
	}
}

// TestStaleSidesLinear counts the provenance entries the stale conflict
// sides read on the N-key stale shape: one pass over the phase's log
// for all N sides, so the count per side does not grow with N.
func TestStaleSidesLinear(t *testing.T) {
	perSide := func(n int) float64 {
		var db strings.Builder
		for k := 0; k < n; k++ {
			fmt.Fprintf(&db, "p(k%d). ", k)
		}
		u := core.NewUniverse()
		prog, err := parser.ParseProgram(u, "prog", `
			p(X), !b(X) -> +a(X).
			p(X) -> +b(X).
			b(X) -> -a(X).
		`)
		if err != nil {
			t.Fatal(err)
		}
		d, err := parser.ParseDatabase(u, "db", db.String())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(u, prog, core.InertiaStrategy{}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.RunStats.StaleConflicts; got != n {
			t.Fatalf("N=%d: %d stale conflicts, want %d", n, got, n)
		}
		return float64(core.ProvVisits(eng)) / float64(n)
	}
	small, large := perSide(50), perSide(2000)
	t.Logf("provenance entries read per stale side: %.2f at N=50, %.2f at N=2000", small, large)
	if large > small || large > 4 {
		t.Fatalf("per stale side: %.2f entries at N=2000, %.2f at N=50; want at most 4 at both", large, small)
	}
}

func BenchmarkGammaClosure(b *testing.B) { benchGamma(b, closureFixture()) }

func BenchmarkGammaLadder(b *testing.B) { benchGamma(b, ladderFixture()) }

func benchGamma(b *testing.B, fx gammaFixture) {
	_, run := gammaRunner(b, fx)
	var groundings int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groundings = run().RunStats.Groundings
	}
	b.ReportMetric(float64(groundings), "groundings/op")
}
