package core_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/workload"
)

// runPark parses and evaluates one scenario, failing the test on any
// setup error.
func runPark(t *testing.T, progSrc, dbSrc, updSrc string, strategy core.Strategy, opts core.Options) (*core.Universe, *core.Result) {
	t.Helper()
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "prog", progSrc)
	if err != nil {
		t.Fatalf("parse program: %v", err)
	}
	db, err := parser.ParseDatabase(u, "db", dbSrc)
	if err != nil {
		t.Fatalf("parse database: %v", err)
	}
	var ups []core.Update
	if updSrc != "" {
		ups, err = parser.ParseUpdates(u, "upd", updSrc)
		if err != nil {
			t.Fatalf("parse updates: %v", err)
		}
	}
	eng, err := core.NewEngine(u, prog, strategy, opts)
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	res, err := eng.Run(context.Background(), db, ups)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return u, res
}

// dbString renders a database as a sorted comma-separated atom list.
func dbString(u *core.Universe, d *core.Database) string {
	ids := append([]core.AID(nil), d.Atoms()...)
	u.SortAtoms(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = u.AtomString(id)
	}
	return strings.Join(parts, ", ")
}

func checkResult(t *testing.T, u *core.Universe, res *core.Result, want string) {
	t.Helper()
	if got := dbString(u, res.Output); got != want {
		t.Fatalf("result = {%s}, want {%s}", got, want)
	}
}

// priorityStrategy implements the §5 rule-priority policy: the
// conflict side containing the highest-priority rule wins.
var priorityStrategy = core.StrategyFunc{
	StrategyName: "priority",
	Fn: func(in *core.SelectInput) (core.Decision, error) {
		maxPrio := func(gs []core.Grounding) int {
			m := int(^uint(0)>>1) * -1 // MinInt
			for _, g := range gs {
				if p := in.Program.Rules[g.Rule].Priority; p > m {
					m = p
				}
			}
			return m
		}
		if maxPrio(in.Conflict.Ins) >= maxPrio(in.Conflict.Del) {
			return core.DecideInsert, nil
		}
		return core.DecideDelete, nil
	},
}

// --- E-series: the paper's worked examples ---

// E1: §4.1 program P1 on D = {p} under inertia. The conflicting pair
// +a/-a is suppressed; result {p, q}.
func TestPaperE1(t *testing.T) {
	prog := `
		p -> +q.
		p -> -a.
		q -> +a.
	`
	u, res := runPark(t, prog, `p.`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "p, q")
	if res.RunStats.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", res.RunStats.Conflicts)
	}
}

// E2: §4.1 program P2. Naive post-hoc conflict elimination would keep
// s (derived from the withdrawn +a); PARK must yield {p, q, r}.
func TestPaperE2(t *testing.T) {
	prog := `
		p -> +q.
		p -> -a.
		q -> +a.
		!a -> +r.
		a -> +s.
	`
	u, res := runPark(t, prog, `p.`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "p, q, r")
}

// E3: §4.1 program P3 (false conflicts). q's conflict must not poison
// a, which rule 5 derives independently: result {a, p}.
func TestPaperE3(t *testing.T) {
	prog := `
		p -> +q.
		p -> -q.
		q -> +a.
		q -> -a.
		p -> +a.
	`
	u, res := runPark(t, prog, `p.`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "a, p")
	// Only the q conflict is ever resolved; a's "ambiguity" is false.
	for _, rc := range res.Conflicts {
		if u.AtomString(rc.Conflict.Atom) != "q" {
			t.Fatalf("unexpected conflict on %s", u.AtomString(rc.Conflict.Atom))
		}
	}
}

// E4: the §4.2 graph example with the paper's ad-hoc SELECT: keep no
// reflexive arcs and no arcs between a and c; the final graph is the
// 4 arcs a<->b and b<->c.
func TestPaperE4(t *testing.T) {
	prog := `
		rule r1: p(X), p(Y) -> +q(X, Y).
		rule r2: q(X, X) -> -q(X, X).
		rule r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).
	`
	strat := core.StrategyFunc{
		StrategyName: "paper-graph",
		Fn: func(in *core.SelectInput) (core.Decision, error) {
			args := in.Universe.AtomArgs(in.Conflict.Atom)
			x := in.Universe.Syms.Name(args[0])
			y := in.Universe.Syms.Name(args[1])
			if x == y || (x == "a" && y == "c") || (x == "c" && y == "a") {
				return core.DecideDelete, nil
			}
			return core.DecideInsert, nil
		},
	}
	u, res := runPark(t, prog, `p(a). p(b). p(c).`, "", strat, core.Options{})
	checkResult(t, u, res, "p(a), p(b), p(c), q(a, b), q(b, a), q(b, c), q(c, b)")
	if res.RunStats.Conflicts != 9 {
		t.Fatalf("conflicts = %d, want 9 (one per q atom)", res.RunStats.Conflicts)
	}
	// The losing r1 instances must be blocked for the 5 deleted arcs.
	blockedR1 := 0
	for _, g := range res.Blocked {
		if g.Rule == 0 {
			blockedR1++
		}
	}
	if blockedR1 != 5 {
		t.Fatalf("blocked r1 instances = %d, want 5", blockedR1)
	}
}

// E5: §4.3 full ECA rules without conflicts. The event literal +r(X)
// triggers the deletion of s(X); the transaction update +q(b) cascades.
func TestPaperE5(t *testing.T) {
	prog := `
		rule r1: p(X) -> +q(X).
		rule r2: q(X) -> +r(X).
		rule r3: +r(X) -> -s(X).
	`
	u, res := runPark(t, prog, `p(a). s(a). s(b).`, `+q(b).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "p(a), q(a), q(b), r(a), r(b)")
	if res.RunStats.Conflicts != 0 || res.RunStats.Phases != 1 {
		t.Fatalf("stats = %+v, want conflict-free single phase", res.RunStats)
	}
}

// E6: §4.3 ECA with a conflict under inertia. p(a,a) ∈ D, so the
// conflict between r1 (delete) and r3 (insert) resolves to insert,
// blocking r1. The paper's printed result omits q(a, a), but its own
// incorp definition keeps it (the update rule -> +q(a,a) always
// fires); see EXPERIMENTS.md for this erratum.
func TestPaperE6(t *testing.T) {
	prog := `
		rule r1: q(X, a) -> -p(X, a).
		rule r2: q(a, X) -> +r(a, X).
		rule r3: +r(X, Y) -> +p(X, Y).
	`
	u, res := runPark(t, prog, `p(a, a). p(a, b). p(a, c).`, `+q(a, a).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "p(a, a), p(a, b), p(a, c), q(a, a), r(a, a)")
	if len(res.Conflicts) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(res.Conflicts))
	}
	rc := res.Conflicts[0]
	if u.AtomString(rc.Conflict.Atom) != "p(a, a)" || rc.Decision != core.DecideInsert {
		t.Fatalf("conflict = %s decision %v", u.AtomString(rc.Conflict.Atom), rc.Decision)
	}
	// The blocked instance must be r1's (the losing, deleting side).
	if len(res.Blocked) != 1 || res.Blocked[0].Rule != 0 {
		t.Fatalf("blocked = %v", res.Blocked)
	}
}

const sec5Program = `
	rule r1 priority 1: p -> +a.
	rule r2 priority 2: p -> +q.
	rule r3 priority 3: a -> +b.
	rule r4 priority 4: a -> -q.
	rule r5 priority 5: b -> +q.
`

// E7: §5 under inertia: two successive conflicts on q block r2 then
// r5; result {p, a, b}.
func TestPaperE7(t *testing.T) {
	u, res := runPark(t, sec5Program, `p.`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "a, b, p")
	if res.RunStats.Conflicts != 2 || res.RunStats.Phases != 3 {
		t.Fatalf("stats = %+v, want 2 conflicts over 3 phases", res.RunStats)
	}
	wantBlocked := []string{"r2", "r5"}
	if len(res.Blocked) != 2 {
		t.Fatalf("blocked = %v", res.Blocked)
	}
	for i, g := range res.Blocked {
		if name := res.Conflicts[i].Conflict.Atom; name < 0 {
			t.Fatal("bad conflict atom")
		}
		if got := "r" + string(rune('1'+g.Rule)); got != wantBlocked[i] {
			t.Fatalf("blocked[%d] = %s, want %s", i, got, wantBlocked[i])
		}
	}
}

// E8: §5's second inertia example, where inertia gives the
// counterintuitive {a} (the paper discusses why {a, d} might be
// expected).
func TestPaperE8(t *testing.T) {
	prog := `
		rule r1: a -> +b.
		rule r2: a -> +d.
		rule r3: b -> +c.
		rule r4: b -> -d.
		rule r5: c -> -b.
	`
	u, res := runPark(t, prog, `a.`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "a")
	// First conflict is on d (blocking r2), second on b (blocking r1).
	if len(res.Conflicts) != 2 {
		t.Fatalf("conflicts = %d", len(res.Conflicts))
	}
	if u.AtomString(res.Conflicts[0].Conflict.Atom) != "d" || u.AtomString(res.Conflicts[1].Conflict.Atom) != "b" {
		t.Fatalf("conflict order: %s then %s",
			u.AtomString(res.Conflicts[0].Conflict.Atom), u.AtomString(res.Conflicts[1].Conflict.Atom))
	}
}

// E9: §5 under rule priority: r4 (4) beats r2 (2), then r5 (5) beats
// r4; result {p, a, b, q}.
func TestPaperE9(t *testing.T) {
	u, res := runPark(t, sec5Program, `p.`, "", priorityStrategy, core.Options{})
	checkResult(t, u, res, "a, b, p, q")
	if res.RunStats.Conflicts != 2 {
		t.Fatalf("conflicts = %d, want 2", res.RunStats.Conflicts)
	}
	if res.Conflicts[0].Decision != core.DecideDelete || res.Conflicts[1].Decision != core.DecideInsert {
		t.Fatalf("decisions = %v, %v", res.Conflicts[0].Decision, res.Conflicts[1].Decision)
	}
}

// E10: the §2 payroll example rule.
func TestPaperE10(t *testing.T) {
	prog := `emp(X), !active(X), payroll(X, S) -> -payroll(X, S).`
	db := `
		emp(tom). emp(ann).
		active(ann).
		payroll(tom, 100). payroll(ann, 120).
	`
	u, res := runPark(t, prog, db, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "active(ann), emp(ann), emp(tom), payroll(ann, 120)")
}

// --- engine behavior ---

func TestRecursiveRules(t *testing.T) {
	// Transitive closure: recursion through insertions.
	prog := `
		edge(X, Y) -> +tc(X, Y).
		tc(X, Y), edge(Y, Z) -> +tc(X, Z).
	`
	db := `edge(a, b). edge(b, c). edge(c, d).`
	u, res := runPark(t, prog, db, "", core.InertiaStrategy{}, core.Options{})
	want := "edge(a, b), edge(b, c), edge(c, d), tc(a, b), tc(a, c), tc(a, d), tc(b, c), tc(b, d), tc(c, d)"
	checkResult(t, u, res, want)
}

func TestUpdateOnlyRun(t *testing.T) {
	u, res := runPark(t, ``, `p(a). p(b).`, `-p(a). +q(c).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "p(b), q(c)")
}

func TestConflictingUpdatesResolvedBySelect(t *testing.T) {
	// +p(a) and -p(a) as transaction updates conflict; inertia keeps
	// the original status.
	u, res := runPark(t, ``, `p(a).`, `+p(a). -p(a).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "p(a)")
	u2, res2 := runPark(t, ``, ``, `+p(a). -p(a).`, core.InertiaStrategy{}, core.Options{})
	if res2.Output.Len() != 0 {
		t.Fatalf("result = {%s}, want empty", dbString(u2, res2.Output))
	}
	_ = u
}

func TestEmptyEverything(t *testing.T) {
	u, res := runPark(t, ``, ``, ``, core.InertiaStrategy{}, core.Options{})
	if res.Output.Len() != 0 || res.RunStats.Phases != 1 {
		t.Fatalf("result = {%s}, stats %+v", dbString(u, res.Output), res.RunStats)
	}
}

// Stale derivations: +a is derived from !b, which a later +b
// falsifies; when -a then arrives, the paper's literal conflicts
// definition is empty. The default engine recovers via provenance;
// StrictConflicts reports ErrNoProgress.
const staleProgram = `
	rule r1: p, !b -> +a.
	rule r2: p -> +b.
	rule r3: b -> -a.
`

func TestStaleConflictProvenance(t *testing.T) {
	u, res := runPark(t, staleProgram, `p.`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "b, p")
	if res.RunStats.StaleConflicts != 1 {
		t.Fatalf("stale conflicts = %d, want 1", res.RunStats.StaleConflicts)
	}
	// The blocked instance must be r1 (the stale inserting side).
	if len(res.Blocked) != 1 || res.Blocked[0].Rule != 0 {
		t.Fatalf("blocked = %+v", res.Blocked)
	}
}

func TestStaleConflictStrictErrors(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", staleProgram)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.ParseDatabase(u, "", `p.`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(u, prog, core.InertiaStrategy{}, core.Options{StrictConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), db, nil)
	if !errors.Is(err, core.ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

func TestStrategyErrorPropagates(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", `p -> +a. p -> -a.`)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := parser.ParseDatabase(u, "", `p.`)
	boom := errors.New("boom")
	strat := core.StrategyFunc{StrategyName: "failing", Fn: func(*core.SelectInput) (core.Decision, error) {
		return 0, boom
	}}
	eng, err := core.NewEngine(u, prog, strat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), db, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	var es *core.ErrStrategy
	if !errors.As(err, &es) || es.Strategy != "failing" {
		t.Fatalf("err = %v, want ErrStrategy{failing}", err)
	}
}

func TestContextCancellation(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", `edge(X,Y) -> +tc(X,Y). tc(X,Y), edge(Y,Z) -> +tc(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase()
	// A long chain so the run takes several steps.
	for i := 0; i < 50; i++ {
		a := u.Syms.Intern(string(rune('a' + i%26)))
		_ = a
	}
	dbSrc := strings.Builder{}
	for i := 0; i < 50; i++ {
		dbSrc.WriteString("edge(n")
		dbSrc.WriteString(itoa(i))
		dbSrc.WriteString(", n")
		dbSrc.WriteString(itoa(i + 1))
		dbSrc.WriteString("). ")
	}
	db, err = parser.ParseDatabase(u, "", dbSrc.String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := core.NewEngine(u, prog, core.InertiaStrategy{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, db, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// Determinism: repeated runs produce identical results, conflicts and
// blocked sets, for every engine configuration.
func TestDeterminism(t *testing.T) {
	configs := map[string]core.Options{
		"default":  {},
		"naive":    {Naive: true},
		"no-index": {NoIndex: true},
		"both":     {Naive: true, NoIndex: true},
	}
	var first string
	for name, opts := range configs {
		opts := opts
		t.Run(name, func(t *testing.T) {
			var renders []string
			for i := 0; i < 3; i++ {
				u, res := runPark(t, sec5Program, `p.`, "", core.InertiaStrategy{}, opts)
				render := dbString(u, res.Output)
				for _, g := range res.Blocked {
					render += "|" + g.Key()
				}
				renders = append(renders, render)
			}
			if renders[0] != renders[1] || renders[1] != renders[2] {
				t.Fatalf("nondeterministic: %q vs %q vs %q", renders[0], renders[1], renders[2])
			}
			if first == "" {
				first = renders[0]
			} else if renders[0] != first {
				t.Fatalf("config %s diverges: %q vs %q", name, renders[0], first)
			}
		})
	}
}

func TestTracerEvents(t *testing.T) {
	tr := &core.CollectingTracer{}
	_, res := runPark(t, sec5Program, `p.`, "", core.InertiaStrategy{}, core.Options{Tracer: tr})
	if tr.Phases != res.RunStats.Phases {
		t.Fatalf("tracer phases %d != stats %d", tr.Phases, res.RunStats.Phases)
	}
	if tr.StepsTotal != res.RunStats.Steps {
		t.Fatalf("tracer steps %d != stats %d", tr.StepsTotal, res.RunStats.Steps)
	}
	if got := len(tr.Conflicts()); got != res.RunStats.Conflicts {
		t.Fatalf("tracer conflicts %d != stats %d", got, res.RunStats.Conflicts)
	}
	// Event stream sanity: phases are numbered 1..N and each conflict
	// is preceded by an inconsistency event in the same phase.
	lastPhase := 0
	sawInconsistent := map[int]bool{}
	for _, e := range tr.Events {
		switch e.Kind {
		case "phase":
			if e.Phase != lastPhase+1 {
				t.Fatalf("phase %d after %d", e.Phase, lastPhase)
			}
			lastPhase = e.Phase
		case "inconsistent":
			sawInconsistent[e.Phase] = true
		case "conflict":
			if !sawInconsistent[e.Phase] {
				t.Fatalf("conflict without inconsistency in phase %d", e.Phase)
			}
		}
	}
}

func TestTextTracerOutput(t *testing.T) {
	var sb strings.Builder
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", `p -> +q. p -> -a. q -> +a.`)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := parser.ParseDatabase(u, "", `p.`)
	tr := &core.TextTracer{W: &sb, U: u, P: prog, Verbose: true}
	eng, err := core.NewEngine(u, prog, core.InertiaStrategy{}, core.Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), db, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"phase 1", "+q", "-a", "inconsistent", "conflict", "block", "fixpoint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

// Naive and semi-naive evaluation must agree on results and on the
// number of conflicts for a suite of scenarios.
func TestNaiveSeminaiveAgree(t *testing.T) {
	scenarios := []struct{ prog, db, upd string }{
		{sec5Program, `p.`, ""},
		{`p -> +q. p -> -a. q -> +a. !a -> +r. a -> +s.`, `p.`, ""},
		{`edge(X,Y) -> +tc(X,Y). tc(X,Y), edge(Y,Z) -> +tc(X,Z).`, `edge(a,b). edge(b,c). edge(c,a).`, ""},
		{`rule r1: p(X) -> +q(X). rule r2: q(X) -> +r(X). rule r3: +r(X) -> -s(X).`, `p(a). s(a). s(b).`, `+q(b).`},
		{staleProgram, `p.`, ""},
		{`q(X), !done -> +p(X). p(X) -> +done.`, `q(a). q(b).`, ""},
	}
	for i, sc := range scenarios {
		u1, r1 := runPark(t, sc.prog, sc.db, sc.upd, core.InertiaStrategy{}, core.Options{})
		u2, r2 := runPark(t, sc.prog, sc.db, sc.upd, core.InertiaStrategy{}, core.Options{Naive: true})
		if dbString(u1, r1.Output) != dbString(u2, r2.Output) {
			t.Fatalf("scenario %d: seminaive {%s} != naive {%s}", i, dbString(u1, r1.Output), dbString(u2, r2.Output))
		}
		if r1.RunStats.Conflicts != r2.RunStats.Conflicts || r1.RunStats.Phases != r2.RunStats.Phases {
			t.Fatalf("scenario %d: stats diverge: %+v vs %+v", i, r1.RunStats, r2.RunStats)
		}
	}
}

// Builtins: != and == filter correctly.
func TestBuiltinComparisons(t *testing.T) {
	prog := `
		p(X), p(Y), X != Y -> +pair(X, Y).
		p(X), p(Y), X == Y -> +same(X, Y).
	`
	u, res := runPark(t, prog, `p(a). p(b).`, "", core.InertiaStrategy{}, core.Options{})
	want := "p(a), p(b), pair(a, b), pair(b, a), same(a, a), same(b, b)"
	checkResult(t, u, res, want)
}

// Event literals must see marks only, never base facts.
func TestEventLiteralSemantics(t *testing.T) {
	// s(a) is base; the event +s(X) must NOT fire for it.
	prog := `+s(X) -> +fired(X).`
	u, res := runPark(t, prog, `s(a).`, `+s(b).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "fired(b), s(a), s(b)")

	// -s(X) fires only for actual deletion marks.
	prog2 := `-s(X) -> +removed(X).`
	u2, res2 := runPark(t, prog2, `s(a). s(b).`, `-s(a).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u2, res2, "removed(a), s(b)")
}

// The paper's validity table: a base atom with a -mark keeps its
// positive literal valid while also validating its negation.
func TestBothPolaritiesValid(t *testing.T) {
	prog := `
		s(X) -> +posfired(X).
		s2(X), !s(X) -> +negfired(X).
	`
	u, res := runPark(t, prog, `s(a). s2(a).`, `-s(a).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "negfired(a), posfired(a), s2(a)")
}

func TestResultSortedStable(t *testing.T) {
	u, res := runPark(t, `p(X) -> +q(X).`, `p(b). p(a). p(c).`, "", core.InertiaStrategy{}, core.Options{})
	ids := append([]core.AID(nil), res.Output.Atoms()...)
	u.SortAtoms(ids)
	if !sort.SliceIsSorted(ids, func(i, j int) bool {
		return u.AtomString(ids[i]) < u.AtomString(ids[j])
	}) {
		t.Fatal("SortAtoms did not sort by rendering")
	}
}

func TestMaxPhasesGuard(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", sec5Program)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := parser.ParseDatabase(u, "", `p.`)
	eng, err := core.NewEngine(u, prog, core.InertiaStrategy{}, core.Options{MaxPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), db, nil); err == nil || !strings.Contains(err.Error(), "phase limit") {
		t.Fatalf("err = %v, want phase limit error", err)
	}
}

func TestEngineReuse(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", `p(X) -> +q(X).`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(u, prog, core.InertiaStrategy{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db1, _ := parser.ParseDatabase(u, "", `p(a).`)
	db2, _ := parser.ParseDatabase(u, "", `p(b).`)
	r1, err := eng.Run(context.Background(), db1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(context.Background(), db2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dbString(u, r1.Output); got != "p(a), q(a)" {
		t.Fatalf("run 1 = {%s}", got)
	}
	if got := dbString(u, r2.Output); got != "p(b), q(b)" {
		t.Fatalf("run 2 = {%s}", got)
	}
}

// The input database must never be mutated by a run.
func TestInputDatabaseUntouched(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", `p(X) -> -p(X). p(X) -> +q(X).`)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := parser.ParseDatabase(u, "", `p(a).`)
	before := dbString(u, db)
	eng, _ := core.NewEngine(u, prog, core.InertiaStrategy{}, core.Options{})
	if _, err := eng.Run(context.Background(), db, nil); err != nil {
		t.Fatal(err)
	}
	if dbString(u, db) != before {
		t.Fatal("input database mutated")
	}
}

// Rules with order comparisons: the §2 payroll domain with a salary
// threshold.
func TestRuleWithOrderComparison(t *testing.T) {
	prog := `
		emp(X), sal(X, S), S >= 200 -> +highpaid(X).
		emp(X), sal(X, S), S < 200 -> +lowpaid(X).
	`
	u, res := runPark(t, prog, `emp(tom). emp(ann). sal(tom, 100). sal(ann, 250).`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "emp(ann), emp(tom), highpaid(ann), lowpaid(tom), sal(ann, 250), sal(tom, 100)")
}

// Property (Δ is growing, Theorem 4.1(1)): within every phase, each
// applied step only adds marks — no event ever removes one — and the
// phase sequence is strictly increasing until its end.
func TestDeltaGrowingProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sc := workload.RandomProgram(10, 4, 4, seed)
		u := core.NewUniverse()
		prog, err := parser.ParseProgram(u, "", sc.Program)
		if err != nil {
			t.Fatal(err)
		}
		db, err := parser.ParseDatabase(u, "", sc.Database)
		if err != nil {
			t.Fatal(err)
		}
		tr := &core.CollectingTracer{}
		eng, err := core.NewEngine(u, prog, nil, core.Options{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), db, nil); err != nil {
			t.Fatal(err)
		}
		// Within each phase: every step adds at least one new mark and
		// never repeats a mark added earlier in the phase.
		type mark struct {
			op   core.HeadOp
			atom core.AID
		}
		var phaseMarks map[mark]bool
		for _, e := range tr.Events {
			switch e.Kind {
			case "phase":
				phaseMarks = make(map[mark]bool)
			case "step":
				if len(e.Added) == 0 {
					t.Fatalf("seed %d: empty applied step", seed)
				}
				for _, ma := range e.Added {
					m := mark{ma.Op, ma.Atom}
					if phaseMarks[m] {
						t.Fatalf("seed %d: mark %v re-added within a phase", seed, m)
					}
					phaseMarks[m] = true
				}
			}
		}
	}
}
