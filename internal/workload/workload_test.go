package workload

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

// runScenario parses and evaluates a scenario under inertia.
func runScenario(t *testing.T, sc Scenario) (*core.Universe, *core.Result) {
	t.Helper()
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, sc.Name+"/prog", sc.Program)
	if err != nil {
		t.Fatalf("%s: program: %v", sc.Name, err)
	}
	db, err := parser.ParseDatabase(u, sc.Name+"/db", sc.Database)
	if err != nil {
		t.Fatalf("%s: database: %v", sc.Name, err)
	}
	var ups []core.Update
	if sc.Updates != "" {
		if ups, err = parser.ParseUpdates(u, sc.Name+"/upd", sc.Updates); err != nil {
			t.Fatalf("%s: updates: %v", sc.Name, err)
		}
	}
	eng, err := core.NewEngine(u, prog, nil, core.Options{})
	if err != nil {
		t.Fatalf("%s: engine: %v", sc.Name, err)
	}
	res, err := eng.Run(context.Background(), db, ups)
	if err != nil {
		t.Fatalf("%s: run: %v", sc.Name, err)
	}
	return u, res
}

func TestChain(t *testing.T) {
	u, res := runScenario(t, Chain(10))
	// start + 11 reach atoms + 10 edges
	count := 0
	for _, id := range res.Output.Atoms() {
		if strings.HasPrefix(u.AtomString(id), "reach(") {
			count++
		}
	}
	if count != 11 {
		t.Fatalf("reach atoms = %d, want 11", count)
	}
	if res.RunStats.Conflicts != 0 {
		t.Fatalf("conflicts = %d", res.RunStats.Conflicts)
	}
}

func TestTransitiveClosureComplete(t *testing.T) {
	// A complete graph: tc must contain every ordered pair.
	sc := TransitiveClosure(5, 100, 1)
	u, res := runScenario(t, sc)
	tc := 0
	for _, id := range res.Output.Atoms() {
		if strings.HasPrefix(u.AtomString(id), "tc(") {
			tc++
		}
	}
	if tc != 5*5 { // includes tc(x,x) via cycles
		t.Fatalf("tc atoms = %d, want 25", tc)
	}
}

func TestTransitiveClosureSeedDeterminism(t *testing.T) {
	a := TransitiveClosure(8, 30, 42)
	b := TransitiveClosure(8, 30, 42)
	if a.Database != b.Database {
		t.Fatal("same seed generated different graphs")
	}
	c := TransitiveClosure(8, 30, 43)
	if a.Database == c.Database {
		t.Fatal("different seeds generated identical graphs")
	}
}

func TestConflictLadderRestarts(t *testing.T) {
	for _, k := range []int{1, 3, 7} {
		sc := ConflictLadder(k)
		_, res := runScenario(t, sc)
		if res.RunStats.Conflicts != k {
			t.Fatalf("ladder-%d: conflicts = %d, want %d", k, res.RunStats.Conflicts, k)
		}
		if res.RunStats.Phases != k+1 {
			t.Fatalf("ladder-%d: phases = %d, want %d", k, res.RunStats.Phases, k+1)
		}
	}
}

func TestWideConflictsSingleRestart(t *testing.T) {
	sc := WideConflicts(6)
	_, res := runScenario(t, sc)
	if res.RunStats.Conflicts != 6 {
		t.Fatalf("conflicts = %d, want 6", res.RunStats.Conflicts)
	}
	if res.RunStats.Phases != 2 {
		t.Fatalf("phases = %d, want 2 (all conflicts resolved in one restart)", res.RunStats.Phases)
	}
}

func TestRandomProgramAlwaysValidAndTerminates(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		sc := RandomProgram(8, 4, 4, seed)
		_, res := runScenario(t, sc)
		if res == nil {
			t.Fatalf("seed %d: no result", seed)
		}
	}
}

func TestTriggerCascade(t *testing.T) {
	sc := TriggerCascade(5, 3)
	u, res := runScenario(t, sc)
	// All guards must be deleted, and l5 must hold for all 3 constants.
	for _, id := range res.Output.Atoms() {
		if strings.HasPrefix(u.AtomString(id), "guard(") {
			t.Fatalf("guard survived: %s", u.AtomString(id))
		}
	}
	l5 := 0
	for _, id := range res.Output.Atoms() {
		if strings.HasPrefix(u.AtomString(id), "l5(") {
			l5++
		}
	}
	if l5 != 3 {
		t.Fatalf("l5 atoms = %d, want 3", l5)
	}
}

func TestHRPayroll(t *testing.T) {
	sc := HRPayroll(20, 25, 7)
	u, res := runScenario(t, sc)
	// Every deactivated employee must have lost payroll and gained an
	// audit entry; employee e0 is always deactivated.
	var sawAuditE0 bool
	for _, id := range res.Output.Atoms() {
		s := u.AtomString(id)
		if strings.HasPrefix(s, "payroll(e0,") {
			t.Fatalf("payroll survived deactivation: %s", s)
		}
		if strings.HasPrefix(s, "audit(e0,") {
			sawAuditE0 = true
		}
		if s == "active(e0)" {
			t.Fatal("active flag survived")
		}
	}
	if !sawAuditE0 {
		t.Fatal("audit entry for e0 missing")
	}
}

func TestGrid(t *testing.T) {
	u, res := runScenario(t, Grid(4))
	// Every cell is reachable from the origin.
	reach := 0
	for _, id := range res.Output.Atoms() {
		if strings.HasPrefix(u.AtomString(id), "reach(") {
			reach++
		}
	}
	if reach != 16 {
		t.Fatalf("reach atoms = %d, want 16", reach)
	}
	// One applied Γ step per BFS frontier; the far corner is at
	// distance 2(n-1) from the seeded origin.
	if res.RunStats.Steps != 2*(4-1) {
		t.Fatalf("steps = %d, want %d", res.RunStats.Steps, 2*(4-1))
	}
}
