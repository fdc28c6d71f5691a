package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

// Constants in heads and bodies.
func TestRuleWithConstants(t *testing.T) {
	prog := `
		p(X) -> +tagged(X, special).
		tagged(X, special), q(X, b) -> +found(X).
	`
	u, res := runPark(t, prog, `p(a). q(a, b). q(c, d).`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "found(a), p(a), q(a, b), q(c, d), tagged(a, special)")
}

// Repeated variables in the head.
func TestRepeatedHeadVariables(t *testing.T) {
	prog := `p(X) -> +pair(X, X).`
	u, res := runPark(t, prog, `p(a). p(b).`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "p(a), p(b), pair(a, a), pair(b, b)")
}

// A rule that deletes its own trigger: the deletion mark does not
// retract the base fact mid-phase (validity of positive literals
// keeps base atoms), so this is NOT an infinite loop under PARK.
func TestSelfConsumingRule(t *testing.T) {
	prog := `queue(X) -> -queue(X). queue(X) -> +done(X).`
	u, res := runPark(t, prog, `queue(a). queue(b).`, "", core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "done(a), done(b)")
}

// Duplicate updates and update/update conflicts in one transaction.
func TestDuplicateUpdates(t *testing.T) {
	u, res := runPark(t, ``, `x.`, `+a. +a. -x. -x.`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "a")
	if res.RunStats.Conflicts != 0 {
		t.Fatalf("conflicts = %d", res.RunStats.Conflicts)
	}
}

// Maximality of conflict sides: multiple rules deriving each side all
// appear in the conflict triple (the paper requires the sets to be
// maximal).
func TestConflictSidesMaximal(t *testing.T) {
	prog := `
		rule i1: p -> +a.
		rule i2: q -> +a.
		rule d1: p -> -a.
		rule d2: q -> -a.
	`
	u, res := runPark(t, prog, `p. q.`, "", core.InertiaStrategy{}, core.Options{})
	if len(res.Conflicts) != 1 {
		t.Fatalf("conflicts = %d", len(res.Conflicts))
	}
	c := res.Conflicts[0].Conflict
	if len(c.Ins) != 2 || len(c.Del) != 2 {
		t.Fatalf("conflict sides: ins=%d del=%d, want 2/2", len(c.Ins), len(c.Del))
	}
	_ = u
}

// The SELECT input carries the paper's four components faithfully:
// D (original database), P (the program P_U including update rules),
// I (the current i-interpretation) and the conflict.
func TestSelectInputContents(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", `seed -> +a. seed -> -a.`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.ParseDatabase(u, "", `x.`)
	if err != nil {
		t.Fatal(err)
	}
	var seen *core.SelectInput
	strat := core.StrategyFunc{StrategyName: "probe", Fn: func(in *core.SelectInput) (core.Decision, error) {
		seen = in
		return core.DecideDelete, nil
	}}
	eng, err := core.NewEngine(u, prog, strat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups, err := parser.ParseUpdates(u, "", `+seed.`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), db, ups); err != nil {
		t.Fatal(err)
	}
	if seen == nil {
		t.Fatal("strategy never invoked")
	}
	// D is the original database: contains x, not seed.
	xid, _ := u.LookupAtom(mustSym(t, u, "x"), nil)
	if !seen.Database.Contains(xid) {
		t.Fatal("SELECT input D lost the original database")
	}
	seedID, _ := u.LookupAtom(mustSym(t, u, "seed"), nil)
	if seen.Database.Contains(seedID) {
		t.Fatal("SELECT input D contains the update (it must be the ORIGINAL instance)")
	}
	// P is P_U: 2 program rules + 1 update rule.
	if len(seen.Program.Rules) != 3 {
		t.Fatalf("SELECT input P has %d rules, want 3 (P plus the update rule)", len(seen.Program.Rules))
	}
	// I is the pre-step interpretation: +seed is marked.
	if !seen.Interp.HasPlus(seedID) {
		t.Fatal("SELECT input I lacks the +seed mark")
	}
}

func mustSym(t *testing.T, u *core.Universe, name string) core.Sym {
	t.Helper()
	s, ok := u.Syms.Lookup(name)
	if !ok {
		t.Fatalf("symbol %s unknown", name)
	}
	return s
}

// Event literals with constant arguments.
func TestEventLiteralConstants(t *testing.T) {
	prog := `+sensor(alarm) -> +alert.`
	u, res := runPark(t, prog, ``, `+sensor(alarm). +sensor(ok).`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "alert, sensor(alarm), sensor(ok)")
}

// Deeply recursive insertion: a 1000-step chain completes and the
// step count matches the chain length.
func TestDeepRecursion(t *testing.T) {
	var db strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&db, "edge(n%d, n%d). ", i, i+1)
	}
	db.WriteString("reach(n0).")
	prog := `reach(X), edge(X, Y) -> +reach(Y).`
	u, res := runPark(t, prog, db.String(), "", core.InertiaStrategy{}, core.Options{})
	count := 0
	for _, id := range res.Output.Atoms() {
		if u.AtomPred(id) == mustSym(t, u, "reach") {
			count++
		}
	}
	if count != 1001 {
		t.Fatalf("reach atoms = %d", count)
	}
	if res.RunStats.Steps != 1000 { // one applied step per chain hop
		t.Fatalf("steps = %d", res.RunStats.Steps)
	}
}

// An engine rejects a strategy error even on the very first conflict
// of a later phase (regression guard for error paths after restarts).
func TestStrategyErrorSecondPhase(t *testing.T) {
	prog := `
		s0 -> +s1.
		s1 -> +c1.
		s1 -> -c1.
		s1 -> +s2.
		s2 -> +c2.
		s2 -> -c2.
	`
	calls := 0
	strat := core.StrategyFunc{StrategyName: "count", Fn: func(in *core.SelectInput) (core.Decision, error) {
		calls++
		if calls > 1 {
			return 0, errSecond
		}
		return core.DecideDelete, nil
	}}
	u := core.NewUniverse()
	p, err := parser.ParseProgram(u, "", prog)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := parser.ParseDatabase(u, "", `s0.`)
	eng, err := core.NewEngine(u, p, strat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), db, nil); err == nil {
		t.Fatal("second-phase strategy error swallowed")
	}
}

var errSecond = fmt.Errorf("second conflict")

// Update rules participate in conflicts and are visible in the
// grounding sets (so ProtectUpdates can find them).
func TestUpdateRuleInConflictSides(t *testing.T) {
	u, res := runPark(t, `x -> -a.`, `x.`, `+a.`, core.InertiaStrategy{}, core.Options{})
	if len(res.Conflicts) != 1 {
		t.Fatalf("conflicts = %d", len(res.Conflicts))
	}
	c := res.Conflicts[0].Conflict
	if len(c.Ins) != 1 || len(c.Del) != 1 {
		t.Fatalf("sides: %d/%d", len(c.Ins), len(c.Del))
	}
	// The inserting side is the update rule (index 1 in P_U).
	if c.Ins[0].Rule != 1 {
		t.Fatalf("ins rule = %d, want the update rule", c.Ins[0].Rule)
	}
	_ = u
}

// A nil database is treated as empty.
func TestNilDatabase(t *testing.T) {
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", `-> +boot.`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(u, prog, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dbString(u, res.Output); got != "boot" {
		t.Fatalf("result = {%s}", got)
	}
}

// An update that loses its conflict is blocked like any rule; its
// event cascade is then suppressed in the restarted phase (the event
// literal +a never becomes valid).
func TestOverriddenUpdateSuppressesEventCascade(t *testing.T) {
	prog := `
		rule veto: x -> -a.
		rule cascade: +a -> +b.
	`
	u, res := runPark(t, prog, `x.`, `+a.`, core.InertiaStrategy{}, core.Options{})
	checkResult(t, u, res, "x")
	if len(res.Conflicts) != 1 {
		t.Fatalf("conflicts = %d", len(res.Conflicts))
	}
	// Under ProtectUpdates the update wins and the cascade fires.
	u2 := core.NewUniverse()
	p2, err := parser.ParseProgram(u2, "", prog)
	if err != nil {
		t.Fatal(err)
	}
	db2, _ := parser.ParseDatabase(u2, "", `x.`)
	ups2, _ := parser.ParseUpdates(u2, "", `+a.`)
	protect := core.StrategyFunc{StrategyName: "protect", Fn: func(in *core.SelectInput) (core.Decision, error) {
		return core.DecideInsert, nil
	}}
	eng2, err := core.NewEngine(u2, p2, protect, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Run(context.Background(), db2, ups2)
	if err != nil {
		t.Fatal(err)
	}
	if got := dbString(u2, res2.Output); got != "a, b, x" {
		t.Fatalf("protected result = {%s}", got)
	}
}
