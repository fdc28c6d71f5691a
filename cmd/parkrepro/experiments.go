package main

import (
	"context"
	"fmt"

	park "repro"
)

// experiment describes one E-series reproduction.
type experiment struct {
	ID       string
	Title    string
	Program  string
	Database string
	Updates  string
	// Strategy constructs the SELECT policy (nil = inertia).
	Strategy func() park.Strategy
	// Expected is the paper's result state in FormatDatabase form.
	Expected string
	Notes    string
	// Check optionally verifies additional properties (trace shape,
	// conflict counts, blocked sets).
	Check func(u *park.Universe, res *park.Result) error
	// Run overrides the standard flow entirely (used by E2/E3's
	// baseline comparisons and E12's safety checks).
	Run func(trace, verbose bool) error
}

func experiments() []experiment {
	return []experiment{
		{
			ID:    "E1",
			Title: "§4.1 P1 under inertia: conflicting ±a suppressed",
			Program: `
				p -> +q.
				p -> -a.
				q -> +a.
			`,
			Database: `p.`,
			Expected: "{p, q}",
		},
		{
			ID:    "E2",
			Title: "§4.1 P2: restart semantics vs naive post-hoc elimination",
			Run: func(trace, verbose bool) error {
				return compareWithPostHoc(`
					p -> +q.
					p -> -a.
					q -> +a.
					!a -> +r.
					a -> +s.
				`, `p.`, "{p, q, r}", "{p, q, r, s}")
			},
		},
		{
			ID:    "E3",
			Title: "§4.1 P3: false conflicts must not poison independent derivations",
			Run: func(trace, verbose bool) error {
				return compareWithPostHoc(`
					p -> +q.
					p -> -q.
					q -> +a.
					q -> -a.
					p -> +a.
				`, `p.`, "{a, p}", "{p}")
			},
		},
		{
			ID:    "E4",
			Title: "§4.2 graph example: irreflexive, non-transitive arc set",
			Program: `
				rule r1: p(X), p(Y) -> +q(X, Y).
				rule r2: q(X, X) -> -q(X, X).
				rule r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).
			`,
			Database: `p(a). p(b). p(c).`,
			Strategy: func() park.Strategy { return graphSelect() },
			Expected: "{p(a), p(b), p(c), q(a, b), q(b, a), q(b, c), q(c, b)}",
			Notes:    "SELECT per the paper: drop loops and the a<->c arcs, keep the rest",
			Check: func(u *park.Universe, res *park.Result) error {
				if res.RunStats.Conflicts != 9 {
					return fmt.Errorf("conflicts = %d, want 9", res.RunStats.Conflicts)
				}
				return nil
			},
		},
		{
			ID:    "E5",
			Title: "§4.3 ECA rules without conflict: update +q(b) cascades",
			Program: `
				rule r1: p(X) -> +q(X).
				rule r2: q(X) -> +r(X).
				rule r3: +r(X) -> -s(X).
			`,
			Database: `p(a). s(a). s(b).`,
			Updates:  `+q(b).`,
			Expected: "{p(a), q(a), q(b), r(a), r(b)}",
		},
		{
			ID:    "E6",
			Title: "§4.3 ECA rules with a conflict under inertia",
			Program: `
				rule r1: q(X, a) -> -p(X, a).
				rule r2: q(a, X) -> +r(a, X).
				rule r3: +r(X, Y) -> +p(X, Y).
			`,
			Database: `p(a, a). p(a, b). p(a, c).`,
			Updates:  `+q(a, a).`,
			Expected: "{p(a, a), p(a, b), p(a, c), q(a, a), r(a, a)}",
			Notes: "paper erratum: its printed result omits q(a, a), but the update rule " +
				"-> +q(a,a) of P_U always fires and incorp keeps it; the paper's own " +
				"§4.3 first example keeps the updated q atoms. Also, the paper's trace " +
				"blocks both r1 and r3 while the formal SELECT definition blocks only " +
				"the losing side (r1); the result state is the same either way.",
			Check: func(u *park.Universe, res *park.Result) error {
				if len(res.Blocked) != 1 || res.Blocked[0].Rule != 0 {
					return fmt.Errorf("blocked = %v, want exactly r1's instance", res.Blocked)
				}
				return nil
			},
		},
		{
			ID:       "E7",
			Title:    "§5 strategy example under the principle of inertia",
			Program:  sec5Program,
			Database: `p.`,
			Expected: "{a, b, p}",
			Check: func(u *park.Universe, res *park.Result) error {
				return expectBlockedRules(res, 1, 4) // r2 then r5
			},
		},
		{
			ID:    "E8",
			Title: "§5 counterintuitive inertia: contradictory chain withdraws everything",
			Program: `
				rule r1: a -> +b.
				rule r2: a -> +d.
				rule r3: b -> +c.
				rule r4: b -> -d.
				rule r5: c -> -b.
			`,
			Database: `a.`,
			Expected: "{a}",
			Notes:    "the paper notes the intuitive result would be {a, d}; inertia yields {a}",
		},
		{
			ID:       "E9",
			Title:    "§5 strategy example under rule priority",
			Program:  sec5Program,
			Database: `p.`,
			Strategy: func() park.Strategy { return park.Priority(nil) },
			Expected: "{a, b, p, q}",
			Check: func(u *park.Universe, res *park.Result) error {
				return expectBlockedRules(res, 1, 3) // r2 then r4
			},
		},
		{
			ID:    "E10",
			Title: "§2 payroll example rule",
			Program: `
				emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
			`,
			Database: `
				emp(tom). emp(ann).
				active(ann).
				payroll(tom, 100). payroll(ann, 120).
			`,
			Expected: "{active(ann), emp(ann), emp(tom), payroll(ann, 120)}",
		},
		{
			ID:    "E11",
			Title: "§4.2 remark: blocking is slightly over-eager on the graph example",
			Run:   runE11,
		},
		{
			ID:    "E12",
			Title: "§2 safety conditions enforced at load time",
			Run:   runE12,
		},
	}
}

const sec5Program = `
	rule r1 priority 1: p -> +a.
	rule r2 priority 2: p -> +q.
	rule r3 priority 3: a -> +b.
	rule r4 priority 4: a -> -q.
	rule r5 priority 5: b -> +q.
`

// graphSelect is the ad-hoc SELECT of the §4.2 example.
func graphSelect() park.Strategy {
	return park.StrategyFunc{
		StrategyName: "paper-graph",
		Fn: func(in *park.SelectInput) (park.Decision, error) {
			args := in.Universe.AtomArgs(in.Conflict.Atom)
			x := in.Universe.Syms.Name(args[0])
			y := in.Universe.Syms.Name(args[1])
			if x == y || (x == "a" && y == "c") || (x == "c" && y == "a") {
				return park.DecideDelete, nil
			}
			return park.DecideInsert, nil
		},
	}
}

func expectBlockedRules(res *park.Result, rules ...int32) error {
	if len(res.Blocked) != len(rules) {
		return fmt.Errorf("blocked %d instances, want %d", len(res.Blocked), len(rules))
	}
	for i, want := range rules {
		if res.Blocked[i].Rule != want {
			return fmt.Errorf("blocked[%d] is rule index %d, want %d", i, res.Blocked[i].Rule, want)
		}
	}
	return nil
}

// compareWithPostHoc runs both PARK and the naive post-hoc baseline,
// verifying that PARK matches the paper's desired result and that the
// baseline reproduces the paper's "wrong" one.
func compareWithPostHoc(progSrc, dbSrc, wantPark, wantPostHoc string) error {
	res, u, err := park.Eval(context.Background(), progSrc, dbSrc, "", park.Inertia(), park.Options{})
	if err != nil {
		return err
	}
	gotPark := park.FormatDatabase(u, res.Output)

	u2 := park.NewUniverse()
	prog, err := park.ParseProgram(u2, "", progSrc)
	if err != nil {
		return err
	}
	db, err := park.ParseDatabase(u2, "", dbSrc)
	if err != nil {
		return err
	}
	post, _, err := park.PostHoc(context.Background(), u2, prog, db, nil)
	if err != nil {
		return err
	}
	gotPost := park.FormatDatabase(u2, post)

	fmt.Printf("   paper (PARK):      %s\n", wantPark)
	fmt.Printf("   measured (PARK):   %s   [%s]\n", gotPark, okStr(gotPark == wantPark))
	fmt.Printf("   paper (post-hoc):  %s\n", wantPostHoc)
	fmt.Printf("   measured (post-hoc): %s   [%s]\n", gotPost, okStr(gotPost == wantPostHoc))
	if gotPark != wantPark {
		return fmt.Errorf("PARK result %s, want %s", gotPark, wantPark)
	}
	if gotPost != wantPostHoc {
		return fmt.Errorf("post-hoc result %s, want the paper's wrong %s", gotPost, wantPostHoc)
	}
	return nil
}

func okStr(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}

// runE11 re-runs the graph example and shows that rule r3 instances
// were blocked even though, after the resolution, they could never
// fire again — the paper's closing remark on §4.2.
func runE11(trace, verbose bool) error {
	u := park.NewUniverse()
	prog, err := park.ParseProgram(u, "", `
		rule r1: p(X), p(Y) -> +q(X, Y).
		rule r2: q(X, X) -> -q(X, X).
		rule r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).
	`)
	if err != nil {
		return err
	}
	db, err := park.ParseDatabase(u, "", `p(a). p(b). p(c).`)
	if err != nil {
		return err
	}
	eng, err := park.NewEngine(u, prog, graphSelect(), park.Options{})
	if err != nil {
		return err
	}
	res, err := eng.Run(context.Background(), db, nil)
	if err != nil {
		return err
	}
	counts := map[int32]int{}
	for _, g := range res.Blocked {
		counts[g.Rule]++
	}
	fmt.Printf("   blocked instances by rule: r1=%d r2=%d r3=%d\n", counts[0], counts[1], counts[2])
	fmt.Printf("   note: the r2/r3 instances blocked for the 4 kept arcs can never fire\n")
	fmt.Printf("   again after resolution — the over-eagerness the paper remarks on;\n")
	fmt.Printf("   it does not affect the result state.\n")
	if counts[0] != 5 {
		return fmt.Errorf("blocked r1 instances = %d, want 5", counts[0])
	}
	if counts[2] == 0 {
		return fmt.Errorf("expected some r3 instances to be blocked")
	}
	return nil
}

// runE12 verifies that the two §2 safety conditions are rejected at
// load time.
func runE12(trace, verbose bool) error {
	u := park.NewUniverse()
	if _, err := park.ParseProgram(u, "", `p(X) -> +q(Y).`); err == nil {
		return fmt.Errorf("safety condition 1 (head variables) not enforced")
	} else {
		fmt.Printf("   condition 1 rejected: %v\n", err)
	}
	if _, err := park.ParseProgram(u, "", `p(X), !r(Y) -> +q(X).`); err == nil {
		return fmt.Errorf("safety condition 2 (negated variables) not enforced")
	} else {
		fmt.Printf("   condition 2 rejected: %v\n", err)
	}
	return nil
}
