package park_test

import (
	"context"
	"testing"

	park "repro"
)

func TestQueryFacade(t *testing.T) {
	u := park.NewUniverse()
	db, err := park.ParseDatabase(u, "", `
		emp(tom). emp(ann). emp(bob).
		active(ann). active(bob).
		payroll(tom, 100). payroll(ann, 120). payroll(bob, 120).
	`)
	if err != nil {
		t.Fatal(err)
	}

	res, err := park.Query(u, db, `emp(X), !active(X)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "X=tom" {
		t.Fatalf("inactive emps = %q", res.String())
	}

	// Anonymous variables are projected away and rows deduplicated.
	res, err = park.Query(u, db, `payroll(_, S)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "S=100 | S=120" {
		t.Fatalf("salaries = %q", res.String())
	}

	// Ground queries answer yes/no.
	res, err = park.Query(u, db, `emp(tom), active(ann)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "yes" {
		t.Fatalf("ground query = %q", res.String())
	}
	res, err = park.Query(u, db, `active(tom)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "no" || res.Len() != 0 {
		t.Fatalf("false ground query = %q", res.String())
	}

	// Rows are sorted.
	res, err = park.Query(u, db, `emp(X), active(X)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "X=ann | X=bob" {
		t.Fatalf("sorted rows = %q", res.String())
	}
}

func TestQueryAgainstParkResult(t *testing.T) {
	// End-to-end: run PARK, then query the result state.
	res, u, err := park.Eval(context.Background(), `
		emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
	`, `
		emp(tom). emp(ann). active(ann).
		payroll(tom, 100). payroll(ann, 120).
	`, ``, park.Inertia(), park.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := park.Query(u, res.Output, `payroll(X, _)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "X=ann" {
		t.Fatalf("post-run query = %q", q.String())
	}
}

// ResolveOne (the §4.2 "block only part of the conflicts" variant)
// must reach the same result with more phases and no larger blocked
// set.
func TestResolveOneVariant(t *testing.T) {
	prog := `
		rule r1: p(X), p(Y) -> +q(X, Y).
		rule r2: q(X, X) -> -q(X, X).
		rule r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).
	`
	db := `p(a). p(b). p(c).`
	strat := park.StrategyFunc{StrategyName: "graph", Fn: func(in *park.SelectInput) (park.Decision, error) {
		args := in.Universe.AtomArgs(in.Conflict.Atom)
		x, y := in.Universe.Syms.Name(args[0]), in.Universe.Syms.Name(args[1])
		if x == y || (x == "a" && y == "c") || (x == "c" && y == "a") {
			return park.DecideDelete, nil
		}
		return park.DecideInsert, nil
	}}

	all, uAll, err := park.Eval(context.Background(), prog, db, ``, strat, park.Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, uOne, err := park.Eval(context.Background(), prog, db, ``, strat, park.Options{ResolveOne: true})
	if err != nil {
		t.Fatal(err)
	}
	if park.FormatDatabase(uAll, all.Output) != park.FormatDatabase(uOne, one.Output) {
		t.Fatalf("results diverge: %s vs %s",
			park.FormatDatabase(uAll, all.Output), park.FormatDatabase(uOne, one.Output))
	}
	if one.RunStats.Phases <= all.RunStats.Phases {
		t.Fatalf("ResolveOne phases = %d, want more than %d", one.RunStats.Phases, all.RunStats.Phases)
	}
	if one.RunStats.BlockedInstances > all.RunStats.BlockedInstances {
		t.Fatalf("ResolveOne blocked %d > %d", one.RunStats.BlockedInstances, all.RunStats.BlockedInstances)
	}
}

func TestDiff(t *testing.T) {
	u := park.NewUniverse()
	before, err := park.ParseDatabase(u, "", `p(a). p(b).`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := park.ParseDatabase(u, "", `p(b). p(c).`)
	if err != nil {
		t.Fatal(err)
	}
	ups := park.Diff(before, after)
	if got := park.FormatUpdates(u, ups); got != "{+p(c), -p(a)}" {
		t.Fatalf("diff = %s", got)
	}
	// Applying the diff to before reproduces after.
	eng, err := park.NewEngine(u, &park.Program{}, nil, park.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), before, ups)
	if err != nil {
		t.Fatal(err)
	}
	if park.FormatDatabase(u, res.Output) != park.FormatDatabase(u, after) {
		t.Fatalf("diff application: %s != %s", park.FormatDatabase(u, res.Output), park.FormatDatabase(u, after))
	}
	if len(park.Diff(after, after)) != 0 {
		t.Fatal("self-diff not empty")
	}
}

func TestQueryWithViews(t *testing.T) {
	u := park.NewUniverse()
	db, err := park.ParseDatabase(u, "", `
		edge(a, b). edge(b, c). edge(c, d).
	`)
	if err != nil {
		t.Fatal(err)
	}
	views := `
		edge(X, Y) -> +tc(X, Y).
		tc(X, Y), edge(Y, Z) -> +tc(X, Z).
	`
	res, err := park.QueryWithViews(context.Background(), u, db, views, `tc(a, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "X=b | X=c | X=d" {
		t.Fatalf("view query = %q", res.String())
	}
	// The base database is untouched (views are virtual).
	if db.Len() != 3 {
		t.Fatalf("base db mutated: %d facts", db.Len())
	}
	// Deletion rules rejected.
	if _, err := park.QueryWithViews(context.Background(), u, db, `edge(X, Y) -> -edge(X, Y).`, `edge(a, X)`); err == nil {
		t.Fatal("deleting view accepted")
	}
	// Event literals rejected.
	if _, err := park.QueryWithViews(context.Background(), u, db, `+edge(X, Y) -> +seen(X).`, `seen(X)`); err == nil {
		t.Fatal("event view accepted")
	}
}
