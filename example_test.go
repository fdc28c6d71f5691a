package park_test

import (
	"context"
	"fmt"
	"log"

	park "repro"
)

// The paper's §4.1 program P1: the conflicting actions on atom a are
// suppressed by the principle of inertia.
func ExampleEval() {
	res, u, err := park.Eval(context.Background(), `
		p -> +q.
		p -> -a.
		q -> +a.
	`, `p.`, ``, park.Inertia(), park.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(park.FormatDatabase(u, res.Output))
	fmt.Println("conflicts:", res.RunStats.Conflicts)
	// Output:
	// {p, q}
	// conflicts: 1
}

// Full ECA rules: transaction updates trigger event literals.
func ExampleEngine_Run() {
	u := park.NewUniverse()
	prog, err := park.ParseProgram(u, "rules", `
		rule audit: -active(X) -> +audit(X).
		rule cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
	`)
	if err != nil {
		log.Fatal(err)
	}
	db, err := park.ParseDatabase(u, "db", `emp(tom). active(tom). payroll(tom, 100).`)
	if err != nil {
		log.Fatal(err)
	}
	ups, err := park.ParseUpdates(u, "tx", `-active(tom).`)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := park.NewEngine(u, prog, park.Inertia(), park.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), db, ups)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(park.FormatDatabase(u, res.Output))
	// Output:
	// {audit(tom), emp(tom)}
}

// Conjunctive queries run against any database instance.
func ExampleQuery() {
	u := park.NewUniverse()
	db, err := park.ParseDatabase(u, "db", `
		emp(tom). emp(ann). active(ann).
		sal(tom, 2500). sal(ann, 900).
	`)
	if err != nil {
		log.Fatal(err)
	}
	q, err := park.Query(u, db, `emp(X), sal(X, S), S >= 1000`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q)
	// Output:
	// X=tom, S=2500
}

// The trigger DDL compiles to active rules.
func ExampleParseTriggers() {
	u := park.NewUniverse()
	prog, err := park.ParseTriggers(u, "ddl", `
		CREATE TRIGGER audit PRIORITY 5
		  AFTER DELETE ON active(X)
		  WHEN dept(X, D)
		  DO INSERT audit(X, D);
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(prog.Rules[0].String(u))
	// Output:
	// -active(X), dept(X, D) -> +audit(X, D)
}

// A custom SELECT policy: the paper's §4.2 graph example decides per
// conflicting arc.
func ExampleStrategyFunc() {
	strategy := park.StrategyFunc{
		StrategyName: "no-loops",
		Fn: func(in *park.SelectInput) (park.Decision, error) {
			args := in.Universe.AtomArgs(in.Conflict.Atom)
			if args[0] == args[1] {
				return park.DecideDelete, nil // drop reflexive arcs
			}
			return park.DecideInsert, nil
		},
	}
	res, u, err := park.Eval(context.Background(), `
		rule build: p(X), p(Y) -> +q(X, Y).
		rule noloop: q(X, X) -> -q(X, X).
	`, `p(a). p(b).`, ``, strategy, park.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(park.FormatDatabase(u, res.Output))
	// Output:
	// {p(a), p(b), q(a, b), q(b, a)}
}
