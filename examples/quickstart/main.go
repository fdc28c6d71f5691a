// Quickstart: evaluate a small active-rule program under the PARK
// semantics with the principle of inertia — the paper's §4.1 program
// P1 plus the payroll rule from §2.
package main

import (
	"context"
	"fmt"
	"log"

	park "repro"
)

func main() {
	// P1 from the paper: the conflicting actions on `a` are suppressed
	// by the principle of inertia, so the result is {p, q}.
	res, u, err := park.Eval(context.Background(), `
		p -> +q.
		p -> -a.
		q -> +a.
	`, `p.`, ``, park.Inertia(), park.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("P1 result:", park.FormatDatabase(u, res.Output))
	fmt.Printf("P1 stats:  %d phases, %d conflicts resolved\n\n",
		res.RunStats.Phases, res.RunStats.Conflicts)

	// The §2 payroll rule: employees that are not active lose their
	// payroll records. Using the explicit engine API this time.
	u2 := park.NewUniverse()
	prog, err := park.ParseProgram(u2, "payroll", `
		emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
	`)
	if err != nil {
		log.Fatal(err)
	}
	db, err := park.ParseDatabase(u2, "hr", `
		emp(tom). emp(ann).
		active(ann).
		payroll(tom, 100). payroll(ann, 120).
	`)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := park.NewEngine(u2, prog, park.Inertia(), park.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := eng.Run(context.Background(), db, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("payroll before:", park.FormatDatabase(u2, db))
	fmt.Println("payroll after: ", park.FormatDatabase(u2, out.Output))
}
