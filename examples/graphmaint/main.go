// Graph maintenance: the paper's §4.2 running example. Rule r1 builds
// the complete graph over all p-nodes while r2 and r3 try to remove
// reflexive arcs and arcs implied by transitivity. Every q atom is
// conflicting; an application-specific SELECT policy decides, arc by
// arc, which side wins. The full paper-style trace is printed.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	park "repro"
)

func main() {
	u := park.NewUniverse()
	prog, err := park.ParseProgram(u, "graph", `
		rule r1: p(X), p(Y) -> +q(X, Y).
		rule r2: q(X, X) -> -q(X, X).
		rule r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	db, err := park.ParseDatabase(u, "nodes", `p(a). p(b). p(c).`)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's SELECT: no loops, no arcs between a and c; keep all
	// other arcs even when transitivity would imply them.
	sel := park.StrategyFunc{
		StrategyName: "graph-policy",
		Fn: func(in *park.SelectInput) (park.Decision, error) {
			args := in.Universe.AtomArgs(in.Conflict.Atom)
			x, y := in.Universe.Syms.Name(args[0]), in.Universe.Syms.Name(args[1])
			if x == y || (x == "a" && y == "c") || (x == "c" && y == "a") {
				return park.DecideDelete, nil
			}
			return park.DecideInsert, nil
		},
	}

	eng, err := park.NewEngine(u, prog, sel, park.Options{
		Tracer: &park.TextTracer{W: os.Stdout, U: u, P: prog},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), db, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nfinal graph:", park.FormatDatabase(u, res.Output))
	fmt.Printf("%d conflicts resolved, %d rule instances blocked\n",
		res.RunStats.Conflicts, res.RunStats.BlockedInstances)
	fmt.Println("\nblocked instances (note the r3 instances the paper calls")
	fmt.Println("\"unnecessarily blocked\" — harmless for the result):")
	for _, g := range res.Blocked {
		fmt.Println("  ", g.String(u, eng.Program()))
	}
}
