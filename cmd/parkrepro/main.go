// Command parkrepro reproduces every worked example of "The PARK
// Semantics for Active Rules" (EDBT 1996) — the E-series experiments
// of DESIGN.md — and verifies the computed result states against the
// paper. Run with -trace to see the paper-style step-by-step
// i-interpretations.
//
// Usage:
//
//	parkrepro [-id E4] [-trace] [-v]
//
// The exit status is non-zero if any reproduced result deviates from
// the expected one.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	park "repro"
)

func main() {
	var (
		id      = flag.String("id", "", "run only this experiment (e.g. E4)")
		trace   = flag.Bool("trace", false, "print paper-style evaluation traces")
		verbose = flag.Bool("v", false, "print programs and conflict details")
	)
	flag.Parse()

	failures := 0
	for _, exp := range experiments() {
		if *id != "" && exp.ID != *id {
			continue
		}
		if err := runExperiment(exp, *trace, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAIL: %v\n", exp.ID, err)
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failures)
		os.Exit(1)
	}
}

func runExperiment(exp experiment, trace, verbose bool) error {
	fmt.Printf("== %s: %s\n", exp.ID, exp.Title)
	if verbose {
		fmt.Printf("   program:\n%s", indent(exp.Program))
		fmt.Printf("   database: %s\n", strings.TrimSpace(exp.Database))
		if exp.Updates != "" {
			fmt.Printf("   updates:  %s\n", strings.TrimSpace(exp.Updates))
		}
	}
	if exp.Run != nil {
		if err := exp.Run(trace, verbose); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	u := park.NewUniverse()
	prog, err := park.ParseProgram(u, exp.ID+"/program", exp.Program)
	if err != nil {
		return fmt.Errorf("parse program: %w", err)
	}
	db, err := park.ParseDatabase(u, exp.ID+"/database", exp.Database)
	if err != nil {
		return fmt.Errorf("parse database: %w", err)
	}
	var ups []park.Update
	if exp.Updates != "" {
		if ups, err = park.ParseUpdates(u, exp.ID+"/updates", exp.Updates); err != nil {
			return fmt.Errorf("parse updates: %w", err)
		}
	}
	opts := park.Options{}
	if trace {
		opts.Tracer = &park.TextTracer{W: os.Stdout, U: u, P: prog, Verbose: verbose}
	}
	strategy := park.Inertia()
	if exp.Strategy != nil {
		strategy = exp.Strategy()
	}
	eng, err := park.NewEngine(u, prog, strategy, opts)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	res, err := eng.Run(context.Background(), db, ups)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	got := park.FormatDatabase(u, res.Output)
	status := "OK"
	if got != exp.Expected {
		status = "MISMATCH"
	}
	fmt.Printf("   paper:    %s\n", exp.Expected)
	fmt.Printf("   measured: %s   [%s]\n", got, status)
	fmt.Printf("   stats: phases=%d steps=%d conflicts=%d blocked=%d gamma=%d+%d groundings=%d wall=%v\n",
		res.RunStats.Phases, res.RunStats.Steps, res.RunStats.Conflicts, res.RunStats.BlockedInstances,
		res.RunStats.FullSteps, res.RunStats.DeltaSteps, res.RunStats.Groundings,
		res.RunStats.Wall.Round(time.Microsecond))
	if exp.Notes != "" {
		fmt.Printf("   note: %s\n", exp.Notes)
	}
	if verbose {
		for _, rc := range res.Conflicts {
			fmt.Printf("   conflict %s -> %s\n", rc.Conflict.String(u, eng.Program()), rc.Decision)
		}
		for _, g := range res.Blocked {
			fmt.Printf("   blocked %s\n", g.String(u, eng.Program()))
		}
	}
	if exp.Check != nil {
		if err := exp.Check(u, res); err != nil {
			return err
		}
	}
	fmt.Println()
	if got != exp.Expected {
		return fmt.Errorf("result %s, want %s", got, exp.Expected)
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for i, l := range lines {
		lines[i] = "      " + strings.TrimSpace(l)
	}
	return strings.Join(lines, "\n") + "\n"
}
