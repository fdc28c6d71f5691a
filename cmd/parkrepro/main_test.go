package main

import (
	"context"
	"testing"

	park "repro"
)

// Every E-series experiment must reproduce the paper exactly; this is
// the same check `go run ./cmd/parkrepro` performs, wired into the
// test suite.
func TestAllExperimentsReproduce(t *testing.T) {
	exps := experiments()
	if len(exps) != 12 {
		t.Fatalf("experiment count = %d, want 12 (E1–E12)", len(exps))
	}
	seen := map[string]bool{}
	for _, exp := range exps {
		if seen[exp.ID] {
			t.Fatalf("duplicate experiment id %s", exp.ID)
		}
		seen[exp.ID] = true
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			if err := runExperiment(exp, false, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The traced/verbose paths must also succeed (they print the paper
// style traces).
func TestExperimentsWithTrace(t *testing.T) {
	for _, exp := range experiments() {
		if err := runExperiment(exp, true, true); err != nil {
			t.Fatalf("%s (traced): %v", exp.ID, err)
		}
	}
}

// Every standard-flow paper example must produce its exact paper
// result under EVERY engine configuration — the modes are
// observationally equivalent on the full E-series.
func TestExperimentsAcrossEngineModes(t *testing.T) {
	modes := map[string]park.Options{
		"default":    {},
		"naive":      {Naive: true},
		"noindex":    {NoIndex: true},
		"resolveone": {ResolveOne: true},
		"explain":    {Explain: true},
	}
	for _, exp := range experiments() {
		if exp.Run != nil || exp.Expected == "" {
			continue
		}
		for mode, opts := range modes {
			t.Run(exp.ID+"/"+mode, func(t *testing.T) {
				u := park.NewUniverse()
				prog, err := park.ParseProgram(u, "", exp.Program)
				if err != nil {
					t.Fatal(err)
				}
				db, err := park.ParseDatabase(u, "", exp.Database)
				if err != nil {
					t.Fatal(err)
				}
				var ups []park.Update
				if exp.Updates != "" {
					if ups, err = park.ParseUpdates(u, "", exp.Updates); err != nil {
						t.Fatal(err)
					}
				}
				strategy := park.Inertia()
				if exp.Strategy != nil {
					strategy = exp.Strategy()
				}
				eng, err := park.NewEngine(u, prog, strategy, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(context.Background(), db, ups)
				if err != nil {
					t.Fatal(err)
				}
				if got := park.FormatDatabase(u, res.Output); got != exp.Expected {
					t.Fatalf("%s under %s: %s, want %s", exp.ID, mode, got, exp.Expected)
				}
			})
		}
	}
}
