// Benchmarks regenerating the B-series experiments of DESIGN.md with
// the standard testing.B harness (cmd/parkbench prints the same
// measurements as tables). One benchmark family per experiment.
package park_test

import (
	"context"
	"fmt"
	"testing"

	park "repro"
	"repro/internal/workload"
)

// benchScenario parses once and evaluates once per iteration.
func benchScenario(b *testing.B, sc workload.Scenario, strat park.Strategy, opts park.Options) {
	b.Helper()
	u := park.NewUniverse()
	prog, err := park.ParseProgram(u, sc.Name, sc.Program)
	if err != nil {
		b.Fatal(err)
	}
	db, err := park.ParseDatabase(u, sc.Name, sc.Database)
	if err != nil {
		b.Fatal(err)
	}
	var ups []park.Update
	if sc.Updates != "" {
		if ups, err = park.ParseUpdates(u, sc.Name, sc.Updates); err != nil {
			b.Fatal(err)
		}
	}
	eng, err := park.NewEngine(u, prog, strat, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, db, ups); err != nil {
			b.Fatal(err)
		}
	}
}

// B1 — polynomial data complexity: transitive closure sweep.
func BenchmarkB1TransitiveClosure(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			benchScenario(b, workload.TransitiveClosure(n, 20, 1), nil, park.Options{})
		})
	}
}

// B2 — restart count vs planted conflicts.
func BenchmarkB2ConflictLadder(b *testing.B) {
	for _, k := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("ladder=%d", k), func(b *testing.B) {
			benchScenario(b, workload.ConflictLadder(k), nil, park.Options{})
		})
	}
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("wide=%d", k), func(b *testing.B) {
			benchScenario(b, workload.WideConflicts(k), nil, park.Options{})
		})
	}
}

// B3 — conflict resolution strategy costs.
func BenchmarkB3Strategies(b *testing.B) {
	sc := workload.ConflictLadder(16)
	always := func(d park.Decision) park.Critic {
		return park.CriticFunc{CriticName: "const", Fn: func(*park.SelectInput) (park.Decision, error) { return d, nil }}
	}
	for _, s := range []struct {
		name  string
		strat park.Strategy
	}{
		{"inertia", park.Inertia()},
		{"priority", park.Priority(nil)},
		{"random", park.Random(1)},
		{"voting3", park.Voting(always(park.DecideInsert), always(park.DecideDelete), always(park.DecideDelete))},
		{"specificity", park.Specificity()},
	} {
		b.Run(s.name, func(b *testing.B) {
			benchScenario(b, sc, s.strat, park.Options{})
		})
	}
}

// B4 — PARK vs the naive post-hoc baseline on a conflict-bearing
// random program.
func BenchmarkB4ParkVsPostHoc(b *testing.B) {
	sc := workload.RandomProgram(10, 4, 4, 3)
	b.Run("park", func(b *testing.B) {
		benchScenario(b, sc, nil, park.Options{})
	})
	b.Run("posthoc", func(b *testing.B) {
		u := park.NewUniverse()
		prog, err := park.ParseProgram(u, "", sc.Program)
		if err != nil {
			b.Fatal(err)
		}
		db, err := park.ParseDatabase(u, "", sc.Database)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := park.PostHoc(ctx, u, prog, db, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// B5 — ablation: semi-naive vs naive Γ evaluation.
func BenchmarkB5Seminaive(b *testing.B) {
	for _, n := range []int{64, 256} {
		sc := workload.Chain(n)
		b.Run(fmt.Sprintf("seminaive/chain=%d", n), func(b *testing.B) {
			benchScenario(b, sc, nil, park.Options{})
		})
		b.Run(fmt.Sprintf("naive/chain=%d", n), func(b *testing.B) {
			benchScenario(b, sc, nil, park.Options{Naive: true})
		})
	}
}

// B6 — ablation: hash-indexed vs linear matching on a probe-dominated
// selective join.
func BenchmarkB6Indexing(b *testing.B) {
	sc := workload.SelectiveJoin(16000, 512, 1)
	b.Run("indexed", func(b *testing.B) {
		benchScenario(b, sc, nil, park.Options{})
	})
	b.Run("linear", func(b *testing.B) {
		benchScenario(b, sc, nil, park.Options{NoIndex: true})
	})
}

// B7 — ECA trigger-cascade scaling.
func BenchmarkB7Cascade(b *testing.B) {
	for _, depth := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d/width=8", depth), func(b *testing.B) {
			benchScenario(b, workload.TriggerCascade(depth, 8), nil, park.Options{})
		})
	}
	for _, width := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth=16/width=%d", width), func(b *testing.B) {
			benchScenario(b, workload.TriggerCascade(16, width), nil, park.Options{})
		})
	}
}

// B8 — the sequential baseline (one firing order) vs PARK on the same
// conflict-bearing program; the result-multiplicity measurement lives
// in cmd/parkbench (it is not a timing experiment).
func BenchmarkB8SequentialVsPark(b *testing.B) {
	prog := "p, !b -> +a.\np, !a -> +b.\n"
	db := "p."
	b.Run("park", func(b *testing.B) {
		benchScenario(b, workload.Scenario{Name: "mutex", Program: prog, Database: db}, nil, park.Options{})
	})
	b.Run("sequential", func(b *testing.B) {
		u := park.NewUniverse()
		p, err := park.ParseProgram(u, "", prog)
		if err != nil {
			b.Fatal(err)
		}
		d, err := park.ParseDatabase(u, "", db)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		seq := &park.SequentialBaseline{Seed: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := seq.Run(ctx, u, p, d, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Realistic scenario benchmark: HR payroll maintenance at scale.
func BenchmarkHRPayroll(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("employees=%d", n), func(b *testing.B) {
			benchScenario(b, workload.HRPayroll(n, 10, 7), nil, park.Options{})
		})
	}
}

// B9 — ablation: blocking granularity (all conflicts per restart vs
// one).
func BenchmarkB9BlockingGranularity(b *testing.B) {
	sc := workload.WideConflicts(32)
	b.Run("all", func(b *testing.B) {
		benchScenario(b, sc, nil, park.Options{})
	})
	b.Run("one", func(b *testing.B) {
		benchScenario(b, sc, nil, park.Options{ResolveOne: true})
	})
}

// Grid reachability: many redundant derivation paths stress per-step
// dedup (complements the chain and TC shapes).
func BenchmarkGridReachability(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchScenario(b, workload.Grid(n), nil, park.Options{})
		})
	}
}

// Explain-mode overhead: provenance retention cost on a busy run.
func BenchmarkExplainOverhead(b *testing.B) {
	sc := workload.TransitiveClosure(24, 20, 1)
	b.Run("plain", func(b *testing.B) {
		benchScenario(b, sc, nil, park.Options{})
	})
	b.Run("explain", func(b *testing.B) {
		benchScenario(b, sc, nil, park.Options{Explain: true})
	})
}
