// Command parkbench regenerates the B-series experiments of DESIGN.md:
// the scaling, ablation and comparison measurements that back the
// paper's complexity and design claims (polynomial tractability,
// bounded restarts, strategy costs, the necessity of the restart
// semantics, and the unambiguity requirement).
//
// Usage:
//
//	parkbench [-id B3] [-quick]
//
// Each experiment prints one table; EXPERIMENTS.md records the
// paper-vs-measured interpretation of every row.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		id    = flag.String("id", "", "run only this experiment (e.g. B2)")
		quick = flag.Bool("quick", false, "smaller parameter sweeps (CI-friendly)")
	)
	flag.Parse()

	type bench struct {
		id   string
		name string
		run  func(quick bool) error
	}
	benches := []bench{
		{"B1", "polynomial data complexity (transitive closure sweep)", runB1},
		{"B2", "restart count vs planted conflicts (ladder & wide)", runB2},
		{"B3", "conflict resolution strategy costs", runB3},
		{"B4", "PARK vs naive post-hoc: divergence and cost on random programs", runB4},
		{"B5", "ablation: semi-naive vs naive Γ evaluation", runB5},
		{"B6", "ablation: hash-indexed vs linear matching", runB6},
		{"B7", "ECA trigger-cascade scaling", runB7},
		{"B8", "unambiguity: sequential firing orders vs PARK", runB8},
		{"B9", "ablation: blocking granularity (all conflicts vs one per restart)", runB9},
		{"B11", "full-system transaction throughput (durable store)", runB11},
		{"B12", "concurrent commit pipeline: group commit by client count", runB12},
		{"B13", "read-replica scaling: throughput and lag vs follower count", runB13},
		{"B14", "flight-recorder overhead: off vs on vs always-slow", runB14},
	}
	failed := 0
	for _, b := range benches {
		if *id != "" && b.id != *id {
			continue
		}
		fmt.Printf("== %s: %s\n", b.id, b.name)
		if err := b.run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", b.id, err)
			failed++
		}
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}
