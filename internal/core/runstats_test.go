package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

// runStatsFixture evaluates a small conflicting program and returns
// the result. Rule 3 (q -> +a) and rule 2 (p -> -a) conflict on a;
// inertia deletes (a not in D), so the run restarts once.
func runStatsFixture(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "prog", `
		p -> +q.
		p -> -a.
		q -> +a.
	`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.ParseDatabase(u, "db", `p.`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(u, prog, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The engine accessor must agree with the result.
	if got := eng.RunStats(); got.Phases != res.RunStats.Phases ||
		got.Groundings != res.RunStats.Groundings ||
		got.Conflicts != res.RunStats.Conflicts {
		t.Fatalf("Engine.RunStats() = %+v, result RunStats = %+v", got, res.RunStats)
	}
	return res
}

func TestRunStatsCounters(t *testing.T) {
	res := runStatsFixture(t, core.Options{})
	rs := res.RunStats
	if rs.Phases != 2 || rs.Restarts != 1 {
		t.Fatalf("phases=%d restarts=%d, want 2/1", rs.Phases, rs.Restarts)
	}
	if rs.Conflicts != 1 || rs.DeleteDecisions != 1 || rs.InsertDecisions != 0 {
		t.Fatalf("conflicts=%d ins=%d del=%d, want 1/0/1",
			rs.Conflicts, rs.InsertDecisions, rs.DeleteDecisions)
	}
	// Every phase starts with a full step; the semi-naive run also
	// takes incremental steps.
	if rs.FullSteps < rs.Phases {
		t.Fatalf("full steps = %d < phases = %d", rs.FullSteps, rs.Phases)
	}
	if rs.DeltaSteps == 0 {
		t.Fatal("no semi-naive steps recorded")
	}
	if rs.Groundings < rs.Derivations {
		t.Fatalf("groundings %d < derivations %d (dedup cannot add)", rs.Groundings, rs.Derivations)
	}
	if len(rs.PhaseWall) != rs.Phases {
		t.Fatalf("phase wall entries = %d, want %d", len(rs.PhaseWall), rs.Phases)
	}
	var sum int64
	for _, d := range rs.PhaseWall {
		if d < 0 {
			t.Fatalf("negative phase duration %v", d)
		}
		sum += int64(d)
	}
	if int64(rs.Wall) < sum {
		t.Fatalf("wall %v < sum of phases %v", rs.Wall, sum)
	}
}

func TestRunStatsNaiveCountsOnlyFullSteps(t *testing.T) {
	res := runStatsFixture(t, core.Options{Naive: true})
	rs := res.RunStats
	if rs.DeltaSteps != 0 {
		t.Fatalf("naive run recorded %d delta steps", rs.DeltaSteps)
	}
	if rs.FullSteps == 0 {
		t.Fatal("naive run recorded no full steps")
	}
}
