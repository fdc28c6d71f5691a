package core_test

import (
	"testing"

	"repro/internal/core"
)

// checkRuleStatSums asserts the RuleStat summation invariants: the
// per-rule counters must partition the run-wide totals exactly.
func checkRuleStatSums(t *testing.T, rs core.RunStats) {
	t.Helper()
	var st core.RuleStat
	for _, r := range rs.Rules {
		st.Groundings += r.Groundings
		st.Fires += r.Fires
		st.Blocked += r.Blocked
	}
	if st.Groundings != rs.Groundings {
		t.Fatalf("per-rule groundings sum %d != RunStats.Groundings %d", st.Groundings, rs.Groundings)
	}
	if st.Fires != rs.Derivations {
		t.Fatalf("per-rule fires sum %d != RunStats.Derivations %d", st.Fires, rs.Derivations)
	}
	if st.Blocked != int64(rs.BlockedInstances) {
		t.Fatalf("per-rule blocked sum %d != RunStats.BlockedInstances %d", st.Blocked, rs.BlockedInstances)
	}
}

func TestRuleStatsSumToRunTotals(t *testing.T) {
	res := runStatsFixture(t, core.Options{})
	rs := res.RunStats
	if len(rs.Rules) != 3 {
		t.Fatalf("got %d rule entries, want 3 (P_U with no updates)", len(rs.Rules))
	}
	checkRuleStatSums(t, rs)
	// The fixture's conflict on atom a: q -> +a (rule 2) vs p -> -a
	// (rule 1), resolved by inertia to delete. Rule 1 wins, rule 2
	// loses and is blocked.
	if rs.Rules[1].ConflictWins != 1 || rs.Rules[1].ConflictLosses != 0 {
		t.Fatalf("rule 1 wins/losses = %d/%d, want 1/0",
			rs.Rules[1].ConflictWins, rs.Rules[1].ConflictLosses)
	}
	if rs.Rules[2].ConflictLosses != 1 || rs.Rules[2].Blocked != 1 {
		t.Fatalf("rule 2 losses/blocked = %d/%d, want 1/1",
			rs.Rules[2].ConflictLosses, rs.Rules[2].Blocked)
	}
	// Match timing must have been recorded for the fired rules.
	for i, r := range rs.Rules {
		if r.MatchNanos < 0 {
			t.Fatalf("rule %d has negative match nanos", i)
		}
	}
}
