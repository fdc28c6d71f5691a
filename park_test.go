package park_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	park "repro"
	"repro/internal/workload"
)

func TestEvalQuickstart(t *testing.T) {
	res, u, err := park.Eval(context.Background(), `
		p -> +q.
		p -> -a.
		q -> +a.
	`, `p.`, ``, park.Inertia(), park.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := park.FormatDatabase(u, res.Output); got != "{p, q}" {
		t.Fatalf("result = %s", got)
	}
}

func TestEvalParseErrors(t *testing.T) {
	if _, _, err := park.Eval(context.Background(), `p -> q.`, ``, ``, nil, park.Options{}); err == nil {
		t.Fatal("bad program accepted")
	}
	if _, _, err := park.Eval(context.Background(), ``, `p(X).`, ``, nil, park.Options{}); err == nil {
		t.Fatal("bad database accepted")
	}
	if _, _, err := park.Eval(context.Background(), ``, ``, `p(a).`, nil, park.Options{}); err == nil {
		t.Fatal("bad updates accepted")
	}
}

func TestFacadeStrategies(t *testing.T) {
	prog := `
		rule r1 priority 1: p -> +a.
		rule r2 priority 2: p -> -a.
	`
	cases := []struct {
		name  string
		strat park.Strategy
		want  string
	}{
		{"inertia", park.Inertia(), "{p}"},
		{"priority", park.Priority(nil), "{p}"}, // delete side has higher priority
		{"specificity", park.Specificity(), "{p}"},
		{"random-seed3", park.Random(3), ""}, // outcome seed-dependent, just must run
		{"voting", park.Voting(
			park.CriticFunc{CriticName: "c1", Fn: func(*park.SelectInput) (park.Decision, error) { return park.DecideInsert, nil }},
		), "{a, p}"},
		{"interactive", park.Interactive(strings.NewReader("i\n"), &strings.Builder{}), "{a, p}"},
		{"fallback", park.Fallback(park.Inertia()), "{p}"},
		{"protect", park.ProtectUpdates(park.Inertia()), "{p}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, u, err := park.Eval(context.Background(), prog, `p.`, ``, tc.strat, park.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != "" {
				if got := park.FormatDatabase(u, res.Output); got != tc.want {
					t.Fatalf("result = %s, want %s", got, tc.want)
				}
			}
		})
	}
}

func TestFacadeAnalyze(t *testing.T) {
	u := park.NewUniverse()
	prog, err := park.ParseProgram(u, "", `
		a(X) -> +f(X).
		b(X) -> -f(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	rep := park.Analyze(u, prog)
	if rep.ConflictFree() {
		t.Fatal("conflict potential missed through facade")
	}
}

func TestFacadeBaselines(t *testing.T) {
	u := park.NewUniverse()
	prog, err := park.ParseProgram(u, "", `
		p -> +q.
		p -> -a.
		q -> +a.
		!a -> +r.
		a -> +s.
	`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := park.ParseDatabase(u, "", `p.`)
	if err != nil {
		t.Fatal(err)
	}
	post, _, err := park.PostHoc(context.Background(), u, prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := park.FormatDatabase(u, post); got != "{p, q, r, s}" {
		t.Fatalf("post-hoc = %s", got)
	}
	eng, err := park.NewEngine(u, prog, nil, park.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := park.FormatDatabase(u, res.Output); got != "{p, q, r}" {
		t.Fatalf("park = %s", got)
	}
}

func TestFormatUpdates(t *testing.T) {
	u := park.NewUniverse()
	ups, err := park.ParseUpdates(u, "", `+q(b). -p(a).`)
	if err != nil {
		t.Fatal(err)
	}
	if got := park.FormatUpdates(u, ups); got != "{+q(b), -p(a)}" {
		t.Fatalf("updates = %s", got)
	}
}

// evalScenario evaluates a generated workload scenario.
func evalScenario(t *testing.T, sc workload.Scenario, strat park.Strategy, opts park.Options) (*park.Result, *park.Universe) {
	t.Helper()
	res, u, err := park.Eval(context.Background(), sc.Program, sc.Database, sc.Updates, strat, opts)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return res, u
}

// Property: PARK is a deterministic function — repeated evaluation of
// random programs yields identical results, blocked sets and stats.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		sc := workload.RandomProgram(10, 4, 4, seed%1000)
		r1, u1 := evalScenario(t, sc, park.Inertia(), park.Options{})
		r2, u2 := evalScenario(t, sc, park.Inertia(), park.Options{})
		if park.FormatDatabase(u1, r1.Output) != park.FormatDatabase(u2, r2.Output) {
			return false
		}
		return reflect.DeepEqual(counters(r1.RunStats), counters(r2.RunStats))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// counters strips the wall-clock fields from rs, leaving what a
// deterministic run must reproduce exactly.
func counters(rs park.RunStats) park.RunStats {
	rs.Wall, rs.PhaseWall = 0, nil
	rs.Rules = slices.Clone(rs.Rules)
	for i := range rs.Rules {
		rs.Rules[i].MatchNanos = 0
	}
	return rs
}

// Property: the engine configurations (naive/semi-naive, indexed/
// linear) are observationally equivalent.
func TestQuickConfigEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		sc := workload.RandomProgram(10, 4, 4, seed%1000)
		base, u0 := evalScenario(t, sc, park.Inertia(), park.Options{})
		want := park.FormatDatabase(u0, base.Output)
		for _, opts := range []park.Options{{Naive: true}, {NoIndex: true}, {Naive: true, NoIndex: true}} {
			r, u := evalScenario(t, sc, park.Inertia(), opts)
			if park.FormatDatabase(u, r.Output) != want {
				return false
			}
			if r.RunStats.Conflicts != base.RunStats.Conflicts || r.RunStats.Phases != base.RunStats.Phases {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: phase count is exactly restarts+1 and every restart
// blocked at least one grounding (the termination argument).
func TestQuickTerminationBound(t *testing.T) {
	f := func(seed int64) bool {
		sc := workload.RandomProgram(12, 4, 3, seed%1000)
		r, _ := evalScenario(t, sc, park.Inertia(), park.Options{})
		restarts := r.RunStats.Phases - 1
		return restarts >= 0 && r.RunStats.BlockedInstances >= restarts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: on conflict-free programs (by static analysis) PARK
// equals the plain inflationary semantics — the §3 compatibility
// requirement.
func TestQuickConflictFreeEqualsInflationary(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 400 && checked < 40; seed++ {
		sc := workload.RandomProgram(8, 4, 4, seed)
		u := park.NewUniverse()
		prog, err := park.ParseProgram(u, "", sc.Program)
		if err != nil {
			t.Fatal(err)
		}
		if !park.Analyze(u, prog).ConflictFree() {
			continue
		}
		checked++
		db, err := park.ParseDatabase(u, "", sc.Database)
		if err != nil {
			t.Fatal(err)
		}
		infl, err := park.Inflationary(context.Background(), u, prog, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := park.NewEngine(u, prog, nil, park.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RunStats.Conflicts != 0 {
			t.Fatalf("seed %d: statically conflict-free program raised a conflict", seed)
		}
		a, b := park.FormatDatabase(u, infl), park.FormatDatabase(u, res.Output)
		if a != b {
			t.Fatalf("seed %d: inflationary %s != park %s", seed, a, b)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d conflict-free programs among 400 seeds", checked)
	}
}

// Property: consistently renaming constants renames the result — PARK
// is generic (isomorphism invariance).
func TestQuickRenamingIsomorphism(t *testing.T) {
	rename := func(s string) string {
		// Workload constants are k0..k9; map k<i> -> z<9-i>.
		var sb strings.Builder
		for i := 0; i < len(s); i++ {
			if s[i] == 'k' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				sb.WriteByte('z')
				sb.WriteByte('9' - (s[i+1] - '0'))
				i++
				continue
			}
			sb.WriteByte(s[i])
		}
		return sb.String()
	}
	f := func(seed int64) bool {
		sc := workload.RandomProgram(10, 4, 4, seed%1000)
		r1, u1 := evalScenario(t, sc, park.Inertia(), park.Options{})
		sc2 := sc
		sc2.Program = rename(sc.Program)
		sc2.Database = rename(sc.Database)
		r2, u2 := evalScenario(t, sc2, park.Inertia(), park.Options{})
		// Renaming does not preserve sort order, so compare as sets.
		asSet := func(s string) string {
			s = strings.Trim(s, "{}")
			parts := strings.Split(s, ", ")
			sort.Strings(parts)
			return strings.Join(parts, ", ")
		}
		return asSet(rename(park.FormatDatabase(u1, r1.Output))) == asSet(park.FormatDatabase(u2, r2.Output))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with no rules, PARK(∅, D, U) applies exactly the
// (non-conflicting) updates.
func TestQuickUpdateApplication(t *testing.T) {
	f := func(addMask, delMask uint8) bool {
		names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		var db, ups strings.Builder
		want := map[string]bool{}
		for i, n := range names {
			inDB := i%2 == 0
			if inDB {
				db.WriteString(n + ". ")
			}
			add := addMask&(1<<i) != 0
			del := delMask&(1<<i) != 0
			if add {
				ups.WriteString("+" + n + ". ")
			}
			if del {
				ups.WriteString("-" + n + ". ")
			}
			switch {
			case add && del:
				want[n] = inDB // inertia keeps original status
			case add:
				want[n] = true
			case del:
				want[n] = false
			default:
				want[n] = inDB
			}
		}
		res, u, err := park.Eval(context.Background(), ``, db.String(), ups.String(), park.Inertia(), park.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := park.FormatDatabase(u, res.Output)
		for n, present := range want {
			has := strings.Contains(got, n)
			if has != present {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every conflict recorded in a run has non-empty sides and
// the blocked set contains exactly the losing groundings that were
// newly blocked.
func TestQuickConflictWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		sc := workload.RandomProgram(12, 3, 3, seed%1000)
		r, _ := evalScenario(t, sc, park.Inertia(), park.Options{})
		for _, rc := range r.Conflicts {
			if len(rc.Conflict.Ins) == 0 || len(rc.Conflict.Del) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: under ProtectUpdates, every update that does not clash
// with an opposite update in the same transaction is reflected in the
// result, regardless of what the (random) rules try to do.
func TestQuickProtectUpdatesWins(t *testing.T) {
	f := func(seed int64) bool {
		sc := workload.RandomProgram(8, 3, 3, seed%500)
		u := park.NewUniverse()
		prog, err := park.ParseProgram(u, "", sc.Program)
		if err != nil {
			t.Fatal(err)
		}
		db, err := park.ParseDatabase(u, "", sc.Database)
		if err != nil {
			t.Fatal(err)
		}
		ups, err := park.ParseUpdates(u, "", `+p0(k0). -p1(k1).`)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := park.NewEngine(u, prog, park.ProtectUpdates(park.Inertia()), park.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), db, ups)
		if err != nil {
			t.Fatal(err)
		}
		out := park.FormatDatabase(u, res.Output)
		return strings.Contains(out, "p0(k0)") && !strings.Contains(out, "p1(k1)")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The system layer is reachable from the facade: store + server +
// client, end to end.
func TestFacadeSystemLayer(t *testing.T) {
	store, err := park.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := park.NewServer(store)
	if err := srv.SetProgram(`-active(X) -> +audit(X).`); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &park.Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := c.Transact(ctx, `+active(tom).`); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Transact(ctx, `-active(tom).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Added) != 1 || resp.Added[0] != "audit(tom)" {
		t.Fatalf("added = %v", resp.Added)
	}
	if facts, err := c.Database(ctx); err != nil || len(facts) != 1 || facts[0] != "audit(tom)" {
		t.Fatalf("database = %v, %v", facts, err)
	}
	// Backup through the facade type and restore into a new store.
	var buf strings.Builder
	if err := store.Backup(&buf); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := park.RestoreStore(dir2, strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	s2, err := park.OpenStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("restored store has %d facts", s2.Len())
	}
}
