package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestRelationBasics(t *testing.T) {
	r := NewRelation(2)
	if r.Arity() != 2 || r.Len() != 0 {
		t.Fatalf("fresh relation: arity=%d len=%d", r.Arity(), r.Len())
	}
	row := r.Append([]int32{1, 2}, 10)
	if row != 0 {
		t.Fatalf("first row index = %d, want 0", row)
	}
	r.Append([]int32{1, 3}, 11)
	r.Append([]int32{2, 3}, 12)
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if got := r.Row(1); !reflect.DeepEqual(got, []int32{1, 3}) {
		t.Fatalf("Row(1) = %v", got)
	}
	if r.ID(2) != 12 {
		t.Fatalf("ID(2) = %d", r.ID(2))
	}
	if got := r.IDs(); !reflect.DeepEqual(got, []int32{10, 11, 12}) {
		t.Fatalf("IDs = %v", got)
	}
}

func TestRelationZeroArity(t *testing.T) {
	r := NewRelation(0)
	r.Append(nil, 7)
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
	if rows := scanRows(r, nil, true); len(rows) != 1 {
		t.Fatalf("scanned rows %v, want one", rows)
	}
	r.Truncate()
	if r.Len() != 0 {
		t.Fatalf("len after truncate = %d", r.Len())
	}
}

func TestRelationNegativeArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRelation(-1) did not panic")
		}
	}()
	NewRelation(-1)
}

func TestAppendArityMismatchPanics(t *testing.T) {
	r := NewRelation(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong arity did not panic")
		}
	}()
	r.Append([]int32{1}, 0)
}

func TestProbe(t *testing.T) {
	r := NewRelation(2)
	r.Append([]int32{1, 2}, 0)
	r.Append([]int32{1, 3}, 1)
	r.Append([]int32{2, 3}, 2)
	if got := r.Probe(0, 1); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("Probe(0,1) = %v", got)
	}
	// Appending after an index is built must extend it.
	r.Append([]int32{1, 9}, 3)
	if got := r.Probe(0, 1); !reflect.DeepEqual(got, []int32{0, 1, 3}) {
		t.Fatalf("Probe(0,1) after append = %v", got)
	}
	if got := r.Probe(1, 3); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Probe(1,3) = %v", got)
	}
	if got := r.Probe(1, 42); len(got) != 0 {
		t.Fatalf("Probe(1,42) = %v, want empty", got)
	}
}

func TestTruncateDropsIndexes(t *testing.T) {
	r := NewRelation(1)
	r.Append([]int32{5}, 0)
	if got := r.Probe(0, 5); len(got) != 1 {
		t.Fatalf("Probe = %v", got)
	}
	r.Truncate()
	if got := r.Probe(0, 5); len(got) != 0 {
		t.Fatalf("Probe after truncate = %v", got)
	}
	r.Append([]int32{5}, 1)
	if got := r.Probe(0, 5); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("Probe after re-append = %v", got)
	}
	if r.ID(0) != 1 {
		t.Fatalf("ID(0) = %d, want 1", r.ID(0))
	}
}

// scanRows lists the rows matching pattern as the matcher finds them:
// the candidates Candidates selects, filtered by MatchRow.
func scanRows(r *Relation, pattern []int32, useIndex bool) []int {
	var rows []int
	cand, all := r.Candidates(pattern, useIndex)
	if all {
		for row := 0; row < r.Len(); row++ {
			cand = append(cand, int32(row))
		}
	}
	for _, row := range cand {
		if MatchRow(r.Row(int(row)), pattern) {
			rows = append(rows, int(row))
		}
	}
	return rows
}

func TestScanIndexedVsLinearAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRelation(3)
	for i := 0; i < 500; i++ {
		r.Append([]int32{int32(rng.Intn(5)), int32(rng.Intn(5)), int32(rng.Intn(5))}, int32(i))
	}
	patterns := [][]int32{
		{Unbound, Unbound, Unbound},
		{2, Unbound, Unbound},
		{Unbound, 3, Unbound},
		{1, Unbound, 4},
		{0, 0, 0},
		{4, 4, Unbound},
	}
	for _, p := range patterns {
		a := scanRows(r, p, true)
		b := scanRows(r, p, false)
		sort.Ints(a)
		sort.Ints(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pattern %v: indexed %v != linear %v", p, a, b)
		}
	}

	// Selection heuristic: a skewed relation where column 0 is almost
	// useless (all rows share one value) and column 1 is selective.
	// The scan must probe the shortest posting list regardless of which
	// bound column comes first in the pattern, and must still agree
	// with the linear scan.
	skew := NewRelation(3)
	for i := 0; i < 400; i++ {
		skew.Append([]int32{7, int32(i % 100), int32(i % 2)}, int32(i))
	}
	skewPatterns := [][]int32{
		{7, 42, Unbound},       // col 0 matches 400 rows, col 1 only 4
		{7, Unbound, 1},        // col 2's list (200) still beats col 0's (400)
		{7, 42, 0},             // all three bound, middle one wins
		{7, 999, Unbound},      // selective column matches nothing: empty result
		{Unbound, 42, Unbound}, // single bound column unchanged
	}
	for _, p := range skewPatterns {
		a := scanRows(skew, p, true)
		b := scanRows(skew, p, false)
		sort.Ints(a)
		sort.Ints(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("skew pattern %v: indexed %v != linear %v", p, a, b)
		}
	}
	// White-box check that the heuristic consults the selective
	// column at all: a pre-heuristic scan probed only the FIRST bound
	// column, so column 1's index was never built for a {bound,
	// bound, _} pattern. With the smallest-list selection every bound
	// column is probed (to compare list lengths), which is observable
	// through the lazily built indexes.
	fresh := NewRelation(3)
	for i := 0; i < 400; i++ {
		fresh.Append([]int32{7, int32(i % 100), int32(i % 2)}, int32(i))
	}
	fresh.Candidates([]int32{7, 42, Unbound}, true)
	if fresh.builtUpTo[1] != 400 {
		t.Fatalf("selective column index built up to %d rows, want 400 (heuristic never considered column 1)", fresh.builtUpTo[1])
	}
	// And the probe sizes confirm which list the heuristic favors.
	if c0, c1 := len(fresh.Probe(0, 7)), len(fresh.Probe(1, 42)); c0 != 400 || c1 != 4 {
		t.Fatalf("posting lists = %d/%d, want 400/4", c0, c1)
	}
}

func TestStorePredStore(t *testing.T) {
	s := NewStore()
	ps := s.Pred(1, 2)
	if ps == nil || ps.Base.Arity() != 2 {
		t.Fatal("Pred did not create store")
	}
	if s.Pred(1, 2) != ps {
		t.Fatal("Pred not idempotent")
	}
	if s.Lookup(1) != ps {
		t.Fatal("Lookup mismatch")
	}
	if s.Lookup(99) != nil {
		t.Fatal("Lookup(99) should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity conflict did not panic")
		}
	}()
	s.Pred(1, 3)
}

func TestStoreResetPhase(t *testing.T) {
	s := NewStore()
	ps := s.Pred(1, 1)
	ps.Base.Append([]int32{1}, 0)
	ps.Plus.Append([]int32{2}, 1)
	ps.Minus.Append([]int32{3}, 2)
	st := s.Stats()
	if st.BaseRows != 1 || st.PlusRows != 1 || st.MinusRows != 1 || st.Predicates != 1 {
		t.Fatalf("stats before reset: %+v", st)
	}
	s.ResetPhase()
	st = s.Stats()
	if st.BaseRows != 1 || st.PlusRows != 0 || st.MinusRows != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
}

// Property: Probe(c,v) returns exactly the rows whose column c is v,
// in ascending order, regardless of interleaved appends and probes.
func TestProbeQuick(t *testing.T) {
	f := func(vals []uint8, probeCol uint8, probeVal uint8) bool {
		r := NewRelation(2)
		for i, v := range vals {
			r.Append([]int32{int32(v % 7), int32(v / 7 % 7)}, int32(i))
			if i == len(vals)/2 {
				r.Probe(0, int32(probeVal%7)) // force index build mid-stream
			}
		}
		c := int(probeCol % 2)
		v := int32(probeVal % 7)
		got := r.Probe(c, v)
		var want []int32
		for row := 0; row < r.Len(); row++ {
			if r.Row(row)[c] == v {
				want = append(want, int32(row))
			}
		}
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
