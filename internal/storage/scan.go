package storage

// Pattern describes a selection over a relation: for each column
// either a bound symbol or Unbound.
const Unbound int32 = -1

// MatchRow reports whether the given row matches the pattern.
func MatchRow(row []int32, pattern []int32) bool {
	for i, p := range pattern {
		if p != Unbound && row[i] != p {
			return false
		}
	}
	return true
}

// Candidates returns the rows a scan for pattern has to examine. If
// useIndex is true and at least one pattern column is bound, they are
// the (lazily built) hash index's posting list of the most selective
// bound column — the shortest one — and all is false; the rows of the
// other bound columns would all be re-checked by MatchRow anyway, so
// the smallest list minimizes the work. Otherwise all is true: every
// row is a candidate. Candidates must still be checked with MatchRow.
// The useIndex=false path exists for the indexing ablation benchmark.
func (r *Relation) Candidates(pattern []int32, useIndex bool) (rows []int32, all bool) {
	if len(pattern) != r.arity {
		panic("storage: pattern arity mismatch")
	}
	if !useIndex {
		return nil, true
	}
	found := false
	for c, p := range pattern {
		if p == Unbound {
			continue
		}
		probe := r.Probe(c, p)
		if !found || len(probe) < len(rows) {
			rows, found = probe, true
		}
		if len(rows) == 0 {
			break // no rows can match; also the cheapest possible probe
		}
	}
	return rows, !found
}

// Scan calls fn for every row of r that matches pattern, in row
// order, until fn returns false. It examines the rows Candidates
// selects.
func (r *Relation) Scan(pattern []int32, useIndex bool, fn func(row int) bool) {
	rows, all := r.Candidates(pattern, useIndex)
	if !all {
		for _, row := range rows {
			if MatchRow(r.Row(int(row)), pattern) && !fn(int(row)) {
				return
			}
		}
		return
	}
	n := r.Len()
	for row := 0; row < n; row++ {
		if MatchRow(r.Row(row), pattern) && !fn(row) {
			return
		}
	}
}

// Contains reports whether any row matches the fully or partially
// bound pattern.
func (r *Relation) Contains(pattern []int32, useIndex bool) bool {
	found := false
	r.Scan(pattern, useIndex, func(int) bool {
		found = true
		return false
	})
	return found
}
