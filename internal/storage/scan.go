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
