// Package storage implements the tuple storage layer used by the PARK
// evaluation engine.
//
// The engine works on i-interpretations: a fixed set of unmarked base
// facts (the original database instance D) plus atoms marked "+" or
// "-" that accumulate during one inflationary phase and are discarded
// wholesale when a conflict forces the phase to restart. Storage
// mirrors that life cycle: every predicate owns three relations
// (base, plus, minus); base is immutable once the phase structure is
// frozen, while plus and minus are append-only within a phase and are
// truncated in O(1) amortized time on restart.
//
// Relations keep their tuples in a flat column-major-free int32 array
// (arity columns per row) and build per-column hash indexes lazily on
// first use. Indexes over the immutable base survive phase restarts;
// indexes over plus/minus are dropped on reset.
//
// The package is deliberately independent of the rule layer: symbols
// and atom identifiers are plain int32 values assigned by the caller.
package storage

import "fmt"

// Relation stores fixed-arity tuples of interned symbols together
// with the caller-assigned atom identifier of each row.
type Relation struct {
	arity int
	flat  []int32 // len = rows*arity
	ids   []int32 // atom id per row
	// cols[c] maps a symbol to the list of row indexes whose c-th
	// column holds that symbol. Built lazily; builtUpTo[c] records how
	// many rows the index covers so appends extend it incrementally.
	cols      []map[int32][]int32
	builtUpTo []int
}

// NewRelation returns an empty relation with the given arity.
// Arity zero is valid and models propositional predicates.
func NewRelation(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("storage: negative arity %d", arity))
	}
	return &Relation{
		arity:     arity,
		cols:      make([]map[int32][]int32, arity),
		builtUpTo: make([]int, arity),
	}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of rows.
func (r *Relation) Len() int {
	if r.arity == 0 {
		return len(r.ids)
	}
	return len(r.flat) / r.arity
}

// Append adds one tuple with its atom id and returns its row index.
// The tuple length must equal the relation arity.
func (r *Relation) Append(tuple []int32, id int32) int {
	if len(tuple) != r.arity {
		panic(fmt.Sprintf("storage: appending tuple of arity %d to relation of arity %d", len(tuple), r.arity))
	}
	row := r.Len()
	r.flat = append(r.flat, tuple...)
	r.ids = append(r.ids, id)
	return row
}

// Row returns the tuple at the given row index. The returned slice
// aliases internal storage and must not be modified.
func (r *Relation) Row(row int) []int32 {
	return r.flat[row*r.arity : (row+1)*r.arity]
}

// ID returns the atom id recorded for the given row.
func (r *Relation) ID(row int) int32 { return r.ids[row] }

// IDs returns all atom ids in insertion order. The slice aliases
// internal storage and must not be modified.
func (r *Relation) IDs() []int32 { return r.ids }

// ensureIndex extends (building if necessary) the hash index for
// column c to cover all current rows. It writes to the relation, so
// even Probe is not safe for concurrent use.
func (r *Relation) ensureIndex(c int) map[int32][]int32 {
	idx := r.cols[c]
	n := r.Len()
	if idx != nil && r.builtUpTo[c] == n {
		return idx
	}
	if idx == nil {
		idx = make(map[int32][]int32)
		r.cols[c] = idx
	}
	for row := r.builtUpTo[c]; row < n; row++ {
		v := r.flat[row*r.arity+c]
		idx[v] = append(idx[v], int32(row))
	}
	r.builtUpTo[c] = n
	return idx
}

// Probe returns the row indexes whose column c equals v, using (and
// lazily maintaining) the hash index for that column.
func (r *Relation) Probe(c int, v int32) []int32 {
	return r.ensureIndex(c)[v]
}

// Truncate discards all rows, keeping allocated capacity, and drops
// all indexes. Used when a plus/minus relation is reset at a phase
// restart.
func (r *Relation) Truncate() {
	r.flat = r.flat[:0]
	r.ids = r.ids[:0]
	for c := range r.cols {
		r.cols[c] = nil
		r.builtUpTo[c] = 0
	}
}

// PredStore groups the three relations of one predicate.
type PredStore struct {
	// Base holds the unmarked atoms of the original database instance.
	// It is immutable during evaluation, so its indexes survive phase
	// restarts.
	Base *Relation
	// Plus and Minus hold the atoms marked "+" and "-" within the
	// current phase.
	Plus  *Relation
	Minus *Relation
}

// Store is the full storage for one evaluation: one PredStore per
// predicate symbol.
type Store struct {
	preds map[int32]*PredStore
	// arity pins the arity of each predicate the store has seen.
	arity map[int32]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		preds: make(map[int32]*PredStore),
		arity: make(map[int32]int),
	}
}

// Pred returns the PredStore for the predicate, creating it with the
// given arity on first use. It panics if the predicate was previously
// used with a different arity; the rule loader validates arities
// before evaluation, so this indicates a bug.
func (s *Store) Pred(pred int32, arity int) *PredStore {
	ps, ok := s.preds[pred]
	if !ok {
		ps = &PredStore{
			Base:  NewRelation(arity),
			Plus:  NewRelation(arity),
			Minus: NewRelation(arity),
		}
		s.preds[pred] = ps
		s.arity[pred] = arity
		return ps
	}
	if got := s.arity[pred]; got != arity {
		panic(fmt.Sprintf("storage: predicate %d used with arity %d and %d", pred, got, arity))
	}
	return ps
}

// Lookup returns the PredStore for the predicate, or nil if the store
// has never seen it.
func (s *Store) Lookup(pred int32) *PredStore { return s.preds[pred] }

// ResetPhase truncates every plus and minus relation, restoring the
// store to the base snapshot. Base relations and their indexes are
// untouched.
func (s *Store) ResetPhase() {
	for _, ps := range s.preds {
		ps.Plus.Truncate()
		ps.Minus.Truncate()
	}
}

// Stats describes the current size of a store.
type Stats struct {
	Predicates int
	BaseRows   int
	PlusRows   int
	MinusRows  int
}

// Stats returns current row counts, mostly for tracing and tests.
func (s *Store) Stats() Stats {
	st := Stats{Predicates: len(s.preds)}
	for _, ps := range s.preds {
		st.BaseRows += ps.Base.Len()
		st.PlusRows += ps.Plus.Len()
		st.MinusRows += ps.Minus.Len()
	}
	return st
}
