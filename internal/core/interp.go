package core

import (
	"repro/internal/storage"
)

// bitset is a growable set over dense non-negative indexes.
type bitset []uint64

func (b *bitset) set(i int) {
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b bitset) unset(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

func (b bitset) get(i int) bool {
	w := i >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

func (b bitset) clearAll() {
	for i := range b {
		b[i] = 0
	}
}

// Interp is an i-interpretation (§4.2): the unmarked atoms I⁻ of the
// original database instance plus the atoms currently marked "+" (I⁺)
// and "-" (I⁻ marked). It couples the mark bitsets with the tuple
// store that the matcher scans, and is append-only between phase
// resets. An Interp is consistent by construction: the engine never
// applies a step that would mark an atom both "+" and "-".
type Interp struct {
	u     *Universe
	store *storage.Store

	base  bitset
	plus  bitset
	minus bitset

	baseAtoms  []AID // insertion order of D
	plusAtoms  []AID // insertion order within the phase
	minusAtoms []AID

	// UseIndex selects indexed vs linear matching; exposed for the
	// indexing ablation benchmark. Defaults to true.
	UseIndex bool

	row []int32 // scratch for locate
}

// NewInterp returns the i-interpretation <D> with no marked atoms,
// loading D into the base relations.
func NewInterp(u *Universe, d *Database) *Interp {
	in := &Interp{u: u, store: storage.NewStore(), UseIndex: true}
	for _, id := range d.Atoms() {
		in.addBase(id)
	}
	return in
}

// Universe returns the universe the interpretation is built over.
func (in *Interp) Universe() *Universe { return in.u }

// locate returns the relations of id's predicate and id's arguments as
// a storage row. The row is scratch that the next call overwrites;
// Relation.Append copies it.
func (in *Interp) locate(id AID) (*storage.PredStore, []int32) {
	ga, _ := in.u.atom(id)
	in.row = in.row[:0]
	for _, a := range ga.args {
		in.row = append(in.row, int32(a))
	}
	return in.store.Pred(int32(ga.pred), len(ga.args)), in.row
}

func (in *Interp) addBase(id AID) {
	if in.base.get(int(id)) {
		return
	}
	in.base.set(int(id))
	in.baseAtoms = append(in.baseAtoms, id)
	ps, row := in.locate(id)
	ps.Base.Append(row, int32(id))
}

// AddPlus marks +a. It must not be called when -a is present; the
// engine checks consistency before applying a step.
func (in *Interp) AddPlus(id AID) {
	if in.plus.get(int(id)) {
		return
	}
	in.plus.set(int(id))
	in.plusAtoms = append(in.plusAtoms, id)
	ps, row := in.locate(id)
	ps.Plus.Append(row, int32(id))
}

// AddMinus marks -a, symmetrically to AddPlus.
func (in *Interp) AddMinus(id AID) {
	if in.minus.get(int(id)) {
		return
	}
	in.minus.set(int(id))
	in.minusAtoms = append(in.minusAtoms, id)
	ps, row := in.locate(id)
	ps.Minus.Append(row, int32(id))
}

// ResetPhase discards every marked atom, restoring the interpretation
// to the unmarked kernel I⁻ = D. This is the restart the Δ operator
// performs after conflict resolution.
func (in *Interp) ResetPhase() {
	in.plus.clearAll()
	in.minus.clearAll()
	in.plusAtoms = in.plusAtoms[:0]
	in.minusAtoms = in.minusAtoms[:0]
	in.store.ResetPhase()
}

// HasBase reports a ∈ I⁻ (a was in the original database).
func (in *Interp) HasBase(id AID) bool { return in.base.get(int(id)) }

// HasPlus reports +a ∈ I.
func (in *Interp) HasPlus(id AID) bool { return in.plus.get(int(id)) }

// HasMinus reports -a ∈ I.
func (in *Interp) HasMinus(id AID) bool { return in.minus.get(int(id)) }

// PosValid reports validity of the positive literal a:
// I ∩ {a, +a} ≠ ∅.
func (in *Interp) PosValid(id AID) bool {
	return in.base.get(int(id)) || in.plus.get(int(id))
}

// NegValid reports validity of the negative literal !a:
// -a ∈ I, or neither a nor +a appears in I.
func (in *Interp) NegValid(id AID) bool {
	return in.minus.get(int(id)) || !in.PosValid(id)
}

// BaseAtoms returns I⁻ in insertion order; the slice must not be
// modified.
func (in *Interp) BaseAtoms() []AID { return in.baseAtoms }

// PlusAtoms returns the +marked atoms in derivation order.
func (in *Interp) PlusAtoms() []AID { return in.plusAtoms }

// MinusAtoms returns the -marked atoms in derivation order.
func (in *Interp) MinusAtoms() []AID { return in.minusAtoms }

// Store exposes the tuple store for the matcher.
func (in *Interp) Store() *storage.Store { return in.store }

// Incorp applies the incorporate operator (§4.2):
//
//	incorp(I) = (I⁻ ∪ {a | +a ∈ I}) − {a | -a ∈ I}
//
// returning the resulting database instance. The interpretation must
// be consistent, which the engine guarantees.
func (in *Interp) Incorp() *Database {
	n := len(in.baseAtoms) + len(in.plusAtoms)
	out := &Database{ids: make([]AID, 0, n), seen: make(map[AID]struct{}, n)}
	for _, id := range in.baseAtoms {
		if !in.minus.get(int(id)) {
			out.Add(id)
		}
	}
	for _, id := range in.plusAtoms {
		out.Add(id)
	}
	return out
}

// changes returns what incorp(I) changes in D, read from the marks in
// derivation order: the "+"-marked atoms not in D and the "-"-marked
// atoms in D. As sets they are the insertions and the deletions of
// Diff(D, Incorp()).
func (in *Interp) changes() (inserted, deleted []AID) {
	for _, id := range in.plusAtoms {
		if !in.base.get(int(id)) {
			inserted = append(inserted, id)
		}
	}
	for _, id := range in.minusAtoms {
		if in.base.get(int(id)) {
			deleted = append(deleted, id)
		}
	}
	return inserted, deleted
}

// Snapshot returns the marked atoms as (+list, -list) copies, sorted
// for deterministic rendering. Used by traces and tests that compare
// against the paper's printed intermediate interpretations.
func (in *Interp) Snapshot() (plus, minus []AID) {
	plus = append([]AID(nil), in.plusAtoms...)
	minus = append([]AID(nil), in.minusAtoms...)
	in.u.SortAtoms(plus)
	in.u.SortAtoms(minus)
	return plus, minus
}
