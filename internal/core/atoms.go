package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// AID identifies an interned ground atom within a Universe.
type AID int32

// Atom is a (possibly non-ground) atom: a predicate applied to terms.
type Atom struct {
	Pred Sym
	Args []Term
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Universe interns the symbols and ground atoms of one evaluation.
// The extended Herbrand base H*(P, D) of the paper is the set
// {a, +a, -a | a interned here}; marks are kept by Interp, not by the
// universe.
//
// A Universe is safe for concurrent use: interning is append-only and
// idempotent, so concurrent request parsers and engine runs (the
// server evaluates PARK outside the store's commit lock) share one
// universe without external synchronization. Reads take the shared
// lock; interning takes it exclusively only when the atom is new.
type Universe struct {
	Syms *SymbolTable

	mu    sync.RWMutex
	atoms []groundAtom   // AID -> atom
	index map[string]AID // encoded key -> AID

	arities map[Sym]int // pinned predicate arities
}

type groundAtom struct {
	pred Sym
	args []Sym
}

// NewUniverse returns an empty universe with a fresh symbol table.
func NewUniverse() *Universe {
	return &Universe{
		Syms:    NewSymbolTable(),
		index:   make(map[string]AID),
		arities: make(map[Sym]int),
	}
}

// PinArity records (or checks) the arity of a predicate. It returns
// an error if the predicate was previously used with a different
// arity.
func (u *Universe) PinArity(pred Sym, arity int) error {
	u.mu.RLock()
	got, ok := u.arities[pred]
	u.mu.RUnlock()
	if ok {
		return u.checkArity(pred, got, arity)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.pinArityLocked(pred, arity)
}

// pinArityLocked is PinArity under an already-held write lock.
func (u *Universe) pinArityLocked(pred Sym, arity int) error {
	if got, ok := u.arities[pred]; ok {
		return u.checkArity(pred, got, arity)
	}
	u.arities[pred] = arity
	return nil
}

func (u *Universe) checkArity(pred Sym, got, want int) error {
	if got != want {
		return fmt.Errorf("predicate %s used with arity %d and %d", u.Syms.Name(pred), got, want)
	}
	return nil
}

// Arity returns the pinned arity of a predicate and whether the
// predicate is known.
func (u *Universe) Arity(pred Sym) (int, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	a, ok := u.arities[pred]
	return a, ok
}

// appendAtomKey appends the index key of pred(args...) to b. Callers
// build it in a stack buffer, so looking up a known atom allocates
// nothing; only a new atom's key is copied into the index.
func appendAtomKey(b []byte, pred Sym, args []Sym) []byte {
	b = binary.AppendUvarint(b, uint64(pred))
	for _, a := range args {
		b = binary.AppendUvarint(b, uint64(a))
	}
	return b
}

// InternAtom returns the AID for the ground atom pred(args...),
// interning it if new. It returns an error on arity mismatch.
func (u *Universe) InternAtom(pred Sym, args []Sym) (AID, error) {
	var buf [64]byte
	key := appendAtomKey(buf[:0], pred, args)
	// Fast path: the atom (and its pinned arity) already exist.
	u.mu.RLock()
	id, ok := u.index[string(key)]
	u.mu.RUnlock()
	if ok {
		return id, nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := u.pinArityLocked(pred, len(args)); err != nil {
		return -1, err
	}
	if id, ok := u.index[string(key)]; ok {
		return id, nil
	}
	id = AID(len(u.atoms))
	cp := make([]Sym, len(args))
	copy(cp, args)
	u.atoms = append(u.atoms, groundAtom{pred: pred, args: cp})
	u.index[string(key)] = id
	return id, nil
}

// LookupAtom returns the AID of a ground atom if it has been interned.
func (u *Universe) LookupAtom(pred Sym, args []Sym) (AID, bool) {
	var buf [64]byte
	key := appendAtomKey(buf[:0], pred, args)
	u.mu.RLock()
	defer u.mu.RUnlock()
	id, ok := u.index[string(key)]
	return id, ok
}

// NumAtoms returns the number of interned ground atoms.
func (u *Universe) NumAtoms() int {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return len(u.atoms)
}

// atom returns the interned atom record and whether id is valid.
// Argument slices are immutable after interning, so the returned
// record may be used without holding the lock.
func (u *Universe) atom(id AID) (groundAtom, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	if id < 0 || int(id) >= len(u.atoms) {
		return groundAtom{}, false
	}
	return u.atoms[id], true
}

// AtomPred returns the predicate of an interned ground atom.
func (u *Universe) AtomPred(id AID) Sym {
	ga, _ := u.atom(id)
	return ga.pred
}

// AtomArgs returns the argument symbols of an interned ground atom.
// The slice must not be modified.
func (u *Universe) AtomArgs(id AID) []Sym {
	ga, _ := u.atom(id)
	return ga.args
}

// AtomString renders an interned ground atom as text, e.g. "q(a, b)".
func (u *Universe) AtomString(id AID) string {
	ga, ok := u.atom(id)
	if !ok {
		return fmt.Sprintf("atom#%d", id)
	}
	if len(ga.args) == 0 {
		return u.Syms.Name(ga.pred)
	}
	var sb strings.Builder
	sb.WriteString(u.Syms.Name(ga.pred))
	sb.WriteByte('(')
	for i, a := range ga.args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(u.Syms.Name(a))
	}
	sb.WriteByte(')')
	return sb.String()
}

// CompareConsts orders two constant symbols: when both names parse as
// (possibly signed) integers they compare numerically, otherwise
// lexicographically by name. Used by the built-in order comparisons.
func (u *Universe) CompareConsts(a, b Sym) int {
	an, bn := u.Syms.Name(a), u.Syms.Name(b)
	ai, aok := parseInt(an)
	bi, bok := parseInt(bn)
	if aok && bok {
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	}
	return strings.Compare(an, bn)
}

// parseInt is a minimal integer parser (no allocation, no stdlib
// strconv error values) accepting an optional leading minus sign.
func parseInt(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	neg := false
	i := 0
	if s[0] == '-' {
		if len(s) == 1 {
			return 0, false
		}
		neg = true
		i = 1
	}
	var n int64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
		if n < 0 {
			return 0, false // overflow
		}
	}
	if neg {
		n = -n
	}
	return n, true
}

// SortAtoms sorts AIDs by their textual rendering; used to produce
// deterministic, human-stable output.
func (u *Universe) SortAtoms(ids []AID) {
	// Snapshot the append-only atom slice once; prefix entries are
	// immutable, so the comparator needs no further locking.
	u.mu.RLock()
	atoms := u.atoms
	u.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool {
		a, b := atoms[ids[i]], atoms[ids[j]]
		an, bn := u.Syms.Name(a.pred), u.Syms.Name(b.pred)
		if an != bn {
			return an < bn
		}
		for k := 0; k < len(a.args) && k < len(b.args); k++ {
			x, y := u.Syms.Name(a.args[k]), u.Syms.Name(b.args[k])
			if x != y {
				return x < y
			}
		}
		return len(a.args) < len(b.args)
	})
}
