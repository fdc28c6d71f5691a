package core

import (
	"fmt"

	"repro/internal/storage"
)

// matcher enumerates the valid rule groundings of a rule against an
// i-interpretation. It implements a backtracking join with greedy
// dynamic literal ordering: at every depth it first evaluates any
// fully bound non-enumerable literal (negation or built-in), and
// otherwise picks the enumerable literal with the most bound argument
// positions, breaking ties by smallest relation and then by body
// order. The ordering is deterministic, which keeps whole-engine runs
// reproducible.
type matcher struct {
	in *Interp
	u  *Universe

	// scratch buffers reused across calls so the inner evaluation loop
	// does not allocate: the binding, the body literal indexes, and
	// one frame per join depth.
	binding   []Sym
	remaining []int
	frames    []frame
}

// frame is the scratch of one join depth: the literals left for the
// depths below it, the ground arguments or the scan pattern of the
// literal evaluated at it, and the variables a scanned row bound.
type frame struct {
	rest    []int
	args    []Sym
	pattern []int32
	trail   []int
}

func newMatcher(in *Interp) *matcher {
	return &matcher{in: in, u: in.Universe()}
}

// Match enumerates every substitution θ of r such that every body
// literal of rθ is valid in the interpretation, calling yield with the
// complete binding (one symbol per rule variable, in variable order).
// The binding slice is reused between calls; yield must copy it if it
// retains it, and must not call Match on the same matcher. Returning
// false from yield stops the enumeration.
//
// preset optionally pre-binds variables (NoSym = unbound); it is used
// for goal-directed evaluation with a bound head. Match reports
// whether the enumeration ran to completion (true) or was stopped by
// yield (false).
func (m *matcher) Match(r *Rule, preset []Sym, yield func(binding []Sym) bool) bool {
	if cap(m.binding) < r.NumVars {
		m.binding = make([]Sym, r.NumVars)
	}
	m.binding = m.binding[:r.NumVars]
	for i := range m.binding {
		m.binding[i] = NoSym
	}
	if preset != nil {
		if len(preset) != r.NumVars {
			panic(fmt.Sprintf("core: preset length %d for rule with %d variables", len(preset), r.NumVars))
		}
		copy(m.binding, preset)
	}
	if n := len(r.Body); len(m.frames) < n {
		m.frames = append(m.frames, make([]frame, n-len(m.frames))...)
	}
	m.remaining = m.remaining[:0]
	for i := range r.Body {
		m.remaining = append(m.remaining, i)
	}
	return m.step(r, m.remaining, 0, yield)
}

// groundArgs resolves the atom's terms under the current binding,
// returning the argument symbols and whether all terms were bound.
func (m *matcher) groundArgs(a Atom, out []Sym) ([]Sym, bool) {
	out = out[:0]
	for _, t := range a.Args {
		if t.IsVar() {
			v := m.binding[t.Var()]
			if v == NoSym {
				return out, false
			}
			out = append(out, v)
		} else {
			out = append(out, t.Const())
		}
	}
	return out, true
}

// evalGround evaluates a fully bound literal.
func (m *matcher) evalGround(lit Literal, args []Sym) bool {
	switch lit.Kind {
	case LitEq:
		return args[0] == args[1]
	case LitNeq:
		return args[0] != args[1]
	case LitLt:
		return m.u.CompareConsts(args[0], args[1]) < 0
	case LitLe:
		return m.u.CompareConsts(args[0], args[1]) <= 0
	case LitGt:
		return m.u.CompareConsts(args[0], args[1]) > 0
	case LitGe:
		return m.u.CompareConsts(args[0], args[1]) >= 0
	}
	id, ok := m.u.LookupAtom(lit.Atom.Pred, args)
	switch lit.Kind {
	case LitPos:
		return ok && m.in.PosValid(id)
	case LitNeg:
		return !ok || m.in.NegValid(id)
	case LitEvIns:
		return ok && m.in.HasPlus(id)
	case LitEvDel:
		return ok && m.in.HasMinus(id)
	}
	panic("core: unknown literal kind")
}

// literalRelations returns the relations an enumerable literal scans;
// unused entries are nil. An array rather than a slice, because pick
// asks for every remaining literal at every depth.
func (m *matcher) literalRelations(lit Literal) [2]*storage.Relation {
	ps := m.in.Store().Lookup(int32(lit.Atom.Pred))
	if ps == nil {
		return [2]*storage.Relation{}
	}
	switch lit.Kind {
	case LitPos:
		return [2]*storage.Relation{ps.Base, ps.Plus}
	case LitEvIns:
		return [2]*storage.Relation{ps.Plus}
	case LitEvDel:
		return [2]*storage.Relation{ps.Minus}
	}
	panic("core: literalRelations on non-enumerable literal")
}

func (m *matcher) literalSize(lit Literal) int {
	n := 0
	for _, rel := range m.literalRelations(lit) {
		if rel != nil {
			n += rel.Len()
		}
	}
	return n
}

// boundCount returns how many argument positions of the literal are
// bound under the current binding (constants count as bound).
func (m *matcher) boundCount(lit Literal) int {
	n := 0
	for _, t := range lit.Atom.Args {
		if !t.IsVar() || m.binding[t.Var()] != NoSym {
			n++
		}
	}
	return n
}

func (m *matcher) fullyBound(lit Literal) bool {
	return m.boundCount(lit) == len(lit.Atom.Args)
}

// pick selects the index (into remaining) of the literal to evaluate
// next, or -1 if remaining is empty.
func (m *matcher) pick(r *Rule, remaining []int) int {
	// First preference: any fully bound literal — a constant-time
	// filter, and the only way to evaluate negations and built-ins.
	for i, li := range remaining {
		lit := r.Body[li]
		if m.fullyBound(lit) {
			return i
		}
	}
	// Otherwise the most-bound enumerable literal, smallest relation
	// first on ties.
	best, bestBound, bestSize := -1, -1, 0
	for i, li := range remaining {
		lit := r.Body[li]
		if !lit.Kind.IsBinding() {
			continue
		}
		b := m.boundCount(lit)
		size := m.literalSize(lit)
		if b > bestBound || (b == bestBound && size < bestSize) {
			best, bestBound, bestSize = i, b, size
		}
	}
	return best
}

// step evaluates the remaining literals at join depth depth, whose
// scratch is m.frames[depth].
func (m *matcher) step(r *Rule, remaining []int, depth int, yield func([]Sym) bool) bool {
	if len(remaining) == 0 {
		return yield(m.binding)
	}
	pickIdx := m.pick(r, remaining)
	if pickIdx < 0 {
		// Only non-enumerable literals with unbound variables remain;
		// the safety conditions make this unreachable for validated
		// rules.
		panic(fmt.Sprintf("core: rule %s: unbound variable in non-enumerable literal", r.label()))
	}
	lit := r.Body[remaining[pickIdx]]
	fr := &m.frames[depth]
	fr.rest = append(append(fr.rest[:0], remaining[:pickIdx]...), remaining[pickIdx+1:]...)

	if m.fullyBound(lit) {
		fr.args, _ = m.groundArgs(lit.Atom, fr.args)
		if !m.evalGround(lit, fr.args) {
			return true
		}
		return m.step(r, fr.rest, depth+1, yield)
	}

	// Enumerable literal with unbound variables: scan its relations.
	fr.pattern = fr.pattern[:0]
	for _, t := range lit.Atom.Args {
		p := storage.Unbound
		if !t.IsVar() {
			p = int32(t.Const())
		} else if v := m.binding[t.Var()]; v != NoSym {
			p = int32(v)
		}
		fr.pattern = append(fr.pattern, p)
	}
	for _, rel := range m.literalRelations(lit) {
		if rel == nil {
			continue
		}
		// Walking the candidate rows here, rather than through a
		// Relation.Scan callback, keeps closures off the heap.
		rows, all := rel.Candidates(fr.pattern, m.in.UseIndex)
		n := len(rows)
		if all {
			n = rel.Len()
		}
		for i := 0; i < n; i++ {
			row := i
			if !all {
				row = int(rows[i])
			}
			tuple := rel.Row(row)
			if storage.MatchRow(tuple, fr.pattern) && !m.bindRow(r, lit, tuple, depth, yield) {
				return false
			}
		}
	}
	return true
}

// bindRow binds the literal's free variables to one matching row,
// continues the join below depth, and undoes the bindings. It reports
// whether the enumeration goes on.
func (m *matcher) bindRow(r *Rule, lit Literal, row []int32, depth int, yield func([]Sym) bool) bool {
	fr := &m.frames[depth]
	fr.trail = fr.trail[:0]
	ok := true
	for i, t := range lit.Atom.Args {
		if !t.IsVar() {
			continue
		}
		v := t.Var()
		if m.binding[v] == NoSym {
			m.binding[v] = Sym(row[i])
			fr.trail = append(fr.trail, v)
		} else if m.binding[v] != Sym(row[i]) {
			ok = false
			break
		}
	}
	cont := true
	if ok {
		cont = m.step(r, fr.rest, depth+1, yield)
	}
	for _, v := range fr.trail {
		m.binding[v] = NoSym
	}
	return cont
}
