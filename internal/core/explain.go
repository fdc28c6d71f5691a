package core

import (
	"fmt"
	"strings"
)

// Explainer answers "why is this atom in (or not in) the result?"
// after an evaluation run with Options.Explain set. It holds the
// final phase's interpretation and derivation provenance; explanations
// are derivation trees grounded in the original database, in absence,
// and in the transaction's updates.
type Explainer struct {
	u    *Universe
	prog *Program
	in   *Interp
	// first maps each mark to the grounding with the smallest key among
	// those that derived it during the final phase.
	first map[MarkedAtom]Grounding
}

// newExplainer indexes the final phase's provenance log.
func newExplainer(u *Universe, prog *Program, in *Interp, prov []Derivation) *Explainer {
	first := make(map[MarkedAtom]Grounding)
	for _, d := range prov {
		m := MarkedAtom{Op: d.Op, Atom: d.Atom}
		if g, ok := first[m]; !ok || compareGroundings(d.Grounding, g) < 0 {
			first[m] = d.Grounding
		}
	}
	return &Explainer{u: u, prog: prog, in: in, first: first}
}

// ExplainStatus classifies an atom's situation in the final state.
type ExplainStatus uint8

const (
	// StatusBase: the atom was in the original database and survived.
	StatusBase ExplainStatus = iota
	// StatusInserted: the atom carries a surviving + mark.
	StatusInserted
	// StatusDeleted: the atom carries a surviving - mark (it is not in
	// the result).
	StatusDeleted
	// StatusAbsent: the atom was never in the database nor derived.
	StatusAbsent
)

func (s ExplainStatus) String() string {
	switch s {
	case StatusBase:
		return "in the original database"
	case StatusInserted:
		return "inserted"
	case StatusDeleted:
		return "deleted"
	case StatusAbsent:
		return "absent"
	}
	return "?"
}

// Explanation is one node of a derivation tree.
type Explanation struct {
	// Atom is the explained atom (negative for pseudo-nodes).
	Atom AID
	// Status classifies the atom.
	Status ExplainStatus
	// InResult reports membership in the final database instance.
	InResult bool
	// Rule and Grounding identify the deriving rule instance for
	// Inserted/Deleted atoms (Rule is -1 otherwise). Body-less update
	// rules explain transaction updates.
	Rule      int32
	Grounding *Grounding
	// Premises explains each body literal of the deriving instance,
	// in body order.
	Premises []*Explanation
	// Revisit marks a node whose atom is already being explained
	// higher up the tree (recursion broken there).
	Revisit bool
}

// Explain builds the derivation tree for an atom of the universe.
func (ex *Explainer) Explain(atom AID) *Explanation {
	return ex.explain(atom, make(map[AID]bool))
}

func (ex *Explainer) explain(atom AID, visiting map[AID]bool) *Explanation {
	e := &Explanation{Atom: atom, Rule: -1}
	switch {
	case ex.in.HasPlus(atom):
		e.Status = StatusInserted
		e.InResult = true
	case ex.in.HasMinus(atom):
		e.Status = StatusDeleted
	case ex.in.HasBase(atom):
		e.Status = StatusBase
		e.InResult = true
		return e
	default:
		e.Status = StatusAbsent
		return e
	}
	if visiting[atom] {
		e.Revisit = true
		return e
	}
	visiting[atom] = true
	defer delete(visiting, atom)

	op := OpInsert
	if e.Status == StatusDeleted {
		op = OpDelete
	}
	g, ok := ex.firstDeriver(op, atom)
	if !ok {
		// Can only happen if provenance was pruned; keep the node as a
		// leaf rather than failing.
		return e
	}
	e.Rule = g.Rule
	e.Grounding = &g
	r := &ex.prog.Rules[g.Rule]
	for _, lit := range r.Body {
		e.Premises = append(e.Premises, ex.explainLiteral(r, lit, g.Args, visiting))
	}
	return e
}

// firstDeriver returns the deterministically-first recorded grounding
// that derived ±atom during the final phase.
func (ex *Explainer) firstDeriver(op HeadOp, atom AID) (Grounding, bool) {
	g, ok := ex.first[MarkedAtom{Op: op, Atom: atom}]
	return g, ok
}

// explainLiteral explains why one instantiated body literal held.
func (ex *Explainer) explainLiteral(r *Rule, lit Literal, binding []Sym, visiting map[AID]bool) *Explanation {
	if lit.Kind.Builtin() {
		// Built-ins are self-evident on ground terms.
		return &Explanation{Atom: -1, Status: StatusBase, Rule: -1, InResult: true}
	}
	args := make([]Sym, 0, len(lit.Atom.Args))
	for _, t := range lit.Atom.Args {
		if t.IsVar() {
			args = append(args, binding[t.Var()])
		} else {
			args = append(args, t.Const())
		}
	}
	id, ok := ex.u.LookupAtom(lit.Atom.Pred, args)
	if !ok {
		// Never interned: the literal held by absence (negation).
		return &Explanation{Atom: -1, Status: StatusAbsent, Rule: -1}
	}
	switch lit.Kind {
	case LitPos, LitEvIns:
		return ex.explain(id, visiting)
	case LitNeg:
		// Negation holds because of a - mark or by absence; the
		// sub-explanation captures which.
		sub := ex.explain(id, visiting)
		return sub
	case LitEvDel:
		return ex.explain(id, visiting)
	}
	return &Explanation{Atom: id, Status: StatusAbsent, Rule: -1}
}

// Format renders the explanation as an indented tree.
func (ex *Explainer) Format(e *Explanation) string {
	var sb strings.Builder
	ex.format(&sb, e, 0)
	return sb.String()
}

func (ex *Explainer) format(sb *strings.Builder, e *Explanation, depth int) {
	indent := strings.Repeat("  ", depth)
	name := "<builtin>"
	if e.Atom >= 0 {
		name = ex.u.AtomString(e.Atom)
	}
	switch {
	case e.Revisit:
		fmt.Fprintf(sb, "%s%s: %s (explained above)\n", indent, name, e.Status)
	case e.Rule >= 0:
		label := ex.prog.RuleLabel(int(e.Rule))
		fmt.Fprintf(sb, "%s%s: %s by %s\n", indent, name, e.Status, label)
		for _, p := range e.Premises {
			ex.format(sb, p, depth+1)
		}
	default:
		fmt.Fprintf(sb, "%s%s: %s\n", indent, name, e.Status)
	}
}
