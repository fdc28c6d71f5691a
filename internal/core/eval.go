package core

// Derivation is one application of a rule grounding: the action ±atom
// it demands together with the grounding that produced it.
type Derivation struct {
	Op        HeadOp
	Atom      AID
	Grounding Grounding
}

// GammaDerivations evaluates one application of the immediate
// consequence operator Γ_{P,B} against the interpretation and returns
// every derivation of a non-blocked rule grounding with a valid body,
// deduplicated by grounding and ordered deterministically (rule index,
// then enumeration order). Unlike the PARK engine it performs no
// consistency checking and no provenance tracking; it is the building
// block for the baseline semantics in internal/baseline and is also
// handy for tools that want to inspect a single step.
func GammaDerivations(in *Interp, p *Program, blocked *BlockedSet) []Derivation {
	m := newMatcher(in)
	u := in.Universe()
	var out []Derivation
	var seen groundingSet
	var headArgs []Sym
	for ri := range p.Rules {
		r := &p.Rules[ri]
		m.Match(r, nil, func(binding []Sym) bool {
			g := Grounding{Rule: int32(ri), Args: binding}
			if !seen.add(g.Rule, binding) || (blocked != nil && blocked.Has(g)) {
				return true
			}
			g.Args = append([]Sym(nil), binding...)
			headArgs = headArgs[:0]
			for _, t := range r.Head.Args {
				if t.IsVar() {
					headArgs = append(headArgs, binding[t.Var()])
				} else {
					headArgs = append(headArgs, t.Const())
				}
			}
			aid, err := u.InternAtom(r.Head.Pred, headArgs)
			if err != nil {
				panic(err) // arities pinned by Validate
			}
			out = append(out, Derivation{Op: r.Op, Atom: aid, Grounding: g})
			return true
		})
	}
	return out
}
