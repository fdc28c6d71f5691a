package core

import (
	"sort"
	"time"
)

// gammaStep computes the candidate additions of one application of
// the immediate consequence operator Γ_{P,B} to the current
// interpretation (§4.2): the heads of all non-blocked rule groundings
// whose bodies are valid, minus what the interpretation already
// contains. The candidates are collected into rs.stepFacts but not
// applied. It returns the atoms on which applying the step would be
// inconsistent (both +a and -a present), sorted by atom id; an empty
// result means Γ(I) is consistent.
//
// When full is false the step is evaluated semi-naively: only rule
// instances with at least one body literal whose validity can have
// been switched on by the previous step's delta are re-enumerated.
// Positive and +event literals are triggered by newly "+"-marked
// atoms, negative and -event literals by newly "-"-marked atoms.
// The first step of every phase must be full.
func (e *Engine) gammaStep(m *matcher, full bool) []AID {
	rs := e.run
	rs.stepFacts = rs.stepFacts[:0]
	clear(rs.stepSeen)
	clear(rs.stepHave)

	if full {
		rs.stats.FullSteps++
		for ri := range rs.progU.Rules {
			e.enumRule(m, ri, nil)
		}
	} else {
		rs.stats.DeltaSteps++
		dp := groupByPred(e.u, rs.deltaPlus)
		dm := groupByPred(e.u, rs.deltaMinus)
		for ri := range rs.progU.Rules {
			r := &rs.progU.Rules[ri]
			for li := range r.Body {
				lit := r.Body[li]
				var delta []AID
				switch lit.Kind {
				case LitPos, LitEvIns:
					delta = dp[lit.Atom.Pred]
				case LitNeg, LitEvDel:
					delta = dm[lit.Atom.Pred]
				default:
					continue
				}
				for _, aid := range delta {
					preset, ok := unifyAtomArgs(r, lit.Atom, e.u.AtomArgs(aid))
					if !ok {
						continue
					}
					e.enumRule(m, ri, preset)
				}
			}
		}
	}

	var inconsistent []AID
	seen := make(map[AID]struct{})
	for _, c := range rs.stepFacts {
		bad := false
		if c.op == OpInsert {
			if rs.in.HasMinus(c.atom) {
				bad = true
			} else if _, ok := rs.stepHave[provKey{OpDelete, c.atom}]; ok {
				bad = true
			}
		} else {
			if rs.in.HasPlus(c.atom) {
				bad = true
			} else if _, ok := rs.stepHave[provKey{OpInsert, c.atom}]; ok {
				bad = true
			}
		}
		if bad {
			if _, dup := seen[c.atom]; !dup {
				seen[c.atom] = struct{}{}
				inconsistent = append(inconsistent, c.atom)
			}
		}
	}
	sort.Slice(inconsistent, func(i, j int) bool { return inconsistent[i] < inconsistent[j] })
	return inconsistent
}

// enumRule enumerates the valid groundings of rule ri (optionally
// restricted by a preset binding), recording provenance and collecting
// new candidate facts.
func (e *Engine) enumRule(m *matcher, ri int, preset []Sym) {
	start := time.Now()
	m.Match(&e.run.progU.Rules[ri], preset, func(binding []Sym) bool {
		e.processGrounding(Grounding{Rule: int32(ri), Args: append([]Sym(nil), binding...)})
		return true
	})
	e.run.rules[ri].MatchNanos += time.Since(start).Nanoseconds()
}

// processGrounding folds one valid grounding into the current step:
// dedup, blocked filtering, head resolution, provenance and candidate
// collection.
func (e *Engine) processGrounding(g Grounding) {
	rs := e.run
	rs.stats.Groundings++
	rs.rules[g.Rule].Groundings++
	r := &rs.progU.Rules[g.Rule]
	k := g.Key()
	if _, ok := rs.stepSeen[k]; ok {
		return
	}
	rs.stepSeen[k] = struct{}{}
	if rs.blocked.HasKey(k) {
		return
	}
	rs.stats.Derivations++
	rs.rules[g.Rule].Fires++

	headArgs := make([]Sym, 0, len(r.Head.Args))
	for _, t := range r.Head.Args {
		if t.IsVar() {
			headArgs = append(headArgs, g.Args[t.Var()])
		} else {
			headArgs = append(headArgs, t.Const())
		}
	}
	aid, err := e.u.InternAtom(r.Head.Pred, headArgs)
	if err != nil {
		// Arities were pinned by Validate; a mismatch here is a bug.
		panic(err)
	}
	pk := provKey{r.Op, aid}
	pm := rs.prov[pk]
	if pm == nil {
		pm = make(map[string]Grounding)
		rs.prov[pk] = pm
	}
	if _, ok := pm[k]; !ok {
		pm[k] = g
	}

	already := (r.Op == OpInsert && rs.in.HasPlus(aid)) || (r.Op == OpDelete && rs.in.HasMinus(aid))
	if already {
		return
	}
	if _, ok := rs.stepHave[pk]; ok {
		return
	}
	rs.stepHave[pk] = struct{}{}
	rs.stepFacts = append(rs.stepFacts, candidate{op: r.Op, atom: aid})
}

// groupByPred buckets atom ids by predicate.
func groupByPred(u *Universe, ids []AID) map[Sym][]AID {
	if len(ids) == 0 {
		return nil
	}
	out := make(map[Sym][]AID)
	for _, id := range ids {
		p := u.AtomPred(id)
		out[p] = append(out[p], id)
	}
	return out
}

// unifyAtomArgs unifies a rule atom against ground argument symbols,
// producing a preset binding over the rule's variables (NoSym where
// unconstrained). It reports false when unification fails.
func unifyAtomArgs(r *Rule, a Atom, args []Sym) ([]Sym, bool) {
	if len(a.Args) != len(args) {
		return nil, false
	}
	preset := make([]Sym, r.NumVars)
	for i := range preset {
		preset[i] = NoSym
	}
	for i, t := range a.Args {
		if t.IsVar() {
			v := t.Var()
			if preset[v] == NoSym {
				preset[v] = args[i]
			} else if preset[v] != args[i] {
				return nil, false
			}
		} else if t.Const() != args[i] {
			return nil, false
		}
	}
	return preset, true
}
