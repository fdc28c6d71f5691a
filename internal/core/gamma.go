package core

import (
	"slices"
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
//
// Each rule's MatchNanos is charged once per step, from its first
// enumeration to its last, and only in steps that enumerate it.
func (e *Engine) gammaStep(m *matcher, full bool) []AID {
	rs := e.run
	for _, c := range rs.stepFacts {
		rs.stepHave[c.Op].unset(int(c.Atom))
	}
	rs.stepFacts = rs.stepFacts[:0]
	rs.stepSeen.reset()

	if full {
		rs.stats.FullSteps++
		for ri := range rs.progU.Rules {
			start := time.Now()
			e.enumRule(m, ri, nil)
			rs.rules[ri].MatchNanos += time.Since(start).Nanoseconds()
		}
	} else {
		rs.stats.DeltaSteps++
		dp := groupByPred(e.u, rs.deltaPlus)
		dm := groupByPred(e.u, rs.deltaMinus)
		for ri := range rs.progU.Rules {
			r := &rs.progU.Rules[ri]
			// Most rules are not triggered by a given delta; reading the
			// clock for each of them would cost more than their work.
			var start time.Time
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
					var ok bool
					rs.preset, ok = unifyAtomArgs(rs.preset, r, lit.Atom, e.u.AtomArgs(aid))
					if !ok {
						continue
					}
					if start.IsZero() {
						start = time.Now()
					}
					e.enumRule(m, ri, rs.preset)
				}
			}
			if !start.IsZero() {
				rs.rules[ri].MatchNanos += time.Since(start).Nanoseconds()
			}
		}
	}

	var inconsistent []AID
	for _, c := range rs.stepFacts {
		other, marked := OpDelete, rs.in.HasMinus(c.Atom)
		if c.Op == OpDelete {
			other, marked = OpInsert, rs.in.HasPlus(c.Atom)
		}
		if marked || rs.stepHave[other].get(int(c.Atom)) {
			inconsistent = append(inconsistent, c.Atom)
		}
	}
	// An atom whose both marks are candidates is listed twice.
	slices.Sort(inconsistent)
	return slices.Compact(inconsistent)
}

// enumRule enumerates the valid groundings of rule ri (optionally
// restricted by a preset binding) and folds each into the step.
func (e *Engine) enumRule(m *matcher, ri int, preset []Sym) {
	e.run.rule = int32(ri)
	m.Match(&e.run.progU.Rules[ri], preset, e.run.yield)
}

// processGrounding folds one valid grounding of rule rs.rule into the
// current step: dedup, blocked filtering, head resolution, provenance
// and candidate collection. binding is the matcher's scratch; it is
// copied, into the run's arena, only once the grounding survives dedup
// and the blocked filter. It is the matcher's yield and always asks
// for more.
func (e *Engine) processGrounding(binding []Sym) bool {
	rs := e.run
	ri := rs.rule
	rs.stats.Groundings++
	rs.rules[ri].Groundings++
	if !rs.stepSeen.add(ri, binding) || rs.blocked.Has(Grounding{Rule: ri, Args: binding}) {
		return true
	}
	rs.stats.Derivations++
	rs.rules[ri].Fires++

	r := &rs.progU.Rules[ri]
	rs.headArgs = rs.headArgs[:0]
	for _, t := range r.Head.Args {
		if t.IsVar() {
			rs.headArgs = append(rs.headArgs, binding[t.Var()])
		} else {
			rs.headArgs = append(rs.headArgs, t.Const())
		}
	}
	aid, err := e.u.InternAtom(r.Head.Pred, rs.headArgs)
	if err != nil {
		// Arities were pinned by Validate; a mismatch here is a bug.
		panic(err)
	}
	rs.prov = append(rs.prov, Derivation{Op: r.Op, Atom: aid, Grounding: Grounding{Rule: ri, Args: rs.args.copy(binding)}})

	already := (r.Op == OpInsert && rs.in.HasPlus(aid)) || (r.Op == OpDelete && rs.in.HasMinus(aid))
	if already || rs.stepHave[r.Op].get(int(aid)) {
		return true
	}
	rs.stepHave[r.Op].set(int(aid))
	rs.stepFacts = append(rs.stepFacts, MarkedAtom{Op: r.Op, Atom: aid})
	return true
}

// symArena hands out copies of substitutions carved from shared
// chunks, which double in size as the run derives more. Chunks are
// never reused: blocked sets, conflicts and explanations keep pointing
// into them after the phase that logged them has restarted.
type symArena struct{ chunk []Sym }

func (a *symArena) copy(s []Sym) []Sym {
	if len(s) == 0 {
		return nil
	}
	if len(s) > cap(a.chunk)-len(a.chunk) {
		a.chunk = make([]Sym, 0, max(2*cap(a.chunk), 64, len(s)))
	}
	n := len(a.chunk)
	a.chunk = append(a.chunk, s...)
	return a.chunk[n:len(a.chunk):len(a.chunk)]
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
// producing in dst's storage a preset binding over the rule's
// variables (NoSym where unconstrained). It reports false when
// unification fails.
func unifyAtomArgs(dst []Sym, r *Rule, a Atom, args []Sym) ([]Sym, bool) {
	preset := slices.Grow(dst[:0], r.NumVars)[:r.NumVars]
	if len(a.Args) != len(args) {
		return preset, false
	}
	for i := range preset {
		preset[i] = NoSym
	}
	for i, t := range a.Args {
		if t.IsVar() {
			v := t.Var()
			if preset[v] == NoSym {
				preset[v] = args[i]
			} else if preset[v] != args[i] {
				return preset, false
			}
		} else if t.Const() != args[i] {
			return preset, false
		}
	}
	return preset, true
}
