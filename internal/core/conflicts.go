package core

import "slices"

// resolveConflicts builds the conflict triples for the atoms on which
// the pending Γ step is inconsistent, resolves each with the SELECT
// strategy, and blocks the losing rule groundings. It is called on the
// pre-step interpretation I, matching the paper's blocked(D, P, I,
// SELECT): conflict sides are the groundings with bodies valid *now*
// — "conflicts looks one step into the future".
//
// Deviation from the literal paper definition (see DESIGN.md): when a
// mark is already in I but no currently valid grounding derives it
// (its derivation went stale), the groundings recorded by provenance
// during this phase are used as that side of the conflict. Under
// Options.StrictConflicts such conflicts are skipped instead and the
// run can fail with ErrNoProgress.
//
// It reports whether at least one new grounding was blocked, i.e.
// whether the Δ operator made progress.
func (e *Engine) resolveConflicts(atoms []AID) (bool, error) {
	rs := e.run
	progressed := false
	var prov map[MarkedAtom][]Grounding // the stale sides' index of rs.prov
	for _, a := range atoms {
		if e.opts.ResolveOne && progressed {
			break
		}
		ins, insStale := e.conflictSide(&prov, OpInsert, a)
		del, delStale := e.conflictSide(&prov, OpDelete, a)
		if e.opts.StrictConflicts && (insStale || delStale) {
			// Under the paper's literal definition this triple does not
			// exist (one side has no currently valid grounding).
			continue
		}
		if insStale || delStale {
			rs.stats.StaleConflicts++
		}
		if len(ins) == 0 || len(del) == 0 {
			// Unreachable for non-strict runs: an inconsistent atom has
			// either a valid grounding or a provenance entry per side.
			continue
		}
		c := Conflict{Atom: a, Ins: ins, Del: del}
		dec, err := e.strategy.Select(&SelectInput{
			Universe: e.u,
			Program:  rs.progU,
			Database: rs.d,
			Interp:   rs.in,
			Conflict: c,
		})
		if err != nil {
			return false, &ErrStrategy{Strategy: e.strategy.Name(), Err: err}
		}
		winners, losers := c.Ins, c.Del
		if dec == DecideDelete {
			winners, losers = c.Del, c.Ins
		}
		for _, g := range winners {
			rs.rules[g.Rule].ConflictWins++
		}
		var newly []Grounding
		for _, g := range losers {
			rs.rules[g.Rule].ConflictLosses++
			if rs.blocked.Add(g) {
				rs.rules[g.Rule].Blocked++
				newly = append(newly, g)
			}
		}
		if len(newly) > 0 {
			progressed = true
		}
		rs.stats.Conflicts++
		if dec == DecideInsert {
			rs.stats.InsertDecisions++
		} else {
			rs.stats.DeleteDecisions++
		}
		rs.conflicts = append(rs.conflicts, ResolvedConflict{Conflict: c, Decision: dec})
		rs.tracer.ConflictResolved(rs.stats.Phases, c, dec, newly)
	}
	return progressed, nil
}

// conflictSide returns the maximal set of non-blocked groundings
// requiring op on atom: all groundings with currently valid bodies,
// falling back to this phase's provenance when none exists but the
// mark is already in the interpretation (stale=true in that case).
// The provenance log is grouped by mark into *prov the first time a
// stale side needs it, so k stale sides cost one pass over the log,
// not k.
func (e *Engine) conflictSide(prov *map[MarkedAtom][]Grounding, op HeadOp, atom AID) (side []Grounding, stale bool) {
	rs := e.run
	side = e.validGroundingsFor(op, atom)
	if len(side) > 0 {
		return side, false
	}
	marked := false
	if op == OpInsert {
		marked = rs.in.HasPlus(atom)
	} else {
		marked = rs.in.HasMinus(atom)
	}
	if !marked {
		return nil, false
	}
	if *prov == nil {
		*prov = make(map[MarkedAtom][]Grounding)
		for _, d := range rs.prov {
			m := MarkedAtom{Op: d.Op, Atom: d.Atom}
			(*prov)[m] = append((*prov)[m], d.Grounding)
		}
		e.provVisits += len(rs.prov)
	}
	// Each mark's side is read once per call, so it is sorted in place.
	side = (*prov)[MarkedAtom{Op: op, Atom: atom}]
	e.provVisits += len(side)
	// In key order and without the re-derivations logged twice.
	slices.SortFunc(side, compareGroundings)
	side = slices.CompactFunc(side, func(a, b Grounding) bool { return compareGroundings(a, b) == 0 })
	return side, true
}

// validGroundingsFor enumerates, goal-directedly, every non-blocked
// grounding whose head is exactly ±atom and whose body is valid in the
// current interpretation: the rule head is unified with the ground
// atom and the body is evaluated under the resulting preset binding.
func (e *Engine) validGroundingsFor(op HeadOp, atom AID) []Grounding {
	rs := e.run
	pred := e.u.AtomPred(atom)
	args := e.u.AtomArgs(atom)
	var out []Grounding
	var seen groundingSet
	m := newMatcher(rs.in)
	for ri := range rs.progU.Rules {
		r := &rs.progU.Rules[ri]
		if r.Op != op || r.Head.Pred != pred {
			continue
		}
		preset, ok := unifyAtomArgs(nil, r, r.Head, args)
		if !ok {
			continue
		}
		m.Match(r, preset, func(binding []Sym) bool {
			// The head may contain variables not bound by unification
			// (none, per safety: head vars occur in the body, so the
			// body enumeration binds them) — but a body variable that
			// is not a head variable ranges freely, producing distinct
			// groundings that all derive ±atom, as in the paper's
			// graph example where r3's z ranges over all constants.
			if seen.add(int32(ri), binding) && !rs.blocked.Has(Grounding{Rule: int32(ri), Args: binding}) {
				out = append(out, Grounding{Rule: int32(ri), Args: append([]Sym(nil), binding...)})
			}
			return true
		})
	}
	return out
}
