package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

func runExplain(t *testing.T, progSrc, dbSrc, updSrc string) (*core.Universe, *core.Result) {
	t.Helper()
	u := core.NewUniverse()
	prog, err := parser.ParseProgram(u, "", progSrc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.ParseDatabase(u, "", dbSrc)
	if err != nil {
		t.Fatal(err)
	}
	var ups []core.Update
	if updSrc != "" {
		if ups, err = parser.ParseUpdates(u, "", updSrc); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.NewEngine(u, prog, nil, core.Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), db, ups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explainer == nil {
		t.Fatal("Explain option did not attach an explainer")
	}
	return u, res
}

func atomID(t *testing.T, u *core.Universe, pred string, args ...string) core.AID {
	t.Helper()
	p, ok := u.Syms.Lookup(pred)
	if !ok {
		t.Fatalf("unknown predicate %s", pred)
	}
	syms := make([]core.Sym, len(args))
	for i, a := range args {
		s, ok := u.Syms.Lookup(a)
		if !ok {
			t.Fatalf("unknown constant %s", a)
		}
		syms[i] = s
	}
	id, ok := u.LookupAtom(p, syms)
	if !ok {
		t.Fatalf("atom %s(%v) not interned", pred, args)
	}
	return id
}

func TestExplainDerivationChain(t *testing.T) {
	u, res := runExplain(t, `
		rule r1: p(X) -> +q(X).
		rule r2: q(X) -> +r(X).
	`, `p(a).`, "")
	ex := res.Explainer
	e := ex.Explain(atomID(t, u, "r", "a"))
	if e.Status != core.StatusInserted || !e.InResult {
		t.Fatalf("r(a) status = %v", e.Status)
	}
	if e.Rule != 1 {
		t.Fatalf("r(a) derived by rule %d, want r2 (index 1)", e.Rule)
	}
	if len(e.Premises) != 1 || e.Premises[0].Rule != 0 {
		t.Fatalf("premises = %+v", e.Premises)
	}
	// The chain bottoms out in the base fact p(a).
	base := e.Premises[0].Premises[0]
	if base.Status != core.StatusBase {
		t.Fatalf("chain bottom = %v", base.Status)
	}
	txt := ex.Format(e)
	for _, want := range []string{"r(a): inserted by r2", "q(a): inserted by r1", "p(a): in the original database"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("formatted explanation missing %q:\n%s", want, txt)
		}
	}
}

func TestExplainDeletionAndNegation(t *testing.T) {
	u, res := runExplain(t, `
		rule cleanup: emp(X), !active(X), payroll(X) -> -payroll(X).
	`, `emp(tom). payroll(tom).`, "")
	ex := res.Explainer
	e := ex.Explain(atomID(t, u, "payroll", "tom"))
	if e.Status != core.StatusDeleted || e.InResult {
		t.Fatalf("payroll(tom) = %v, inResult=%v", e.Status, e.InResult)
	}
	txt := ex.Format(e)
	if !strings.Contains(txt, "deleted by cleanup") {
		t.Fatalf("missing deleting rule:\n%s", txt)
	}
	// The negated premise is explained by absence.
	if !strings.Contains(txt, "absent") {
		t.Fatalf("missing absence premise:\n%s", txt)
	}
}

func TestExplainUpdateRule(t *testing.T) {
	u, res := runExplain(t, `rule fire: +q(X) -> +r(X).`, ``, `+q(b).`)
	ex := res.Explainer
	e := ex.Explain(atomID(t, u, "r", "b"))
	if e.Rule < 0 {
		t.Fatal("r(b) has no deriving rule")
	}
	// Its premise q(b) is explained by the body-less update rule.
	if len(e.Premises) != 1 {
		t.Fatalf("premises = %d", len(e.Premises))
	}
	q := e.Premises[0]
	if q.Status != core.StatusInserted || q.Rule < 0 {
		t.Fatalf("q(b) = %+v", q)
	}
	if len(q.Premises) != 0 {
		t.Fatalf("update rule should have no premises, got %d", len(q.Premises))
	}
	txt := ex.Format(e)
	if !strings.Contains(txt, "update:+q(b)") {
		t.Fatalf("update rule label missing:\n%s", txt)
	}
}

// Two groundings derive +q: late (rule 0) in step 2, early (rule 1) in
// step 1. The explanation names the one with the smallest grounding
// key, late, not the first in derivation order.
func TestExplainSmallestKeyDeriver(t *testing.T) {
	u, res := runExplain(t, `
		rule late: t -> +q.
		rule early: p -> +q.
		rule mk: p -> +t.
	`, `p.`, "")
	e := res.Explainer.Explain(atomID(t, u, "q"))
	if e.Status != core.StatusInserted || e.Rule != 0 {
		t.Fatalf("q = %v by rule %d, want inserted by late (index 0)", e.Status, e.Rule)
	}
}

func TestExplainAbsentAndBase(t *testing.T) {
	u, res := runExplain(t, ``, `p(a).`, "")
	ex := res.Explainer
	if e := ex.Explain(atomID(t, u, "p", "a")); e.Status != core.StatusBase || !e.InResult {
		t.Fatalf("p(a) = %+v", e)
	}
	// Intern an atom that is in no interpretation.
	q := u.Syms.Intern("qq")
	id, err := u.InternAtom(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := ex.Explain(id); e.Status != core.StatusAbsent || e.InResult {
		t.Fatalf("absent atom = %+v", e)
	}
}

func TestExplainRecursionGuard(t *testing.T) {
	// Mutually recursive derivation: p <- q <- p. The tree must not
	// loop; the revisited node is marked.
	u, res := runExplain(t, `
		base -> +p.
		p -> +q.
		q -> +p.
	`, `base.`, "")
	ex := res.Explainer
	p, _ := u.Syms.Lookup("p")
	id, _ := u.LookupAtom(p, nil)
	e := ex.Explain(id)
	txt := ex.Format(e)
	if len(txt) > 10000 {
		t.Fatal("explanation exploded; recursion guard broken")
	}
	if !strings.Contains(txt, "in the original database") {
		t.Fatalf("explanation did not bottom out in base:\n%s", txt)
	}
}

func TestExplainEventPremise(t *testing.T) {
	u, res := runExplain(t, `
		rule r3: +r(X) -> -s(X).
		rule r2: q(X) -> +r(X).
	`, `q(a). s(a).`, "")
	ex := res.Explainer
	e := ex.Explain(atomID(t, u, "s", "a"))
	if e.Status != core.StatusDeleted {
		t.Fatalf("s(a) = %v", e.Status)
	}
	txt := ex.Format(e)
	if !strings.Contains(txt, "r(a): inserted by r2") {
		t.Fatalf("event premise not explained:\n%s", txt)
	}
}
