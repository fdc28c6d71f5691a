package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSymbolTable(t *testing.T) {
	st := NewSymbolTable()
	a := st.Intern("a")
	b := st.Intern("b")
	if a == b {
		t.Fatal("distinct names got same symbol")
	}
	if st.Intern("a") != a {
		t.Fatal("Intern not idempotent")
	}
	if got, ok := st.Lookup("b"); !ok || got != b {
		t.Fatalf("Lookup(b) = %v, %v", got, ok)
	}
	if _, ok := st.Lookup("zzz"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if st.Name(a) != "a" {
		t.Fatalf("Name(a) = %q", st.Name(a))
	}
	if st.Name(Sym(99)) != "#99" {
		t.Fatalf("Name(99) = %q", st.Name(99))
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestTermEncoding(t *testing.T) {
	c := ConstTerm(5)
	if c.IsVar() {
		t.Fatal("ConstTerm reported as var")
	}
	if c.Const() != 5 {
		t.Fatalf("Const = %d", c.Const())
	}
	v := VarTerm(0)
	if !v.IsVar() {
		t.Fatal("VarTerm not a var")
	}
	if v.Var() != 0 {
		t.Fatalf("Var = %d", v.Var())
	}
	// Round trip arbitrary indexes.
	f := func(i uint16) bool {
		return VarTerm(int(i)).Var() == int(i) && ConstTerm(Sym(i)).Const() == Sym(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTermPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"ConstTerm(-1)": func() { ConstTerm(-1) },
		"VarTerm(-1)":   func() { VarTerm(-1) },
		"Var on const":  func() { ConstTerm(0).Var() },
		"Const on var":  func() { VarTerm(0).Const() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUniverseAtoms(t *testing.T) {
	u := NewUniverse()
	p := u.Syms.Intern("p")
	a := u.Syms.Intern("a")
	b := u.Syms.Intern("b")
	id1, err := u.InternAtom(p, []Sym{a, b})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := u.InternAtom(p, []Sym{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatal("InternAtom not idempotent")
	}
	id3, err := u.InternAtom(p, []Sym{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("distinct atoms interned to same id")
	}
	if _, err := u.InternAtom(p, []Sym{a}); err == nil {
		t.Fatal("arity violation not detected")
	}
	if got, ok := u.LookupAtom(p, []Sym{a, b}); !ok || got != id1 {
		t.Fatalf("LookupAtom = %v, %v", got, ok)
	}
	if _, ok := u.LookupAtom(p, []Sym{a, a}); ok {
		t.Fatal("LookupAtom found uninterned atom")
	}
	if u.NumAtoms() != 2 {
		t.Fatalf("NumAtoms = %d", u.NumAtoms())
	}
	if u.AtomString(id1) != "p(a, b)" {
		t.Fatalf("AtomString = %q", u.AtomString(id1))
	}
	q := u.Syms.Intern("q")
	id4, _ := u.InternAtom(q, nil)
	if u.AtomString(id4) != "q" {
		t.Fatalf("propositional AtomString = %q", u.AtomString(id4))
	}
	if u.AtomPred(id1) != p {
		t.Fatal("AtomPred mismatch")
	}
	if got := u.AtomArgs(id1); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("AtomArgs = %v", got)
	}
}

func TestSortAtoms(t *testing.T) {
	u := NewUniverse()
	p := u.Syms.Intern("p")
	q := u.Syms.Intern("q")
	b := u.Syms.Intern("b")
	a := u.Syms.Intern("a")
	qa, _ := u.InternAtom(q, []Sym{a})
	pb, _ := u.InternAtom(p, []Sym{b})
	pa, _ := u.InternAtom(p, []Sym{a})
	ids := []AID{qa, pb, pa}
	u.SortAtoms(ids)
	want := []AID{pa, pb, qa}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", ids, want)
		}
	}
}

func TestBlockedSet(t *testing.T) {
	b := NewBlockedSet()
	g1 := Grounding{Rule: 1, Args: []Sym{2, 3}}
	g2 := Grounding{Rule: 1, Args: []Sym{3, 2}}
	if !b.Add(g1) {
		t.Fatal("first Add returned false")
	}
	if b.Add(g1) {
		t.Fatal("duplicate Add returned true")
	}
	if !b.Has(g1) || b.Has(g2) {
		t.Fatal("membership wrong")
	}
	b.Add(g2)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	all := b.All()
	if len(all) != 2 || all[0].Key() != g1.Key() {
		t.Fatalf("All = %v", all)
	}
	// Wider than a groundingKey: the set falls back to string keys.
	wide := Grounding{Rule: 2, Args: []Sym{1, 2, 3, 4, 5}}
	if b.Has(wide) || !b.Add(wide) || b.Add(wide) || !b.Has(wide) {
		t.Fatal("wide grounding membership wrong")
	}
	for _, g := range []Grounding{g1, g2, wide} {
		if !b.HasKey(g.Key()) {
			t.Fatalf("HasKey(%v) = false", g)
		}
	}
	if b.HasKey(Grounding{Rule: 1, Args: []Sym{2}}.Key()) || b.HasKey("xyz") {
		t.Fatal("HasKey reports a grounding never added")
	}
}

// randomGroundings draws groundings on both sides of keyArgs, with
// symbols wide enough that their little-endian keys do not sort
// numerically.
func randomGroundings(rng *rand.Rand, n int) []Grounding {
	gs := make([]Grounding, n)
	for i := range gs {
		args := make([]Sym, rng.Intn(keyArgs+3))
		for j := range args {
			args[j] = Sym(rng.Intn(3) * (1 + rng.Intn(700)))
		}
		gs[i] = Grounding{Rule: int32(rng.Intn(3)), Args: args}
	}
	return gs
}

// compareGroundings and groundingSet agree with Grounding.Key, which
// defines the order and the identity of groundings.
func TestGroundingKeyOrderAndSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gs := randomGroundings(rng, 400)
	for i := range gs {
		for j := range gs {
			if got, want := compareGroundings(gs[i], gs[j]), strings.Compare(gs[i].Key(), gs[j].Key()); got != want {
				t.Fatalf("compareGroundings(%v, %v) = %d, keys compare %d", gs[i], gs[j], got, want)
			}
		}
	}
	var s groundingSet
	seen := make(map[string]bool)
	for _, g := range gs {
		if got, want := s.add(g.Rule, g.Args), !seen[g.Key()]; got != want {
			t.Fatalf("add(%v) = %v, want %v", g, got, want)
		}
		seen[g.Key()] = true
	}
	for _, g := range randomGroundings(rng, 400) {
		if got := s.has(g.Rule, g.Args); got != seen[g.Key()] {
			t.Fatalf("has(%v) = %v, want %v", g, got, seen[g.Key()])
		}
	}
	s.reset()
	if s.has(gs[0].Rule, gs[0].Args) {
		t.Fatal("reset kept a grounding")
	}
}

func TestGroundingKeyUniqueness(t *testing.T) {
	f := func(r1, r2 uint8, a1, a2 uint16) bool {
		g1 := Grounding{Rule: int32(r1), Args: []Sym{Sym(a1)}}
		g2 := Grounding{Rule: int32(r2), Args: []Sym{Sym(a2)}}
		same := r1 == r2 && a1 == a2
		return (g1.Key() == g2.Key()) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDatabase(t *testing.T) {
	d := NewDatabase()
	if d.Len() != 0 {
		t.Fatal("fresh database not empty")
	}
	if !d.Add(3) || d.Add(3) {
		t.Fatal("Add dedup wrong")
	}
	d.Add(1)
	if !d.Contains(3) || d.Contains(2) {
		t.Fatal("Contains wrong")
	}
	c := d.Clone()
	c.Add(9)
	if d.Contains(9) {
		t.Fatal("Clone aliases original")
	}
	if got := d.Atoms(); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("Atoms = %v", got)
	}
}
