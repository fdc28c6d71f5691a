package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// Grounding is a rule grounding (r, θ) (§4.2): the rule index within
// the program and the substitution, encoded as one symbol per rule
// variable in variable order.
type Grounding struct {
	Rule int32
	Args []Sym
}

// Key returns a compact unique encoding of the grounding: the rule
// index, then each substitution symbol, as little-endian uint32s. Its
// order is the order of conflict sides and explanations; the engine's
// sets key narrow groundings without building it (see groundingSet).
func (g Grounding) Key() string {
	var buf [4 + 4*keyArgs]byte
	return string(appendGroundingKey(buf[:0], g.Rule, g.Args))
}

func appendGroundingKey(b []byte, rule int32, args []Sym) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(rule))
	for _, a := range args {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	return b
}

// compareGroundings orders groundings exactly as their Keys compare,
// without building the keys.
func compareGroundings(a, b Grounding) int {
	x, y := uint32(a.Rule), uint32(b.Rule)
	for i := 0; x == y; i++ {
		if i == len(a.Args) || i == len(b.Args) {
			return cmp.Compare(len(a.Args), len(b.Args))
		}
		x, y = uint32(a.Args[i]), uint32(b.Args[i])
	}
	// Keys are little-endian, so their lowest bytes compare first.
	return cmp.Compare(bits.ReverseBytes32(x), bits.ReverseBytes32(y))
}

// keyArgs is the widest substitution a groundingKey holds; wider
// groundings are keyed by Grounding.Key, which allocates.
const keyArgs = 4

// groundingKey is the comparable, allocation-free set key of a
// grounding with at most keyArgs substitution symbols.
type groundingKey struct {
	rule int32
	n    int32
	args [keyArgs]Sym
}

func narrowKey(rule int32, args []Sym) groundingKey {
	k := groundingKey{rule: rule, n: int32(len(args))}
	copy(k.args[:], args)
	return k
}

// groundingSet is a set of groundings that stores keys only, so adding
// or probing one never retains or copies its substitution slice.
type groundingSet struct {
	narrow map[groundingKey]struct{}
	wide   map[string]struct{}
}

// add inserts the grounding (rule, args) and reports whether it was new.
func (s *groundingSet) add(rule int32, args []Sym) bool {
	if len(args) <= keyArgs {
		k := narrowKey(rule, args)
		if _, ok := s.narrow[k]; ok {
			return false
		}
		if s.narrow == nil {
			s.narrow = make(map[groundingKey]struct{})
		}
		s.narrow[k] = struct{}{}
		return true
	}
	if s.has(rule, args) {
		return false
	}
	if s.wide == nil {
		s.wide = make(map[string]struct{})
	}
	s.wide[Grounding{Rule: rule, Args: args}.Key()] = struct{}{}
	return true
}

// has reports whether the grounding (rule, args) is in the set.
func (s *groundingSet) has(rule int32, args []Sym) bool {
	if len(args) <= keyArgs {
		_, ok := s.narrow[narrowKey(rule, args)]
		return ok
	}
	var buf [64]byte
	_, ok := s.wide[string(appendGroundingKey(buf[:0], rule, args))]
	return ok
}

// reset empties the set and keeps its capacity.
func (s *groundingSet) reset() {
	clear(s.narrow)
	clear(s.wide)
}

// String renders the grounding like the paper: (r1, [x <- a, y <- b]).
func (g Grounding) String(u *Universe, p *Program) string {
	var sb strings.Builder
	sb.WriteByte('(')
	sb.WriteString(p.RuleLabel(int(g.Rule)))
	if len(g.Args) > 0 {
		sb.WriteString(", [")
		r := &p.Rules[g.Rule]
		for i, a := range g.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s <- %s", r.varName(i), u.Syms.Name(a))
		}
		sb.WriteByte(']')
	}
	sb.WriteByte(')')
	return sb.String()
}

// BlockedSet is the set B of blocked rule instances of a bi-structure
// <B, I>. It only ever grows during one PARK evaluation.
type BlockedSet struct {
	set  groundingSet
	list []Grounding // insertion order, for traces and introspection
}

// NewBlockedSet returns an empty blocked set.
func NewBlockedSet() *BlockedSet { return &BlockedSet{} }

// Add inserts a grounding and reports whether it was new.
func (b *BlockedSet) Add(g Grounding) bool {
	if !b.set.add(g.Rule, g.Args) {
		return false
	}
	b.list = append(b.list, g)
	return true
}

// HasKey reports membership by a key in Grounding.Key's encoding.
func (b *BlockedSet) HasKey(k string) bool {
	n := len(k)/4 - 1
	if n < 0 || len(k)%4 != 0 {
		return false
	}
	if n > keyArgs {
		_, ok := b.set.wide[k]
		return ok
	}
	var args [keyArgs]Sym
	for i := range args[:n] {
		args[i] = Sym(le32(k[4+4*i:]))
	}
	return b.set.has(int32(le32(k)), args[:n])
}

func le32(s string) uint32 {
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// Has reports membership.
func (b *BlockedSet) Has(g Grounding) bool { return b.set.has(g.Rule, g.Args) }

// Len returns the number of blocked instances.
func (b *BlockedSet) Len() int { return len(b.list) }

// All returns the blocked groundings in insertion order; the slice
// must not be modified.
func (b *BlockedSet) All() []Grounding { return b.list }
