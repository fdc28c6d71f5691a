package park

import (
	"context"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/parser"
)

// Core model types, re-exported from the implementation packages so
// that the whole public surface lives under this one import path.
type (
	// Universe interns the symbols and ground atoms of one evaluation.
	Universe = core.Universe
	// Sym is an interned constant or predicate symbol.
	Sym = core.Sym
	// AID identifies an interned ground atom.
	AID = core.AID
	// Term is a constant or variable inside a rule.
	Term = core.Term
	// Atom is a predicate applied to terms.
	Atom = core.Atom
	// Literal is a body literal of a rule.
	Literal = core.Literal
	// Rule is one active rule.
	Rule = core.Rule
	// Program is a set of active rules.
	Program = core.Program
	// Database is a database instance (a set of ground atoms).
	Database = core.Database
	// Update is one transaction update (§4.3).
	Update = core.Update
	// HeadOp is the insert/delete action of a rule head.
	HeadOp = core.HeadOp
	// Grounding is a rule instance (rule, substitution).
	Grounding = core.Grounding
	// Conflict is a conflict triple (atom, ins, del).
	Conflict = core.Conflict
	// Decision is the outcome of conflict resolution.
	Decision = core.Decision
	// SelectInput is the context handed to a SELECT policy.
	SelectInput = core.SelectInput
	// Strategy is a conflict resolution policy (the SELECT parameter).
	Strategy = core.Strategy
	// StrategyFunc adapts a function to Strategy.
	StrategyFunc = core.StrategyFunc
	// Options configures an Engine.
	Options = core.Options
	// Engine evaluates the PARK semantics.
	Engine = core.Engine
	// Result is the outcome of one evaluation.
	Result = core.Result
	// ResolvedConflict pairs a conflict with its decision.
	ResolvedConflict = core.ResolvedConflict
	// RunStats summarizes one evaluation: phases, steps, conflicts,
	// the Γ-step split, groundings, SELECT outcomes and per-phase
	// wall time.
	RunStats = core.RunStats
	// Tracer observes an evaluation.
	Tracer = core.Tracer
	// TextTracer prints paper-style step-by-step traces.
	TextTracer = core.TextTracer
	// CollectingTracer records all events for inspection.
	CollectingTracer = core.CollectingTracer
	// MarkedAtom is an atom with its +/- mark.
	MarkedAtom = core.MarkedAtom
	// Interp is an i-interpretation (visible to strategies).
	Interp = core.Interp
	// Explainer builds derivation trees after a run with
	// Options.Explain.
	Explainer = core.Explainer
	// Explanation is one node of a derivation tree.
	Explanation = core.Explanation
	// ExplainStatus classifies an atom in an explanation.
	ExplainStatus = core.ExplainStatus
	// Report is the static analysis report.
	Report = analysis.Report
	// SyntaxError is a parse error with source position.
	SyntaxError = parser.SyntaxError
	// Unit is a parsed mixed source (rules + facts + updates).
	Unit = parser.Unit
)

// Head operation, decision and explanation constants.
const (
	OpInsert     = core.OpInsert
	OpDelete     = core.OpDelete
	DecideInsert = core.DecideInsert
	DecideDelete = core.DecideDelete

	StatusBase     = core.StatusBase
	StatusInserted = core.StatusInserted
	StatusDeleted  = core.StatusDeleted
	StatusAbsent   = core.StatusAbsent
)

// ErrNoProgress is returned under Options.StrictConflicts when the
// paper's literal conflict definition cannot resolve an inconsistency.
var ErrNoProgress = core.ErrNoProgress

// NewUniverse returns an empty universe. All programs, databases and
// updates that are evaluated together must share one universe.
func NewUniverse() *Universe { return core.NewUniverse() }

// NewDatabase returns an empty database instance.
func NewDatabase() *Database { return core.NewDatabase() }

// NewEngine validates the program and returns an engine with the
// given conflict resolution strategy (nil means Inertia).
func NewEngine(u *Universe, p *Program, s Strategy, opts Options) (*Engine, error) {
	return core.NewEngine(u, p, s, opts)
}

// ParseProgram parses rule-language source containing only rules.
func ParseProgram(u *Universe, name, src string) (*Program, error) {
	return parser.ParseProgram(u, name, src)
}

// ParseDatabase parses rule-language source containing only ground facts.
func ParseDatabase(u *Universe, name, src string) (*Database, error) {
	return parser.ParseDatabase(u, name, src)
}

// ParseUpdates parses rule-language source containing only ground updates.
func ParseUpdates(u *Universe, name, src string) ([]Update, error) {
	return parser.ParseUpdates(u, name, src)
}

// ParseUnit parses a mixed source of rules, facts and updates.
func ParseUnit(u *Universe, name, src string) (*Unit, error) {
	return parser.ParseUnit(u, name, src)
}

// ParseTriggers parses the SQL-flavored trigger DDL (CREATE TRIGGER /
// CREATE RULE statements) and translates it to active rules.
func ParseTriggers(u *Universe, name, src string) (*Program, error) {
	return parser.ParseTriggers(u, name, src)
}

// Diff computes the update set transforming one database instance
// into another (insertions then deletions).
func Diff(before, after *Database) []Update { return core.Diff(before, after) }

// Analyze runs static analysis on a program: conflict potential,
// stratification, recursion and lints.
func Analyze(u *Universe, p *Program) *Report {
	return analysis.Analyze(u, p)
}

// Eval is the one-shot convenience API: parse the three sources into
// a fresh universe and compute PARK(P, D, U) under the strategy (nil
// means Inertia). It returns the result together with the universe
// used to intern symbols (needed to render atoms).
func Eval(ctx context.Context, programSrc, dbSrc, updatesSrc string, s Strategy, opts Options) (*Result, *Universe, error) {
	u := NewUniverse()
	prog, err := ParseProgram(u, "program", programSrc)
	if err != nil {
		return nil, nil, err
	}
	db, err := ParseDatabase(u, "database", dbSrc)
	if err != nil {
		return nil, nil, err
	}
	var ups []Update
	if strings.TrimSpace(updatesSrc) != "" {
		if ups, err = ParseUpdates(u, "updates", updatesSrc); err != nil {
			return nil, nil, err
		}
	}
	eng, err := NewEngine(u, prog, s, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := eng.Run(ctx, db, ups)
	if err != nil {
		return nil, nil, err
	}
	return res, u, nil
}

// FormatDatabase renders a database instance as "{a, p(b), ...}" with
// atoms sorted by their textual form.
func FormatDatabase(u *Universe, d *Database) string {
	ids := append([]AID(nil), d.Atoms()...)
	u.SortAtoms(ids)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, id := range ids {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(u.AtomString(id))
	}
	sb.WriteByte('}')
	return sb.String()
}

// FormatUpdates renders an update set as "{+a, -p(b)}" in given order.
func FormatUpdates(u *Universe, ups []Update) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, up := range ups {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(up.Op.String())
		sb.WriteString(u.AtomString(up.Atom))
	}
	sb.WriteByte('}')
	return sb.String()
}
