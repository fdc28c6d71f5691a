package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Options configures an Engine. The zero value is the recommended
// configuration: semi-naive Γ evaluation with indexed matching and the
// provenance-extended conflict definition (see DESIGN.md).
type Options struct {
	// Naive disables the semi-naive (delta-driven) evaluation of Γ and
	// re-evaluates every rule against the full interpretation at every
	// step. Exposed for the B5 ablation.
	Naive bool
	// NoIndex disables hash-indexed literal matching in favor of
	// linear scans. Exposed for the B6 ablation.
	NoIndex bool
	// ResolveOne resolves only the first conflict (lowest atom id) at
	// every inconsistency instead of all of them — the paper's §4.2
	// closing remark suggests blocking "only a (non-empty) part" of
	// the conflicts to avoid unnecessarily blocked instances. More
	// restarts, smaller blocked sets; exposed for the B9 ablation.
	ResolveOne bool
	// StrictConflicts restricts conflict triples to the paper's
	// literal definition (both sides must have currently valid
	// bodies). Under this definition the Δ operator can fail to make
	// progress on programs whose derivations go stale (DESIGN.md §2);
	// in that case Run returns ErrNoProgress instead of looping.
	StrictConflicts bool
	// Explain attaches an Explainer to the Result, retaining the final
	// phase's derivation provenance for "why is this atom here?"
	// queries. Costs memory proportional to the derivation count.
	Explain bool
	// Tracer observes the run; nil means no tracing.
	Tracer Tracer
	// MaxPhases aborts the run with an error after this many phases;
	// 0 means the theoretical bound (one plus the number of groundings
	// ever blocked) applies implicitly and no explicit cap is set.
	MaxPhases int
}

// ErrNoProgress is returned when StrictConflicts is set and an
// inconsistent step yields no resolvable conflict triple, so the
// literal Δ operator of the paper would cycle forever.
var ErrNoProgress = errors.New("park: inconsistency without resolvable conflict (stale derivation); rerun without StrictConflicts")

// Result is the outcome of a PARK evaluation.
type Result struct {
	// Output is PARK(P, D, U): the result database instance.
	Output *Database
	// Inserted and Deleted are the changes from D to Output, read from
	// the surviving marks in derivation order: the "+"-marked atoms not
	// in D and the "-"-marked atoms in D. As sets they are the
	// insertions and the deletions of Diff(D, Output).
	Inserted []AID
	Deleted  []AID
	// RunStats carries the run's counters and timings.
	RunStats RunStats
	// Blocked is the final blocked set B in blocking order.
	Blocked []Grounding
	// Conflicts lists the conflicts in resolution order together with
	// their decisions.
	Conflicts []ResolvedConflict
	// Explainer is non-nil when Options.Explain was set; it builds
	// derivation trees over this run's final state.
	Explainer *Explainer
}

// ResolvedConflict pairs a conflict with its SELECT decision.
type ResolvedConflict struct {
	Conflict Conflict
	Decision Decision
}

// RuleStat aggregates one rule's contribution to a run, indexed like
// P_U (SelectInput.Program): program rules first, then the
// transaction's update rules. The counters are incremented at the
// same sites as the run-wide totals, so they sum exactly: Fires to
// Derivations, Groundings to Groundings, Blocked to BlockedInstances.
type RuleStat struct {
	// Groundings counts enumerations of this rule folded into Γ steps,
	// before per-step dedup and blocked-set filtering.
	Groundings int64
	// Fires counts derivations that produced a head (after dedup and
	// blocked filtering) — the per-rule split of RunStats.Derivations.
	Fires int64
	// MatchNanos is the cumulative wall-clock time spent enumerating
	// this rule's groundings during Γ steps (body matching plus the
	// fold-in of each grounding). It is measured once per rule per Γ
	// step, in the steps that enumerate the rule: every full step, and
	// the delta steps whose delta triggers one of its body literals.
	MatchNanos int64
	// ConflictWins and ConflictLosses count this rule's groundings on
	// the winning resp. losing side of resolved conflict triples.
	ConflictWins   int64
	ConflictLosses int64
	// Blocked counts this rule's groundings newly added to the blocked
	// set B — the per-rule split of RunStats.BlockedInstances.
	Blocked int64
}

// RunStats summarizes one PARK evaluation: its phases, steps and
// conflicts, how the Δ operator spent its time (per-phase wall clock),
// how Γ evaluation split between full and incremental steps, how much
// raw grounding enumeration happened, and how conflict resolution
// decided. All fields describe exactly one Engine.Run.
type RunStats struct {
	// Phases is the number of inflationary phases (1 + restarts).
	Phases int
	// Steps is the total number of applied Γ steps across phases.
	Steps int
	// Conflicts is the number of conflict triples resolved.
	Conflicts int
	// StaleConflicts counts conflicts whose stale side had to be
	// recovered from provenance (always 0 with StrictConflicts).
	StaleConflicts int
	// BlockedInstances is the final size of the blocked set B.
	BlockedInstances int
	// Derivations counts every rule-instance enumeration that produced
	// a head, including re-derivations of known facts.
	Derivations int64
	// NewFacts counts marked atoms added to interpretations, summed
	// over phases.
	NewFacts int64
	// Restarts is the number of bi-structure restarts (§5): phases
	// after the first, each triggered by a conflict resolution.
	Restarts int
	// FullSteps counts Γ evaluations over the whole interpretation
	// (the first step of every phase, or every step under
	// Options.Naive), including the final evaluation that detects the
	// ω fixpoint.
	FullSteps int
	// DeltaSteps counts semi-naive (delta-driven) Γ evaluations.
	DeltaSteps int
	// Groundings counts every rule-grounding enumeration folded into
	// a step, before per-step deduplication and blocked-set filtering
	// (Derivations counts after both).
	Groundings int64
	// InsertDecisions and DeleteDecisions split Conflicts by
	// SELECT outcome: conflicts the strategy resolved by keeping the
	// insertion resp. the deletion.
	InsertDecisions int
	DeleteDecisions int
	// PhaseWall is the wall-clock duration of each phase, in order.
	PhaseWall []time.Duration
	// Wall is the total wall-clock duration of the run, building the
	// Output included.
	Wall time.Duration
	// Rules aggregates per-rule counters, indexed like P_U (program
	// rules first, then the transaction's update rules). The per-rule
	// profiler in persist folds these into its rolling profile.
	Rules []RuleStat
}

// Engine evaluates the PARK semantics for one program over databases
// sharing one universe. An Engine is not safe for concurrent use, but
// may be reused for sequential runs.
type Engine struct {
	u        *Universe
	prog     *Program
	strategy Strategy
	opts     Options

	// per-run state
	run *runState
	// lastRun retains the previous Run's extended statistics for
	// RunStats().
	lastRun RunStats
}

// NewEngine validates the program and returns an engine using the
// given conflict resolution strategy (nil defaults to inertia).
func NewEngine(u *Universe, p *Program, strategy Strategy, opts Options) (*Engine, error) {
	if strategy == nil {
		strategy = InertiaStrategy{}
	}
	if err := p.Validate(u); err != nil {
		return nil, err
	}
	return &Engine{u: u, prog: p, strategy: strategy, opts: opts}, nil
}

// Universe returns the engine's universe.
func (e *Engine) Universe() *Universe { return e.u }

// Program returns the engine's program (without update rules).
func (e *Engine) Program() *Program { return e.prog }

// RunStats returns the extended statistics of the most recent Run
// (the zero value before any run). For a completed run it equals the
// Result's RunStats field; after a failed run it holds the counters
// accumulated up to the failure, which is useful when diagnosing
// phase-limit or context-cancellation aborts.
func (e *Engine) RunStats() RunStats { return e.lastRun }

type runState struct {
	progU   *Program // P_U
	d       *Database
	in      *Interp
	blocked *BlockedSet
	// prov logs, in order, every derivation of the current phase that
	// survived dedup and the blocked filter; it is cleared on restart.
	// A grounding re-enumerated in a later step is logged again. Its
	// readers, the stale conflict side and the Explainer, filter it by
	// mark and order it by Grounding.Key.
	prov []Derivation
	args symArena // backs the substitutions of the groundings in prov

	// per-step scratch
	stepSeen  groundingSet // groundings enumerated this step
	stepFacts []MarkedAtom // candidate marks, in derivation order
	stepHave  [2]bitset    // stepFacts as sets of atoms, by HeadOp
	headArgs  []Sym
	preset    []Sym

	// rule is the rule whose groundings the matcher is yielding; yield
	// is processGrounding, bound once per run so that handing it to the
	// matcher allocates nothing.
	rule  int32
	yield func([]Sym) bool

	// deltas from the previously applied step (semi-naive)
	deltaPlus  []AID
	deltaMinus []AID

	stats     RunStats
	conflicts []ResolvedConflict
	// rules holds the per-rule counters, indexed like progU.Rules;
	// stats.Rules aliases it so partial counts survive failed runs.
	rules  []RuleStat
	tracer Tracer
}

// Run computes PARK(P, D, U): it forms P_U from the transaction
// updates, iterates the Δ operator from the bi-structure <∅, D> to its
// fixpoint ω, and incorporates the surviving marks. D is not modified.
func (e *Engine) Run(ctx context.Context, d *Database, updates []Update) (*Result, error) {
	if d == nil {
		d = NewDatabase()
	}
	progU := &Program{Rules: append(append([]Rule(nil), e.prog.Rules...), UpdateRules(e.u, updates)...)}
	// Update rules are ground by construction but still validated so a
	// malformed Update surfaces here rather than mid-run.
	if err := progU.Validate(e.u); err != nil {
		return nil, fmt.Errorf("park: invalid transaction update: %w", err)
	}
	tracer := e.opts.Tracer
	if tracer == nil {
		tracer = NopTracer{}
	}
	rs := &runState{
		rules:   make([]RuleStat, len(progU.Rules)),
		progU:   progU,
		d:       d,
		in:      NewInterp(e.u, d),
		blocked: NewBlockedSet(),
		tracer:  tracer,
	}
	rs.yield = e.processGrounding
	rs.in.UseIndex = !e.opts.NoIndex
	// Alias the per-rule counters into the stats snapshot so partial
	// counts survive a failed run via e.lastRun.
	rs.stats.Rules = rs.rules
	if ta, ok := tracer.(interpAttacher); ok {
		ta.SetInterp(rs.in)
	}
	if pa, ok := tracer.(programAttacher); ok {
		pa.SetProgram(progU)
	}
	e.run = rs
	start := time.Now()
	defer func() {
		if rs.stats.Wall == 0 { // a failed run
			rs.stats.Wall = time.Since(start)
		}
		rs.stats.Restarts = rs.stats.Phases - 1
		if rs.stats.Restarts < 0 {
			rs.stats.Restarts = 0
		}
		e.lastRun = rs.stats
		e.run = nil
	}()

	for {
		rs.stats.Phases++
		if e.opts.MaxPhases > 0 && rs.stats.Phases > e.opts.MaxPhases {
			return nil, fmt.Errorf("park: phase limit %d exceeded", e.opts.MaxPhases)
		}
		phaseStart := time.Now()
		fixpoint, err := e.runPhase(ctx)
		rs.stats.PhaseWall = append(rs.stats.PhaseWall, time.Since(phaseStart))
		if err != nil {
			return nil, err
		}
		if fixpoint {
			break
		}
	}
	rs.stats.BlockedInstances = rs.blocked.Len()
	rs.stats.Restarts = rs.stats.Phases - 1
	res := &Result{
		Output:    rs.in.Incorp(),
		Blocked:   append([]Grounding(nil), rs.blocked.All()...),
		Conflicts: rs.conflicts,
	}
	res.Inserted, res.Deleted = rs.in.changes()
	if e.opts.Explain {
		res.Explainer = newExplainer(e.u, progU, rs.in, rs.prov)
	}
	// Stamped last, so that Wall covers building the Output.
	rs.stats.Wall = time.Since(start)
	res.RunStats = rs.stats
	return res, nil
}

// runPhase runs one inflationary phase from the kernel D. It returns
// true when the phase reached the ω fixpoint, false when it was
// interrupted by conflict resolution (B grew; caller restarts).
func (e *Engine) runPhase(ctx context.Context) (bool, error) {
	rs := e.run
	rs.in.ResetPhase()
	rs.prov = rs.prov[:0]
	rs.deltaPlus, rs.deltaMinus = nil, nil
	rs.tracer.PhaseStart(rs.stats.Phases)

	m := newMatcher(rs.in)
	step := 0
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		step++
		full := step == 1 || e.opts.Naive
		inconsistent := e.gammaStep(m, full)
		if len(rs.stepFacts) == 0 && len(inconsistent) == 0 {
			rs.tracer.PhaseEnd(rs.stats.Phases, step-1, true)
			return true, nil
		}
		if len(inconsistent) != 0 {
			rs.tracer.Inconsistency(rs.stats.Phases, step, inconsistent)
			progressed, err := e.resolveConflicts(inconsistent)
			if err != nil {
				return false, err
			}
			if !progressed {
				return false, ErrNoProgress
			}
			rs.tracer.PhaseEnd(rs.stats.Phases, step-1, false)
			return false, nil
		}
		e.applyStep(step)
	}
}

// applyStep commits the step's candidate facts to the interpretation
// and records them as the next semi-naive delta.
func (e *Engine) applyStep(step int) {
	rs := e.run
	rs.deltaPlus = rs.deltaPlus[:0]
	rs.deltaMinus = rs.deltaMinus[:0]
	for _, c := range rs.stepFacts {
		if c.Op == OpInsert {
			rs.in.AddPlus(c.Atom)
			rs.deltaPlus = append(rs.deltaPlus, c.Atom)
		} else {
			rs.in.AddMinus(c.Atom)
			rs.deltaMinus = append(rs.deltaMinus, c.Atom)
		}
	}
	rs.stats.Steps++
	rs.stats.NewFacts += int64(len(rs.stepFacts))
	rs.tracer.StepApplied(rs.stats.Phases, step, rs.stepFacts)
}
