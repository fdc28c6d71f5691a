package flight

import (
	"sort"
	"strconv"

	"repro/internal/core"
)

// DefaultEventCap bounds the events one Recorder retains. A restart
// storm can emit thousands of steps; everything past the cap is
// counted (Trace totals stay exact) but not retained, keeping the
// worst-case memory per transaction bounded.
const DefaultEventCap = 1024

// rawEvent is one engine event in unresolved form: atom ids and
// grounding values, no strings. Recording one is a slice append plus
// the copies the Tracer contract requires (the engine reuses the
// slices it passes).
type rawEvent struct {
	kind     byte // 'P' phase, 'S' step, 'I' inconsistency, 'C' conflict, 'E' phase-end
	phase    int
	step     int
	added    []core.MarkedAtom
	atoms    []core.AID
	conflict core.Conflict
	decision core.Decision
	blocked  []core.Grounding
	fixpoint bool
}

// Recorder implements core.Tracer by buffering raw events for one
// engine run. It is not safe for concurrent use, matching the Tracer
// contract: the engine calls all hooks from its single evaluation
// goroutine.
// Finish resolves the buffer into an immutable Trace.
type Recorder struct {
	u        *core.Universe
	prog     *core.Program // P_U, attached by the engine via SetProgram
	eventCap int

	events  []rawEvent
	dropped int

	phases    int
	steps     int
	conflicts int
}

// NewRecorder returns a Recorder resolving names against u, with the
// default event cap.
func NewRecorder(u *core.Universe) *Recorder {
	return &Recorder{u: u, eventCap: DefaultEventCap}
}

// SetEventCap overrides the retained-event bound (values below 1 keep
// the default). Call before the run starts.
func (r *Recorder) SetEventCap(n int) {
	if n >= 1 {
		r.eventCap = n
	}
}

// SetProgram implements the engine's program-attacher hook: it hands
// the recorder P_U, whose rule indexes the run's Conflict and
// Grounding values refer to. Update rules are part of P_U, so update
// groundings resolve to their "update:+q(a)" labels.
func (r *Recorder) SetProgram(p *core.Program) { r.prog = p }

// record appends ev unless the cap is reached.
func (r *Recorder) record(ev rawEvent) {
	if len(r.events) >= r.eventCap {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// PhaseStart implements core.Tracer.
func (r *Recorder) PhaseStart(phase int) {
	r.phases = phase
	r.record(rawEvent{kind: 'P', phase: phase})
}

// StepApplied implements core.Tracer.
func (r *Recorder) StepApplied(phase, step int, added []core.MarkedAtom) {
	r.steps++
	r.record(rawEvent{kind: 'S', phase: phase, step: step,
		added: append([]core.MarkedAtom(nil), added...)})
}

// Inconsistency implements core.Tracer.
func (r *Recorder) Inconsistency(phase, step int, atoms []core.AID) {
	r.record(rawEvent{kind: 'I', phase: phase, step: step,
		atoms: append([]core.AID(nil), atoms...)})
}

// ConflictResolved implements core.Tracer.
func (r *Recorder) ConflictResolved(phase int, c core.Conflict, dec core.Decision, blocked []core.Grounding) {
	r.conflicts++
	cp := core.Conflict{
		Atom: c.Atom,
		Ins:  append([]core.Grounding(nil), c.Ins...),
		Del:  append([]core.Grounding(nil), c.Del...),
	}
	r.record(rawEvent{kind: 'C', phase: phase, conflict: cp, decision: dec,
		blocked: append([]core.Grounding(nil), blocked...)})
}

// PhaseEnd implements core.Tracer.
func (r *Recorder) PhaseEnd(phase, steps int, fixpoint bool) {
	r.record(rawEvent{kind: 'E', phase: phase, step: steps, fixpoint: fixpoint})
}

// Finish resolves the buffered run into a Trace for the committed
// transaction seq. Name resolution happens here — once, off the
// engine's critical path — against the append-only universe, so the
// recorded ids are still valid however late Finish runs.
func (r *Recorder) Finish(seq int, traceID string, wallSeconds float64) *Trace {
	t := &Trace{
		Seq:           seq,
		TraceID:       traceID,
		Origin:        "local",
		WallSeconds:   wallSeconds,
		Phases:        r.phases,
		Steps:         r.steps,
		Conflicts:     r.conflicts,
		DroppedEvents: r.dropped,
		Events:        make([]Event, 0, len(r.events)),
	}
	for _, ev := range r.events {
		switch ev.kind {
		case 'P':
			t.Events = append(t.Events, Event{Kind: KindPhase, Phase: ev.phase})
		case 'S':
			added := make([]string, len(ev.added))
			for i, ma := range ev.added {
				added[i] = ma.Op.String() + r.u.AtomString(ma.Atom)
			}
			t.Events = append(t.Events, Event{Kind: KindStep, Phase: ev.phase, Step: ev.step, Added: added})
		case 'I':
			atoms := make([]string, len(ev.atoms))
			for i, a := range ev.atoms {
				atoms[i] = r.u.AtomString(a)
			}
			// The engine orders these by atom id (interning order);
			// sort by name so traces compare across processes.
			sort.Strings(atoms)
			t.Events = append(t.Events, Event{Kind: KindInconsistency, Phase: ev.phase, Step: ev.step, Atoms: atoms})
		case 'C':
			t.Events = append(t.Events, Event{
				Kind:     KindConflict,
				Phase:    ev.phase,
				Atom:     r.u.AtomString(ev.conflict.Atom),
				Decision: ev.decision.String(),
				Ins:      r.groundings(ev.conflict.Ins),
				Del:      r.groundings(ev.conflict.Del),
				Blocked:  r.groundings(ev.blocked),
			})
		case 'E':
			t.Events = append(t.Events, Event{Kind: KindPhaseEnd, Phase: ev.phase, Steps: ev.step, Fixpoint: ev.fixpoint})
		}
	}
	return t
}

// groundings renders a grounding list in paper style, falling back to
// a bare rule index when the engine never attached P_U (a recorder
// used outside Engine.Run).
func (r *Recorder) groundings(gs []core.Grounding) []string {
	if len(gs) == 0 {
		return nil
	}
	out := make([]string, len(gs))
	for i, g := range gs {
		if r.prog != nil {
			out[i] = g.String(r.u, r.prog)
		} else {
			out[i] = "(rule#" + strconv.Itoa(int(g.Rule)) + ")"
		}
	}
	return out
}
