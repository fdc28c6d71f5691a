package persist

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
)

// TestApplyRecordsFlightTrace checks that every committed transaction
// leaves a resolved trace in the store's flight ring, stamped with the
// request's trace ID from the context.
func TestApplyRecordsFlightTrace(t *testing.T) {
	var logBuf bytes.Buffer
	s, err := Open(t.TempDir(),
		WithSlog(slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	prog := mustProgram(t, u, `
		rule r1 priority 1: p -> +a.
		rule r2 priority 2: p -> +q.
		rule r3 priority 3: a -> -q.
	`)
	ctx := flight.WithTraceID(context.Background(), "trace-abc")
	if _, err := s.Apply(ctx, prog, mustUpdates(t, u, `+p.`), nil, core.Options{}); err != nil {
		t.Fatal(err)
	}
	ring := s.Flight()
	if ring == nil {
		t.Fatal("flight ring disabled by default")
	}
	tr := ring.Get(s.Seq())
	if tr == nil {
		t.Fatalf("no trace recorded for seq %d", s.Seq())
	}
	if tr.TraceID != "trace-abc" || tr.Origin != "local" {
		t.Fatalf("trace header = %+v; want traceId trace-abc, origin local", tr)
	}
	if tr.Conflicts == 0 || len(tr.Events) == 0 {
		t.Fatalf("trace is empty: %+v", tr)
	}
	// The structured commit log carries the same correlation ID.
	if !strings.Contains(logBuf.String(), "traceId=trace-abc") {
		t.Fatalf("commit log missing trace ID:\n%s", logBuf.String())
	}
	// The history record carries it too.
	hist := mustHistory(t, s)
	if len(hist) == 0 || hist[len(hist)-1].TraceID != "trace-abc" {
		t.Fatalf("history record missing trace ID: %+v", hist)
	}
}

// TestTraceBufferDisabled checks WithTraceBuffer(0) turns recording
// off entirely: no ring, no recorder on the engine's critical path.
func TestTraceBufferDisabled(t *testing.T) {
	s, err := Open(t.TempDir(), WithTraceBuffer(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	if _, err := s.Apply(context.Background(), mustProgram(t, u, `p -> +a.`),
		mustUpdates(t, u, `+p.`), nil, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.Flight() != nil {
		t.Fatal("Flight() should be nil when tracing is disabled")
	}
}

// TestApplyReplicatedPropagatesTraceID checks a replica's history and
// subscription records keep the leader's trace ID.
func TestApplyReplicatedPropagatesTraceID(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	events, cancel := s.Subscribe(4)
	defer cancel()
	err = s.ApplyReplicatedFrom(TxnRecord{Seq: 1, TraceID: "leader-trace", Added: []string{"p(a)"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := <-events
	if rec.TraceID != "leader-trace" {
		t.Fatalf("subscription record trace ID = %q, want leader-trace", rec.TraceID)
	}
	hist := mustHistory(t, s)
	if len(hist) != 1 || hist[0].TraceID != "leader-trace" {
		t.Fatalf("history = %+v", hist)
	}
}

// TestCallerTracerWins checks that an explicit caller tracer suppresses
// the flight recorder for that transaction (the engine takes one
// tracer) without disturbing recording for other transactions.
func TestCallerTracerWins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	prog := mustProgram(t, u, `p -> +a.`)
	var sb strings.Builder
	tracer := &core.TextTracer{W: &sb, U: u}
	if _, err := s.Apply(context.Background(), prog, mustUpdates(t, u, `+p.`), nil,
		core.Options{Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("caller tracer saw no events")
	}
	if tr := s.Flight().Get(s.Seq()); tr != nil {
		t.Fatalf("flight trace recorded despite caller tracer: %+v", tr)
	}
	if _, err := s.Apply(context.Background(), prog, mustUpdates(t, u, `+q.`), nil, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if tr := s.Flight().Get(s.Seq()); tr == nil {
		t.Fatal("recording did not resume after the traced transaction")
	}
}
