package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/persist"
)

func newTestServer(t *testing.T) (*Client, *Server) {
	t.Helper()
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, srv
}

func TestEndToEndTransaction(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	prog, err := c.SetProgram(ctx, `
		rule cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
		rule audit: -active(X) -> +audit(X).
	`, "")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Rules != 2 || prog.Strategy != "inertia" {
		t.Fatalf("program = %+v", prog)
	}

	// Seed data via a plain transaction.
	if _, err := c.Transact(ctx, `+emp(tom). +active(tom). +payroll(tom, 100).`); err != nil {
		t.Fatal(err)
	}
	// Deactivate tom; the cleanup rule fires and the audit event rule
	// records it.
	resp, err := c.Transact(ctx, `-active(tom).`)
	if err != nil {
		t.Fatal(err)
	}
	// The response is the delta; GET /v1/database is D.
	if want := []string{"audit(tom)"}; !reflect.DeepEqual(resp.Added, want) {
		t.Fatalf("added = %v, want %v", resp.Added, want)
	}
	if want := []string{"active(tom)", "payroll(tom, 100)"}; !reflect.DeepEqual(resp.Removed, want) {
		t.Fatalf("removed = %v, want %v", resp.Removed, want)
	}
	if resp.Seq != 2 {
		t.Fatalf("seq = %d, want 2", resp.Seq)
	}
	want := []string{"audit(tom)", "emp(tom)"}
	facts, err := c.Database(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(facts, want) {
		t.Fatalf("database = %v", facts)
	}
}

func TestQueryEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	if _, err := c.Transact(ctx, `+p(a). +p(b). +q(a).`); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, `p(X), !q(X)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Vars) != 1 || resp.Vars[0] != "X" {
		t.Fatalf("vars = %v", resp.Vars)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0] != "b" {
		t.Fatalf("rows = %v", resp.Rows)
	}
	// Bad query is a 400 with a useful message.
	if _, err := c.Query(ctx, `+p(X)`); err == nil || !strings.Contains(err.Error(), "event") {
		t.Fatalf("bad query err = %v", err)
	}
}

func TestConflictReporting(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	if _, err := c.SetProgram(ctx, `
		p(X) -> +a(X).
		p(X) -> -a(X).
	`, ""); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Transact(ctx, `+p(x).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Conflicts) != 1 || resp.Conflicts[0].Atom != "a(x)" || resp.Conflicts[0].Decision != "delete" {
		t.Fatalf("conflicts = %+v", resp.Conflicts)
	}
	if resp.Blocked != 1 {
		t.Fatalf("blocked = %d", resp.Blocked)
	}
}

func TestStrategyOverride(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	if _, err := c.SetProgram(ctx, `
		rule low priority 1: p(X) -> -a(X).
		rule high priority 9: p(X) -> +a(X).
	`, ""); err != nil {
		t.Fatal(err)
	}
	// Default inertia deletes (a not in D).
	resp, err := c.Transact(ctx, `+p(x).`)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range resp.Added {
		if f == "a(x)" {
			t.Fatalf("inertia inserted a(x): %v", resp.Added)
		}
	}
	// Priority override inserts.
	resp, err = c.TransactWith(ctx, TransactionRequest{Updates: ``, Strategy: "priority"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Added, []string{"a(x)"}) {
		t.Fatalf("priority did not insert a(x): %v", resp.Added)
	}
	// Unknown strategy rejected.
	if _, err := c.TransactWith(ctx, TransactionRequest{Strategy: "nope"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	if _, err := c.SetProgram(ctx, `
		a(X) -> +f(X).
		b(X) -> -f(X).
		+e(X) -> +g(X).
	`, ""); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rules != 3 || !rep.UsesEvents {
		t.Fatalf("analyze = %+v", rep)
	}
	if len(rep.ConflictPredicates) != 1 || rep.ConflictPredicates[0] != "f" {
		t.Fatalf("conflict preds = %v", rep.ConflictPredicates)
	}
}

func TestBadProgramRejected(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	if _, err := c.SetProgram(ctx, `p(X) -> +q(Y).`, ""); err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.SetProgram(ctx, `p -> +q.`, "bogus"); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckpointAndDurability(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store)
	ts := httptest.NewServer(srv.Handler())
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := c.Transact(ctx, `+p(a). +p(b).`); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	store.Close()

	// Reopen the same directory: state survives.
	store2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != 2 {
		t.Fatalf("recovered %d facts", store2.Len())
	}
}

func TestConcurrentTransactions(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i%26))
			if _, err := c.Transact(ctx, "+item("+name+"_"+itoa(i)+")."); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	facts, err := c.Database(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 20 {
		t.Fatalf("facts = %d, want 20", len(facts))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestHistoryAndTimeTravel(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	if _, err := c.Transact(ctx, `+p(a).`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transact(ctx, `+p(b). -p(a).`); err != nil {
		t.Fatal(err)
	}
	hist, err := c.History(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].Seq != 1 || len(hist[1].Removed) != 1 {
		t.Fatalf("history = %+v", hist)
	}
	facts, err := c.DatabaseAt(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 1 || facts[0] != "p(a)" {
		t.Fatalf("DatabaseAt(1) = %v", facts)
	}
	if _, err := c.DatabaseAt(ctx, 99); err == nil {
		t.Fatal("out-of-range seq accepted")
	}
}

func TestTriggerDDLOverTheWire(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()
	resp, err := c.SetProgramWith(ctx, ProgramRequest{
		Source: `CREATE TRIGGER audit AFTER DELETE ON active(X) DO INSERT audit(X);`,
		Format: "triggers",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rules != 1 {
		t.Fatalf("rules = %d", resp.Rules)
	}
	if _, err := c.Transact(ctx, `+active(tom).`); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Transact(ctx, `-active(tom).`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tx.Added, []string{"audit(tom)"}) || !reflect.DeepEqual(tx.Removed, []string{"active(tom)"}) {
		t.Fatalf("delta = +%v -%v", tx.Added, tx.Removed)
	}
	// Unknown format rejected.
	if _, err := c.SetProgramWith(ctx, ProgramRequest{Source: ``, Format: "sql"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestWatchStream(t *testing.T) {
	c, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	events, err := c.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transact(ctx, `+p(a).`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transact(ctx, `-p(a). +p(b).`); err != nil {
		t.Fatal(err)
	}
	e1 := <-events
	if e1.Seq != 1 || len(e1.Added) != 1 || e1.Added[0] != "p(a)" {
		t.Fatalf("event 1 = %+v", e1)
	}
	e2 := <-events
	if e2.Seq != 2 || len(e2.Removed) != 1 {
		t.Fatalf("event 2 = %+v", e2)
	}
	cancel()
	// The channel must close after cancellation.
	for range events {
	}
}

func TestClientErrorPaths(t *testing.T) {
	// Connection refused.
	bad := &Client{BaseURL: "http://127.0.0.1:1"}
	if _, err := bad.Database(context.Background()); err == nil {
		t.Fatal("dead server produced no error")
	}
	// Non-JSON error body.
	ts := httptest.NewServer(httptestHandler(500, "boom"))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	if _, err := c.Database(context.Background()); err == nil || !strings.Contains(err.Error(), "HTTP 500") {
		t.Fatalf("err = %v", err)
	}
	// JSON error body surfaces the message.
	ts2 := httptest.NewServer(httptestHandler(400, `{"error":"nope"}`))
	defer ts2.Close()
	c2 := &Client{BaseURL: ts2.URL}
	if _, err := c2.Database(context.Background()); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
	// Watch against a non-SSE endpoint errors cleanly.
	if _, err := c2.Watch(context.Background()); err == nil {
		t.Fatal("watch on failing server produced no error")
	}
}

func httptestHandler(status int, body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	})
}

func TestBadRequestBodies(t *testing.T) {
	c, _ := newTestServer(t)
	// Unknown fields are rejected (DisallowUnknownFields).
	req, _ := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/transaction",
		strings.NewReader(`{"bogus": 1}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Malformed updates are a 400 with position info.
	if _, err := c.Transact(context.Background(), `+p(`); err == nil {
		t.Fatal("bad updates accepted")
	}
}
