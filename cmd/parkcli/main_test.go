package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	park "repro"
	"repro/internal/persist"
	"repro/internal/server"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseStrategy(t *testing.T) {
	for _, spec := range []string{"", "inertia", "priority", "specificity", "random", "random=42", "protect+inertia", "protect+priority"} {
		if _, err := parseStrategy(spec); err != nil {
			t.Fatalf("parseStrategy(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"bogus", "random=x", "protect+bogus"} {
		if _, err := parseStrategy(spec); err == nil {
			t.Fatalf("parseStrategy(%q) accepted", spec)
		}
	}
}

func TestCmdRun(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "rules.park", `
		emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
	`)
	db := writeFile(t, dir, "db.park", `
		emp(tom). payroll(tom, 100).
	`)
	if err := cmdRun([]string{"-program", prog, "-db", db, "-stats"}); err != nil {
		t.Fatal(err)
	}
	// With updates, strategy, trace, explain and engine options.
	ups := writeFile(t, dir, "ups.park", `+active(tom).`)
	if err := cmdRun([]string{
		"-program", prog, "-db", db, "-updates", ups,
		"-strategy", "priority", "-trace", "-naive", "-noindex",
		"-explain", "payroll(tom, 100)",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunErrors(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "rules.park", `p -> +q.`)
	db := writeFile(t, dir, "db.park", `p.`)
	if err := cmdRun(nil); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := cmdRun([]string{"-program", prog, "-db", filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("missing db file accepted")
	}
	if err := cmdRun([]string{"-program", prog, "-db", db, "-strategy", "bogus"}); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	bad := writeFile(t, dir, "bad.park", `p(X) -> +q(Y).`)
	if err := cmdRun([]string{"-program", bad, "-db", db}); err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("unsafe program err = %v", err)
	}
	if err := cmdRun([]string{"-program", prog, "-db", db, "-explain", "not an atom ("}); err == nil {
		t.Fatal("bad explain atom accepted")
	}
}

func TestCmdCheck(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "rules.park", `
		a(X) -> +f(X).
		b(X) -> -f(X).
	`)
	if err := cmdCheck([]string{"-program", prog}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCheck(nil); err == nil {
		t.Fatal("missing -program accepted")
	}
}

func TestParseGroundAtom(t *testing.T) {
	u := park.NewUniverse()
	id, err := parseGroundAtom(u, "q(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if u.AtomString(id) != "q(a, b)" {
		t.Fatalf("round trip = %q", u.AtomString(id))
	}
	if _, err := parseGroundAtom(u, "q(X)"); err == nil {
		t.Fatal("variable accepted in ground atom")
	}
	if _, err := parseGroundAtom(u, "p(a). p(b)"); err == nil {
		t.Fatal("two atoms accepted")
	}
}

func TestReplSession(t *testing.T) {
	script := strings.Join([]string{
		"p(a).",
		"p(X) -> +q(X).",
		":rules",
		":db",
		":check",
		":run",
		":why q(a)",
		":updates",
		":trace",
		":clear",
		":db",
		":bogus",
		":quit",
	}, "\n") + "\n"
	var out strings.Builder
	r := newReplForTest(strings.NewReader(script), &out)
	if err := r.loop(); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	for _, want := range []string{
		"rule 1 added",
		"fact p(a) added",
		"result: {p(a), q(a)}",
		"inserted by", // :why output
		"conflict potential: none",
		"cleared",
		"unknown command :bogus",
	} {
		if !strings.Contains(o, want) {
			t.Fatalf("repl output missing %q:\n%s", want, o)
		}
	}
}

func TestReplLoadFile(t *testing.T) {
	dir := t.TempDir()
	f := writeFile(t, dir, "unit.park", "p(a).\np(X) -> +q(X).\n")
	script := ":load " + f + "\n:run\n:quit\n"
	var out strings.Builder
	r := newReplForTest(strings.NewReader(script), &out)
	if err := r.loop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "result: {p(a), q(a)}") {
		t.Fatalf("repl :load output:\n%s", out.String())
	}
}

func TestCmdQuery(t *testing.T) {
	dir := t.TempDir()
	db := writeFile(t, dir, "db.park", `emp(tom). emp(ann). active(ann).`)
	if err := cmdQuery([]string{"-db", db, "-q", `emp(X), !active(X)`}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-db", db}); err == nil {
		t.Fatal("missing -q accepted")
	}
	if err := cmdQuery([]string{"-db", db, "-q", `+emp(X)`}); err == nil {
		t.Fatal("event query accepted")
	}
}

func TestCmdRunTriggers(t *testing.T) {
	dir := t.TempDir()
	ddl := writeFile(t, dir, "ddl.sql", `CREATE RULE r WHEN p(X) DO INSERT q(X);`)
	db := writeFile(t, dir, "db.park", `p(a).`)
	if err := cmdRun([]string{"-triggers", ddl, "-db", db}); err != nil {
		t.Fatal(err)
	}
	prog := writeFile(t, dir, "rules.park", `p(X) -> +q(X).`)
	if err := cmdRun([]string{"-triggers", ddl, "-program", prog, "-db", db}); err == nil {
		t.Fatal("both -program and -triggers accepted")
	}
}

func TestCmdCheckTriggers(t *testing.T) {
	dir := t.TempDir()
	ddl := writeFile(t, dir, "ddl.sql", `
		CREATE TRIGGER keep AFTER INSERT ON hold(X) DO INSERT p(X);
		CREATE RULE drop WHEN q(X) DO DELETE p(X);
	`)
	if err := cmdCheck([]string{"-triggers", ddl}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCheck([]string{}); err == nil {
		t.Fatal("no program accepted")
	}
}

// lockedBuilder lets the test poll the watch goroutine's output
// without racing its writes.
type lockedBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuilder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestWatchCommand(t *testing.T) {
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := server.New(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	out := &lockedBuilder{}
	done := make(chan error, 1)
	go func() { done <- watch(ctx, ts.URL, out) }()

	c := &server.Client{BaseURL: ts.URL}
	// The watcher connects asynchronously and events before the
	// subscription are (by design) not delivered, so keep committing
	// DISTINCT facts until one streams through.
	seen := false
	for i := 0; i < 200 && !seen; i++ {
		if _, err := c.Transact(ctx, fmt.Sprintf("+p(x%d).", i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		seen = strings.Contains(out.String(), "+ p(x")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatalf("no event streamed; watch output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "txn ") {
		t.Fatalf("watch output malformed:\n%s", out.String())
	}
}

func TestCmdRunJSON(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "rules.park", `p -> +a. p -> -a.`)
	db := writeFile(t, dir, "db.park", `p.`)
	if err := cmdRun([]string{"-program", prog, "-db", db, "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-program", prog, "-db", db, "-format", "yaml"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestCmdQueryJSON(t *testing.T) {
	dir := t.TempDir()
	db := writeFile(t, dir, "db.park", `emp(tom).`)
	if err := cmdQuery([]string{"-db", db, "-q", `emp(X)`, "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-db", db, "-q", `emp(X)`, "-format", "xml"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestCmdTxn(t *testing.T) {
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := server.New(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &server.Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := c.SetProgram(ctx, `rule a priority 1: p -> +q. rule b priority 2: p -> -q.`, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transact(ctx, "+p."); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := txnTrace(ctx, c, 1, false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "txn 1 (trace ") || !strings.Contains(out.String(), "conflict on q:") {
		t.Fatalf("text trace:\n%s", out.String())
	}
	out.Reset()
	if err := txnTrace(ctx, c, 1, true, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"traceId"`) {
		t.Fatalf("json trace:\n%s", out.String())
	}
	if err := txnTrace(ctx, c, 99, false, &out); err == nil {
		t.Fatal("missing trace accepted")
	}

	recent, err := c.RecentTxns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := txnList(recent, false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SEQ") || !strings.Contains(out.String(), "local") {
		t.Fatalf("txn list table:\n%s", out.String())
	}

	// The dispatcher paths: bad subcommand and bad seq.
	if err := cmdTxn(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := cmdTxn([]string{"bogus"}); err == nil {
		t.Fatal("bogus subcommand accepted")
	}
	if err := cmdTxn([]string{"trace", "-url", ts.URL, "nope"}); err == nil {
		t.Fatal("bad seq accepted")
	}
	if err := cmdTxn([]string{"trace", "-url", ts.URL, "1"}); err != nil {
		t.Fatal(err)
	}
	// Flags after the sequence parse too.
	if err := cmdTxn([]string{"trace", "1", "-url", ts.URL}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTxn([]string{"slow", "-url", ts.URL}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTxn([]string{"list", "-url", ts.URL, "-json"}); err != nil {
		t.Fatal(err)
	}
}
