package persist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

func renderDB(u *core.Universe, d *core.Database) string {
	ids := append([]core.AID(nil), d.Atoms()...)
	u.SortAtoms(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = u.AtomString(id)
	}
	return strings.Join(parts, ", ")
}

func mustUpdates(t *testing.T, u *core.Universe, src string) []core.Update {
	t.Helper()
	ups, err := parser.ParseUpdates(u, "", src)
	if err != nil {
		t.Fatal(err)
	}
	return ups
}

func mustProgram(t *testing.T, u *core.Universe, src string) *core.Program {
	t.Helper()
	p, err := parser.ParseProgram(u, "", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOpenEmpty(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 || s.WALRecords() != 0 {
		t.Fatalf("fresh store: len=%d wal=%d", s.Len(), s.WALRecords())
	}
}

func TestApplyAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := s.Universe()
	prog := mustProgram(t, u, `emp(X), !active(X), payroll(X) -> -payroll(X).`)
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+emp(tom). +payroll(tom). +active(tom).`)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(context.Background(), prog, mustUpdates(t, u, `-active(tom).`), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "emp(tom)"
	if got := renderDB(u, res.Output); got != want {
		t.Fatalf("state = {%s}, want {%s}", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state must be fully recovered from the WAL alone.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != want {
		t.Fatalf("recovered state = {%s}, want {%s}", got, want)
	}
}

func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a). +p(b). +q(a, b).`)); err != nil {
		t.Fatal(err)
	}
	if s.WALRecords() == 0 {
		t.Fatal("no WAL records before checkpoint")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.WALRecords() != 0 {
		t.Fatalf("wal records after checkpoint = %d", s.WALRecords())
	}
	// The snapshot file exists and parses as facts.
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "q(a, b).") {
		t.Fatalf("snapshot content:\n%s", snap)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "p(a), p(b), q(a, b)" {
		t.Fatalf("state after checkpoint reopen = {%s}", got)
	}
	if s2.WALRecords() != 0 {
		t.Fatalf("wal records after reopen = %d", s2.WALRecords())
	}
}

func TestCheckpointThenMoreTransactions(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(b). -p(a).`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "p(b)" {
		t.Fatalf("state = {%s}, want {p(b)}", got)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a). +p(b).`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: garbage half-record at the tail.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 1, 2}); err != nil { // claims 42 bytes, provides 0
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "p(a), p(b)" {
		t.Fatalf("recovered state = {%s}", got)
	}
	// The torn tail must have been truncated away so new appends work.
	if err := s2.ApplyUpdates(context.Background(), mustUpdates(t, s2.Universe(), `+p(c).`)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := renderDB(s3.Universe(), s3.Snapshot()); got != "p(a), p(b), p(c)" {
		t.Fatalf("state after torn-tail round trip = {%s}", got)
	}
}

func TestCRCCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(b).`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a payload byte of the second record.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A checksum mismatch on a fully present record is corruption, not
	// a torn tail: Open must refuse rather than silently discard it.
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt WAL = %v, want ErrCorrupt", err)
	}

	// RepairOpen quarantines the corrupt region and recovers the
	// committed prefix.
	s2, report, err := RepairOpen(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "p(a)" {
		t.Fatalf("recovered state = {%s}, want {p(a)}", got)
	}
	if report == nil {
		t.Fatal("RepairOpen returned no repair report")
	}
	if report.RecoveredSeq != 1 {
		t.Fatalf("report.RecoveredSeq = %d, want 1", report.RecoveredSeq)
	}
	if report.QuarantinedBytes == 0 {
		t.Fatal("report quarantined no bytes")
	}
	if q, err := os.ReadFile(report.QuarantinedFile); err != nil {
		t.Fatalf("quarantine file: %v", err)
	} else if int64(len(q)) != report.QuarantinedBytes {
		t.Fatalf("quarantine file has %d bytes, report says %d", len(q), report.QuarantinedBytes)
	}

	// The store is writable again after repair.
	if err := s2.ApplyUpdates(context.Background(), mustUpdates(t, s2.Universe(), `+p(c).`)); err != nil {
		t.Fatalf("write after repair: %v", err)
	}
}

func TestFailedTransactionLeavesStoreUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	defer s.Close()
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	// A failing strategy aborts the transaction.
	prog := mustProgram(t, u, `p(X) -> +a(X). p(X) -> -a(X).`)
	bad := core.StrategyFunc{StrategyName: "bad", Fn: func(*core.SelectInput) (core.Decision, error) {
		return 0, os.ErrInvalid
	}}
	if _, err := s.Apply(context.Background(), prog, nil, bad, core.Options{}); err == nil {
		t.Fatal("failing strategy did not abort")
	}
	if got := renderDB(u, s.Snapshot()); got != "p(a)" {
		t.Fatalf("state changed by failed txn: {%s}", got)
	}
}

func TestStoreQuery(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+emp(tom). +emp(ann). +active(ann).`)); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(u, "", `emp(X), !active(X)`)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	if err := s.Query(q, func(b []core.Sym) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s, _ := Open(t.TempDir())
	s.Close()
	if err := s.ApplyUpdates(context.Background(), nil); err == nil {
		t.Fatal("apply on closed store succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("p(X)."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// A crash between a transaction's delta records and its commit marker
// must roll the whole transaction back on recovery (atomicity).
func TestUncommittedTransactionRolledBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Append a valid delta record with NO commit marker, simulating a
	// crash mid-Apply.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.appendRecord('+', "p(b)"); err != nil {
		t.Fatal(err)
	}
	if err := s2.appendRecord('-', "p(a)"); err != nil {
		t.Fatal(err)
	}
	s2.wal.Sync()
	s2.wal.Close() // bypass Close() bookkeeping, like a crash

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := renderDB(s3.Universe(), s3.Snapshot()); got != "p(a)" {
		t.Fatalf("recovered state = {%s}, want the pre-transaction {p(a)}", got)
	}
	if len(mustHistory(t, s3)) != 1 {
		t.Fatalf("history = %d entries, want 1", len(mustHistory(t, s3)))
	}
	// The store must accept new transactions cleanly after rollback.
	if err := s3.ApplyUpdates(context.Background(), mustUpdates(t, s3.Universe(), `+p(c).`)); err != nil {
		t.Fatal(err)
	}
	if got := renderDB(s3.Universe(), s3.Snapshot()); got != "p(a), p(c)" {
		t.Fatalf("state after rollback + new txn = {%s}", got)
	}
}

func TestHistoryAndStateAt(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(b). -p(a).`)); err != nil {
		t.Fatal(err)
	}
	// A no-op transaction is not recorded.
	if err := s.ApplyUpdates(ctx, nil); err != nil {
		t.Fatal(err)
	}
	hist := mustHistory(t, s)
	if len(hist) != 2 {
		t.Fatalf("history = %d entries, want 2", len(hist))
	}
	if hist[0].Seq != 1 || len(hist[0].Added) != 1 || hist[0].Added[0] != "p(a)" {
		t.Fatalf("txn 1 = %+v", hist[0])
	}
	if hist[1].Seq != 2 || len(hist[1].Removed) != 1 {
		t.Fatalf("txn 2 = %+v", hist[1])
	}
	for seq, want := range map[int]string{0: "", 1: "p(a)", 2: "p(b)"} {
		db, err := s.StateAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderDB(u, db); got != want {
			t.Fatalf("StateAt(%d) = {%s}, want {%s}", seq, got, want)
		}
	}
	if _, err := s.StateAt(3); err == nil {
		t.Fatal("StateAt(3) accepted")
	}
	if _, err := s.StateAt(-1); err == nil {
		t.Fatal("StateAt(-1) accepted")
	}

	// History survives reopen (rebuilt from the WAL)...
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mustHistory(t, s2)) != 2 {
		t.Fatalf("reopened history = %d", len(mustHistory(t, s2)))
	}
	// ...and is cleared by a checkpoint (the snapshot collapses it),
	// but the global sequence does NOT reset: the checkpoint becomes
	// the new base.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(mustHistory(t, s2)) != 0 {
		t.Fatalf("history after checkpoint = %d", len(mustHistory(t, s2)))
	}
	if s2.BaseSeq() != 2 || s2.Seq() != 2 {
		t.Fatalf("after checkpoint base/seq = %d/%d, want 2/2", s2.BaseSeq(), s2.Seq())
	}
	db, err := s2.StateAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDB(s2.Universe(), db); got != "p(b)" {
		t.Fatalf("StateAt(2) after checkpoint = {%s}", got)
	}
	// Pre-checkpoint sequences are no longer reconstructable...
	if _, err := s2.StateAt(1); err == nil {
		t.Fatal("StateAt(1) accepted after checkpoint")
	}
	s2.Close()
}

// TestSeqMonotonicAcrossCheckpoint is the regression test for the
// sequence-reset bug: transaction sequence numbers used to restart at
// 1 after every checkpoint, so /v1/watch consumers and ?at=N time
// travel saw duplicate, ambiguous sequences.
func TestSeqMonotonicAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	u := s.Universe()
	ctx := context.Background()
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(b).`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(c).`)); err != nil {
		t.Fatal(err)
	}
	hist := mustHistory(t, s)
	if len(hist) != 1 || hist[0].Seq != 3 {
		t.Fatalf("post-checkpoint history = %+v, want one entry with Seq 3", hist)
	}
	// The sequence survives a restart, too: the snapshot header and
	// the commit markers both carry it.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 3 || s2.BaseSeq() != 2 {
		t.Fatalf("reopened seq/base = %d/%d, want 3/2", s2.Seq(), s2.BaseSeq())
	}
	if err := s2.ApplyUpdates(ctx, mustUpdates(t, s2.Universe(), `+p(d).`)); err != nil {
		t.Fatal(err)
	}
	if got := mustHistory(t, s2); len(got) != 2 || got[1].Seq != 4 {
		t.Fatalf("history after reopen+apply = %+v, want Seqs 3, 4", got)
	}
	// Time travel by global sequence across the checkpoint boundary.
	db, err := s2.StateAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDB(s2.Universe(), db); got != "p(a), p(b), p(c)" {
		t.Fatalf("StateAt(3) = {%s}", got)
	}
}

func TestBackupRestore(t *testing.T) {
	s, _ := Open(t.TempDir())
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a). +q(a, b). +flag.`)); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.Backup(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !strings.Contains(buf.String(), "q(a, b).") {
		t.Fatalf("backup content:\n%s", buf.String())
	}

	dir := t.TempDir()
	if err := Restore(dir, strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "flag, p(a), q(a, b)" {
		t.Fatalf("restored state = {%s}", got)
	}
	// Restore refuses to overwrite.
	if err := Restore(dir, strings.NewReader("x.\n")); err == nil {
		t.Fatal("restore over existing store succeeded")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := Restore(dir, strings.NewReader("p(X) -> +q(X).")); err == nil {
		t.Fatal("rules accepted as backup")
	}
	if err := Restore(dir, strings.NewReader("p(")); err == nil {
		t.Fatal("garbage accepted as backup")
	}
	// The failed restores must not leave a snapshot behind.
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		t.Fatal("snapshot written despite invalid backup")
	}
}

func TestSubscribe(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()

	events, cancel := s.Subscribe(4)
	defer cancel()

	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	// No-op transactions produce no event.
	if err := s.ApplyUpdates(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `-p(a). +p(b).`)); err != nil {
		t.Fatal(err)
	}

	txn1 := <-events
	if txn1.Seq != 1 || len(txn1.Added) != 1 || txn1.Added[0] != "p(a)" {
		t.Fatalf("event 1 = %+v", txn1)
	}
	txn2 := <-events
	if txn2.Seq != 2 || len(txn2.Removed) != 1 {
		t.Fatalf("event 2 = %+v", txn2)
	}
	select {
	case e := <-events:
		t.Fatalf("unexpected event %+v", e)
	default:
	}

	// After cancel, no more events and the channel closes.
	cancel()
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(c).`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-events; ok {
		t.Fatal("event after cancel")
	}
}

func TestSubscribeSlowConsumerDrops(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()
	events, cancel := s.Subscribe(1)
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := s.ApplyUpdates(ctx, mustUpdates(t, u, "+x"+string(rune('a'+i))+".")); err != nil {
			t.Fatal(err)
		}
	}
	// Only the first event fits the buffer; the rest were dropped and
	// the store never blocked.
	first := <-events
	if first.Seq != 1 {
		t.Fatalf("first buffered event seq = %d", first.Seq)
	}
	select {
	case e := <-events:
		// At most one more could have been buffered after the read
		// raced the writers; with sequential ApplyUpdates above there
		// is none.
		t.Fatalf("unexpected second event %+v", e)
	default:
	}
}

// Crash between Checkpoint's snapshot rename and WAL truncation: on
// reopen the full old WAL replays on top of the new snapshot. Delta
// records are absolute (+atom / -atom), so the double application
// converges to the same state.
func TestCheckpointCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	u := s.Universe()
	ctx := context.Background()
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+a. +b.`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `-a. +c.`)); err != nil {
		t.Fatal(err)
	}
	// Save the pre-checkpoint WAL bytes.
	walPath := filepath.Join(dir, walName)
	oldWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := renderDB(u, s.Snapshot())
	s.Close()
	// Simulate the crash: the snapshot is new but the WAL truncation
	// "did not happen".
	if err := os.WriteFile(walPath, oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != want {
		t.Fatalf("state after checkpoint crash = {%s}, want {%s}", got, want)
	}
	// The store keeps working (new transactions, another checkpoint).
	if err := s2.ApplyUpdates(ctx, mustUpdates(t, s2.Universe(), `+d.`)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != want+", d" {
		t.Fatalf("state = {%s}", got)
	}
}

// mustHistory is Store.History for tests, failing the test on a read
// error.
func mustHistory(tb testing.TB, s *Store) []TxnRecord {
	tb.Helper()
	hist, err := s.History()
	if err != nil {
		tb.Fatal(err)
	}
	return hist
}
