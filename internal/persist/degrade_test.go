package persist

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// testLog adapts t.Log to an io.Writer, so tests can log through a
// slog.TextHandler into the test's own output.
type testLog struct{ t testing.TB }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// waitHealthy polls until the store leaves degraded mode (the
// background probe repaired it) or the deadline passes.
func waitHealthy(t *testing.T, s *Store, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if !s.Health().Degraded {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("store still degraded after %v: %+v", within, s.Health())
}

func TestStickyFsyncFailureDegradesAndProbeRepairs(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := Open(dir, WithFS(ffs), WithProbeInterval(10*time.Millisecond),
		WithSlog(slog.New(slog.NewTextHandler(testLog{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()

	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}

	// Every WAL fsync now fails until cleared.
	ffs.Fail("sync:wal.log", ErrInjected)
	err = s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(b).`))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("write during sticky fsync failure = %v, want ErrDegraded", err)
	}
	if h := s.Health(); !h.Degraded || h.Reason != "wal sync" {
		t.Fatalf("health = %+v, want degraded with reason \"wal sync\"", h)
	}

	// Reads keep working on the installed state. The failed write was
	// installed before its fsync failed; that is fine — it was never
	// acknowledged, and repair will make it durable.
	if got := renderDB(u, s.Snapshot()); !strings.Contains(got, "p(a)") {
		t.Fatalf("degraded read = {%s}, want p(a) present", got)
	}

	// Later writes fail fast with the same error, without touching the
	// disk.
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(c).`)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second write = %v, want ErrDegraded", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("checkpoint while degraded = %v, want ErrDegraded", err)
	}

	// Heal the disk: the background probe repairs the store and
	// restores writes with no restart.
	ffs.ClearAll()
	waitHealthy(t, s, 5*time.Second)
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(d).`)); err != nil {
		t.Fatalf("write after repair: %v", err)
	}

	// Nothing acknowledged was lost, and the repair checkpointed the
	// installed-but-unacknowledged p(b) too.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := renderDB(s2.Universe(), s2.Snapshot())
	for _, want := range []string{"p(a)", "p(b)", "p(d)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("reopened state = {%s}, want %s present", got, want)
		}
	}
}

func TestENOSPCDegradesWholeDisk(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := Open(dir, WithFS(ffs), WithProbeInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()

	// The wildcard failpoint models a full disk: every append on every
	// file fails with ENOSPC.
	ffs.Fail("append:*", ErrDiskFull)
	err = s.ApplyUpdates(ctx, mustUpdates(t, u, `+q(a).`))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("write on full disk = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write on full disk = %v, want ENOSPC preserved in the chain", err)
	}
	// The probe cannot repair while the disk is still full: the probe
	// scratch write itself fails.
	time.Sleep(50 * time.Millisecond)
	if !s.Health().Degraded {
		t.Fatal("store repaired while the disk was still full")
	}

	ffs.ClearAll()
	waitHealthy(t, s, 5*time.Second)
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+q(b).`)); err != nil {
		t.Fatalf("write after space freed: %v", err)
	}
}

func TestTornWALAppendDegradesAndRepairKeepsState(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := Open(dir, WithFS(ffs), WithProbeInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()

	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}

	// One torn append: 3 bytes of the payload reach the disk, then the
	// write errors. The WAL is now at a dirty boundary, so the store
	// must degrade rather than keep appending.
	ffs.SetFailpoint("append:wal.log", Failpoint{Err: ErrInjected, Remaining: 1, ShortWrite: 3})
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(b).`)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn append = %v, want ErrDegraded", err)
	}

	waitHealthy(t, s, 5*time.Second)
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p(c).`)); err != nil {
		t.Fatalf("write after repair: %v", err)
	}
	s.Close()

	// The repaired on-disk state replays cleanly: the torn bytes were
	// superseded by the repair's snapshot + fresh WAL.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := renderDB(s2.Universe(), s2.Snapshot())
	for _, want := range []string{"p(a)", "p(c)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("reopened state = {%s}, want %s present", got, want)
		}
	}
}

// TestMidWALCorruptionFailsOpenLoudly is the satellite coverage for
// corruption in a non-tail record: byte flips in the middle of the
// log must fail Open with ErrCorrupt (not silently recover a prefix),
// and RepairOpen must quarantine the region and recover the valid
// prefix before it.
func TestMidWALCorruptionFailsOpenLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := s.Universe()
	ctx := context.Background()
	for _, up := range []string{`+p(a).`, `+p(b).`, `+p(c).`} {
		if err := s.ApplyUpdates(ctx, mustUpdates(t, u, up)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a byte in the middle of the file — inside the second
	// transaction's region, with committed records on both sides.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-WAL corruption = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open error %v does not carry a *CorruptError", err)
	}

	s2, report, err := RepairOpen(dir)
	if err != nil {
		t.Fatalf("RepairOpen: %v", err)
	}
	defer s2.Close()
	if report == nil {
		t.Fatal("RepairOpen returned no report")
	}
	// The valid prefix holds at least the first transaction; the
	// quarantine holds the rest, byte-for-byte.
	got := renderDB(s2.Universe(), s2.Snapshot())
	if !strings.Contains(got, "p(a)") {
		t.Fatalf("recovered state = {%s}, want p(a) present", got)
	}
	if strings.Contains(got, "p(c)") {
		t.Fatalf("recovered state = {%s}; p(c) lies past the corruption and cannot be trusted", got)
	}
	q, err := os.ReadFile(report.QuarantinedFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := data[report.Offset:]; string(q) != string(want) {
		t.Fatalf("quarantine file differs from the cut WAL region (%d vs %d bytes)", len(q), len(want))
	}
	if s2.Seq() != report.RecoveredSeq {
		t.Fatalf("store seq %d != report.RecoveredSeq %d", s2.Seq(), report.RecoveredSeq)
	}

	// Writes resume on the recovered prefix, and a plain Open works
	// again afterwards.
	if err := s2.ApplyUpdates(ctx, mustUpdates(t, s2.Universe(), `+p(z).`)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after repair = %v, want success", err)
	}
	s3.Close()
}

// TestRepairOpenOnCleanStore asserts the escape hatch is a no-op when
// nothing is wrong: no report, no quarantine file, state intact.
func TestRepairOpenOnCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, s.Universe(), `+p(a).`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, report, err := RepairOpen(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if report != nil {
		t.Fatalf("RepairOpen on a clean store produced report %+v", report)
	}
	if got := renderDB(s2.Universe(), s2.Snapshot()); got != "p(a)" {
		t.Fatalf("state = {%s}, want {p(a)}", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal.corrupt-") {
			t.Fatalf("clean store grew quarantine file %s", e.Name())
		}
	}
}

// TestReplicaWritesGatedWhileDegraded asserts the replication write
// paths respect degraded mode and that ReplicaCut (a read) does not.
func TestReplicaWritesGatedWhileDegraded(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := Open(dir, WithFS(ffs), WithProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Universe()
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(a).`)); err != nil {
		t.Fatal(err)
	}

	ffs.Fail("sync:wal.log", ErrInjected)
	if err := s.SyncWAL(); err != nil {
		// Nothing pending: SyncWAL may legitimately be a no-op here.
		t.Logf("SyncWAL: %v", err)
	}
	// Force the degradation through a write.
	if err := s.ApplyUpdates(context.Background(), mustUpdates(t, u, `+p(b).`)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write = %v, want ErrDegraded", err)
	}

	if err := s.ApplyReplicatedFrom(TxnRecord{Seq: s.Seq() + 1, Added: []string{"p(x)"}}, 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ApplyReplicatedFrom while degraded = %v, want ErrDegraded", err)
	}
	if err := s.ResetToSnapshot(100, 0, []string{"p(y)"}, 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ResetToSnapshot while degraded = %v, want ErrDegraded", err)
	}
	cut, err := s.ReplicaCut(0, true, 8)
	if err != nil {
		t.Fatalf("ReplicaCut while degraded = %v, want success (replication reads keep serving)", err)
	}
	cut.Cancel()
}
