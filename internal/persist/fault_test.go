package persist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// The randomized fault/crash harness. Each seeded schedule runs a
// concurrent group-commit workload while an injector arms random
// failpoints at the store's VFS callsites (WAL appends and fsyncs —
// torn, once, sticky, ENOSPC — snapshot writes, renames, probe
// files), then:
//
//  1. crash-cuts the on-disk files at a random offset no lower than
//     the WAL's durable floor (what fsync has covered — a real crash
//     cannot take back synced bytes) and reopens the copy, verifying
//     the recovered store is a prefix-consistent state: exactly the
//     fold of the first R committed transactions for some R, with
//     every acknowledged transaction included;
//  2. replicates the recovered store into a fresh follower through
//     ReplicaCut/ApplyReplicatedFrom and verifies convergence;
//  3. heals the live store (clears every failpoint), waits for the
//     degraded-mode probe to repair it, and verifies writes resume
//     and the final state matches the committed history exactly.
//
// Schedules and seeding are controlled by environment variables so CI
// can crank the count and any failure can be replayed:
//
//	PARK_FAULT_SCHEDULES  number of schedules (default 25, 5 in -short)
//	PARK_FAULT_SEED       seed of the first schedule; set alone, it
//	                      replays exactly that one schedule
//
// Without PARK_FAULT_SEED the schedules start at defaultFaultSeed, so
// a plain `go test` runs the same schedules, under the same subtest
// names, every time; CI passes a clock seed to explore new ones.
// Every failure message includes the schedule's seed.

// defaultFaultSeed is the first schedule's seed when PARK_FAULT_SEED
// is unset.
const defaultFaultSeed int64 = 1792072349747064201

// faultMenu is the set of failpoints the injector draws from. Between
// them they cover every VFS callsite the store has: WAL append/sync/
// truncate/open/read, snapshot create/append/sync/rename, probe
// create/append/sync, and the whole-disk wildcard.
var faultMenu = []struct {
	name string
	fp   Failpoint
}{
	{"sync:wal.log", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"sync:wal.log", Failpoint{Err: ErrInjected, Remaining: -1}},
	{"append:wal.log", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"append:wal.log", Failpoint{Err: ErrDiskFull, Remaining: -1}},
	{"append:wal.log", Failpoint{Err: ErrInjected, Remaining: 1, ShortWrite: 3}},
	{"append:*", Failpoint{Err: ErrDiskFull, Remaining: -1}},
	{"sync:*", Failpoint{Err: ErrInjected, Remaining: 2}},
	{"truncate:wal.log", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"open:wal.log", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"read:wal.log", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"create:snapshot-*.tmp", Failpoint{Err: ErrDiskFull, Remaining: 1}},
	{"append:snapshot-*.tmp", Failpoint{Err: ErrDiskFull, Remaining: 2}},
	{"sync:snapshot-*.tmp", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"rename:snapshot.park", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"create:health-*.probe", Failpoint{Err: ErrInjected, Remaining: 2}},
	{"append:health-*.probe", Failpoint{Err: ErrInjected, Remaining: 1}},
	{"sync:health-*.probe", Failpoint{Err: ErrInjected, Remaining: 2}},
}

func TestRandomFaultRecovery(t *testing.T) {
	schedules := 25
	if testing.Short() {
		schedules = 5
	}
	baseSeed := defaultFaultSeed
	if v := os.Getenv("PARK_FAULT_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad PARK_FAULT_SEED %q", v)
		}
		baseSeed = n
		schedules = 1
	}
	if v := os.Getenv("PARK_FAULT_SCHEDULES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad PARK_FAULT_SCHEDULES %q", v)
		}
		schedules = n
	}
	t.Logf("fault harness: %d schedule(s), base seed %d; replay a failing schedule with PARK_FAULT_SEED=<seed>", schedules, baseSeed)

	for i := 0; i < schedules; i++ {
		seed := baseSeed + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runFaultSchedule(t, seed)
		})
	}
}

// runFaultSchedule executes one seeded schedule end to end.
func runFaultSchedule(t *testing.T, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := Open(dir, WithFS(ffs), WithProbeInterval(2*time.Millisecond))
	if err != nil {
		t.Fatalf("[seed %d] open: %v", seed, err)
	}
	defer s.Close()
	u := s.Universe()
	ctx := context.Background()

	// The subscription records the committed history in commit order;
	// the buffer exceeds the schedule's transaction count, so nothing
	// is ever dropped.
	events, cancelSub := s.Subscribe(4096)
	defer cancelSub()

	const writers = 4
	const opsPerWriter = 24

	// acked collects facts whose Apply returned success — the store
	// told the client they are durable.
	var ackedMu sync.Mutex
	var acked []string

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsPerWriter; op++ {
				// One argument, so the literal matches the store's own
				// atom rendering exactly.
				fact := fmt.Sprintf("f(w%dn%d)", w, op)
				err := s.ApplyUpdates(ctx, mustUpdates(t, u, "+"+fact+"."))
				if err == nil {
					ackedMu.Lock()
					acked = append(acked, fact)
					ackedMu.Unlock()
				}
				// Degraded-mode rejections, injected I/O errors and
				// closed-queue errors are all legitimate outcomes under
				// fault injection; the invariant is only that a nil
				// error means durable.
			}
		}(w)
	}

	// An occasional checkpointer exercises the snapshot callsites
	// concurrently with commits.
	ckDone := make(chan struct{})
	go func() {
		defer close(ckDone)
		for i := 0; i < 6; i++ {
			time.Sleep(3 * time.Millisecond)
			_ = s.Checkpoint()
		}
	}()

	// The injector arms random faults from the menu while the workload
	// runs, occasionally clearing everything so progress resumes.
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		localRnd := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 10; i++ {
			time.Sleep(time.Duration(localRnd.Intn(4)+1) * time.Millisecond)
			pick := faultMenu[localRnd.Intn(len(faultMenu))]
			ffs.SetFailpoint(pick.name, pick.fp)
			if localRnd.Intn(3) == 0 {
				time.Sleep(time.Duration(localRnd.Intn(3)+1) * time.Millisecond)
				ffs.ClearAll()
			}
		}
	}()

	wg.Wait()
	<-ckDone
	<-injDone

	// ---- Crash simulation ----------------------------------------
	// Under the commit lock (so no repair or checkpoint is mid-flight
	// and the copied pair is a point-in-time disk state), copy the
	// snapshot and a crash-cut of the WAL into a fresh directory. The
	// cut offset is drawn from [durable floor, size]: a real crash
	// can lose unsynced bytes but never synced ones.
	crashDir := t.TempDir()
	s.mu.Lock()
	snapData, snapErr := os.ReadFile(filepath.Join(dir, snapshotName))
	walData, walErr := os.ReadFile(filepath.Join(dir, walName))
	floor := ffs.SyncedSize("wal.log")
	s.mu.Unlock()
	if snapErr != nil && !errors.Is(snapErr, os.ErrNotExist) {
		t.Fatalf("[seed %d] read snapshot: %v", seed, snapErr)
	}
	if walErr != nil && !errors.Is(walErr, os.ErrNotExist) {
		t.Fatalf("[seed %d] read wal: %v", seed, walErr)
	}
	if floor > int64(len(walData)) {
		floor = int64(len(walData))
	}
	cut := floor
	if int64(len(walData)) > floor {
		cut = floor + rnd.Int63n(int64(len(walData))-floor+1)
	}
	if snapErr == nil {
		if err := os.WriteFile(filepath.Join(crashDir, snapshotName), snapData, 0o644); err != nil {
			t.Fatalf("[seed %d] %v", seed, err)
		}
	}
	if walErr == nil {
		if err := os.WriteFile(filepath.Join(crashDir, walName), walData[:cut], 0o644); err != nil {
			t.Fatalf("[seed %d] %v", seed, err)
		}
	}

	// ---- Heal the live store -------------------------------------
	ffs.ClearAll()
	deadline := time.Now().Add(10 * time.Second)
	for s.Health().Degraded && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h := s.Health(); h.Degraded {
		t.Fatalf("[seed %d] store unrecoverable after faults cleared: %+v", seed, h)
	}
	if err := s.ApplyUpdates(ctx, mustUpdates(t, u, "+healed(yes).")); err != nil {
		t.Fatalf("[seed %d] write after heal: %v", seed, err)
	}

	// Drain the committed history. Notifications are synchronous with
	// the install, so after the final ack everything is buffered.
	var history []TxnRecord
drain:
	for {
		select {
		case txn := <-events:
			history = append(history, txn)
		default:
			break drain
		}
	}
	factSeq := make(map[string]int)
	for i, txn := range history {
		if i > 0 && txn.Seq != history[i-1].Seq+1 {
			t.Fatalf("[seed %d] committed history has a gap: %d then %d", seed, history[i-1].Seq, txn.Seq)
		}
		for _, f := range txn.Added {
			factSeq[f] = txn.Seq
		}
		if len(txn.Removed) != 0 {
			t.Fatalf("[seed %d] unexpected removal in txn %d", seed, txn.Seq)
		}
	}

	// The live state must be exactly the fold of the whole history.
	liveWant := make(map[string]bool, len(factSeq))
	for f := range factSeq {
		liveWant[f] = true
	}
	checkStateEquals(t, seed, "live store", s, liveWant)

	// Every acked fact must be in the committed history.
	ackedMu.Lock()
	ackedFacts := append([]string(nil), acked...)
	ackedMu.Unlock()
	for _, f := range ackedFacts {
		if _, ok := factSeq[f]; !ok {
			t.Fatalf("[seed %d] acked fact %s missing from committed history", seed, f)
		}
	}

	// ---- Recover the crash copy ----------------------------------
	rec, _, err := RepairOpen(crashDir)
	if err != nil {
		t.Fatalf("[seed %d] recovery of crash copy failed: %v", seed, err)
	}
	defer rec.Close()
	recSeq := rec.Seq()

	// Prefix consistency: the recovered state is the fold of exactly
	// the first recSeq transactions.
	want := make(map[string]bool)
	for f, fs := range factSeq {
		if fs <= recSeq {
			want[f] = true
		}
	}
	checkStateEquals(t, seed, fmt.Sprintf("recovered store (seq %d, cut %d/%d floor %d)", recSeq, cut, len(walData), floor), rec, want)

	// Durability: every fact acked before the crash copy was taken is
	// at or below the recovered sequence.
	for _, f := range ackedFacts {
		if factSeq[f] > recSeq {
			t.Fatalf("[seed %d] acked fact %s (seq %d) lost: crash copy recovered only through seq %d (cut %d, floor %d)",
				seed, f, factSeq[f], recSeq, cut, floor)
		}
	}

	// ---- Follower convergence ------------------------------------
	fdir := t.TempDir()
	fst, err := Open(fdir)
	if err != nil {
		t.Fatalf("[seed %d] follower open: %v", seed, err)
	}
	defer fst.Close()
	cutView, err := rec.ReplicaCut(0, true, 16)
	if err != nil {
		t.Fatalf("[seed %d] replica cut: %v", seed, err)
	}
	defer cutView.Cancel()
	var facts []string
	ru := rec.Universe()
	ids := append([]core.AID(nil), cutView.Snapshot.Atoms()...)
	ru.SortAtoms(ids)
	for _, id := range ids {
		facts = append(facts, ru.AtomString(id))
	}
	if err := fst.ResetToSnapshot(cutView.BaseSeq, cutView.BaseEpoch, facts, cutView.Epoch); err != nil {
		t.Fatalf("[seed %d] follower bootstrap: %v", seed, err)
	}
	for _, txn := range cutView.History {
		// History may predate the serving leader's epoch; the leader's
		// own epoch authorizes the relay (as the stream layer does).
		if err := fst.ApplyReplicatedFrom(txn, cutView.Epoch); err != nil {
			t.Fatalf("[seed %d] follower apply txn %d: %v", seed, txn.Seq, err)
		}
	}
	if err := fst.SyncWAL(); err != nil {
		t.Fatalf("[seed %d] follower sync: %v", seed, err)
	}
	if fst.Seq() != rec.Seq() {
		t.Fatalf("[seed %d] follower at seq %d, recovered leader at %d", seed, fst.Seq(), rec.Seq())
	}
	if got, wantS := renderDB(fst.Universe(), fst.Snapshot()), renderDB(ru, rec.Snapshot()); got != wantS {
		t.Fatalf("[seed %d] follower diverged:\n  follower: {%s}\n  leader:   {%s}", seed, got, wantS)
	}
}

// checkStateEquals asserts the store's fact set is exactly want.
func checkStateEquals(t *testing.T, seed int64, label string, s *Store, want map[string]bool) {
	t.Helper()
	db := s.Snapshot()
	u := s.Universe()
	got := make(map[string]bool, db.Len())
	for _, id := range db.Atoms() {
		got[u.AtomString(id)] = true
	}
	for f := range want {
		if !got[f] {
			t.Fatalf("[seed %d] %s missing committed fact %s", seed, label, f)
		}
	}
	for f := range got {
		if !want[f] {
			t.Fatalf("[seed %d] %s has fact %s outside the committed prefix", seed, label, f)
		}
	}
}
