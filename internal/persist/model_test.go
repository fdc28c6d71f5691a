package persist

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// Model-based test: random sequences of transactions, checkpoints and
// reopens must keep the store equal to a trivial in-memory model of
// applied updates.
func TestStoreAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()

			model := map[string]bool{}
			atoms := []string{"p(a)", "p(b)", "q(a, b)", "q(b, a)", "flag", "r(c)"}
			ctx := context.Background()

			for step := 0; step < 60; step++ {
				switch rng.Intn(10) {
				case 0: // checkpoint
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case 1: // reopen (simulated restart)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s, err = Open(dir)
					if err != nil {
						t.Fatal(err)
					}
				default: // transaction with 1-3 random updates
					n := 1 + rng.Intn(3)
					var ups []core.Update
					applied := map[string]bool{}
					for k := 0; k < n; k++ {
						atom := atoms[rng.Intn(len(atoms))]
						ins := rng.Intn(2) == 0
						op := "-"
						if ins {
							op = "+"
						}
						ups = append(ups, mustUpdates(t, s.Universe(), op+atom+".")...)
						// Model semantics for conflicting updates in
						// one transaction: inertia keeps the pre-state;
						// same-direction duplicates are idempotent.
						if prev, dup := applied[atom]; dup {
							if prev != ins {
								// conflict: revert to pre-transaction
								// status; mark so later updates in this
								// txn still apply... PARK resolves all
								// update conflicts against D, so the
								// pair cancels entirely.
								applied[atom] = ins
								continue
							}
							continue
						}
						applied[atom] = ins
					}
					// Re-derive the transaction's effect the way PARK
					// does: an atom with both +u and -u keeps its
					// database status (inertia); otherwise the update
					// applies.
					plus := map[string]bool{}
					minus := map[string]bool{}
					for _, up := range ups {
						text := s.Universe().AtomString(up.Atom)
						if up.Op == core.OpInsert {
							plus[text] = true
						} else {
							minus[text] = true
						}
					}
					if err := s.ApplyUpdates(ctx, ups); err != nil {
						t.Fatal(err)
					}
					for atom := range plus {
						if !minus[atom] {
							model[atom] = true
						}
					}
					for atom := range minus {
						if !plus[atom] {
							delete(model, atom)
						}
					}
				}
				// Compare store and model.
				got := map[string]bool{}
				u := s.Universe()
				for _, id := range s.Snapshot().Atoms() {
					got[u.AtomString(id)] = true
				}
				for atom := range model {
					if !got[atom] {
						t.Fatalf("step %d: model has %s, store does not", step, atom)
					}
				}
				for atom := range got {
					if !model[atom] {
						t.Fatalf("step %d: store has %s, model does not", step, atom)
					}
				}
			}
		})
	}
}

// TestCrashDuringGroupCommit simulates a crash at every byte offset
// of a WAL written by concurrent committers sharing fsyncs: recovery
// must land exactly on a committed-transaction boundary — each
// transaction is recovered entirely or not at all, even when several
// transactions shared one group-commit fsync and the torn tail cuts a
// batch in half.
func TestCrashDuringGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := s.Universe()
	ctx := context.Background()

	// Concurrent committers so the WAL really is written through the
	// group-commit path (batches of >1 when the scheduler cooperates).
	const writers = 6
	const txnsPerWriter = 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPerWriter; i++ {
				// Each transaction adds one atom and removes the
				// writer's previous one, so the WAL carries both '+'
				// and '-' records inside group-commit batches.
				src := fmt.Sprintf("+t(w%d, i%d).", w, i)
				if i > 0 {
					src += fmt.Sprintf(" -t(w%d, i%d).", w, i-1)
				}
				if err := s.ApplyUpdates(ctx, mustUpdates(t, u, src)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("committer failed")
	}
	// The commit order on disk is the history order.
	hist := mustHistory(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}

	// expected[k] renders the state after the first k transactions.
	expected := make([]string, len(hist)+1)
	model := map[string]bool{}
	render := func() string {
		var atoms []string
		for a := range model {
			atoms = append(atoms, a)
		}
		sort.Strings(atoms)
		return strings.Join(atoms, ", ")
	}
	expected[0] = render()
	for k, txn := range hist {
		for _, a := range txn.Added {
			model[a] = true
		}
		for _, a := range txn.Removed {
			delete(model, a)
		}
		expected[k+1] = render()
	}

	// commitEnds[k] is the byte offset just past the k-th commit
	// marker: the recovery points.
	var commitEnds []int64
	off := int64(0)
	for int(off)+recordHeader <= len(wal) {
		length := int64(binary.LittleEndian.Uint32(wal[off:]))
		payload := wal[off+recordHeader : off+recordHeader+length]
		off += recordHeader + length
		if _, _, ok := commitMarker(payload); ok {
			commitEnds = append(commitEnds, off)
		}
	}
	if len(commitEnds) != len(hist) {
		t.Fatalf("WAL has %d commit markers, history has %d entries", len(commitEnds), len(hist))
	}

	// Crash at every byte offset (torn tail of arbitrary length).
	for cut := int64(0); cut <= int64(len(wal)); cut++ {
		// The longest committed prefix entirely below the cut.
		k := sort.Search(len(commitEnds), func(i int) bool { return commitEnds[i] > cut })
		crashDir := t.TempDir()
		snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err == nil {
			if werr := os.WriteFile(filepath.Join(crashDir, snapshotName), snap, 0o644); werr != nil {
				t.Fatal(werr)
			}
		}
		if err := os.WriteFile(filepath.Join(crashDir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(crashDir)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		got := renderDB(rec.Universe(), rec.Snapshot())
		if got != expected[k] {
			t.Fatalf("cut %d: recovered {%s}, want first %d txns {%s}", cut, got, k, expected[k])
		}
		recHist := mustHistory(t, rec)
		if len(recHist) != k {
			t.Fatalf("cut %d: recovered %d history entries, want %d", cut, len(recHist), k)
		}
		for i, txn := range recHist {
			if txn.Seq != hist[i].Seq {
				t.Fatalf("cut %d: history[%d].Seq = %d, want %d", cut, i, txn.Seq, hist[i].Seq)
			}
		}
		rec.Close()
	}
}

// Consistency: a transaction through the store equals a direct engine
// run over the store's snapshot.
func TestApplyMatchesDirectEngine(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		u := s.Universe()
		ctx := context.Background()
		if err := s.ApplyUpdates(ctx, mustUpdates(t, u, `+p0(k0). +p1(k1). +p2(k0).`)); err != nil {
			t.Fatal(err)
		}
		progSrc := fmt.Sprintf("rule r0: p0(X) -> +p%d(X).\nrule r1: p1(X) -> -p%d(X).\n", seed%3, (seed+1)%3)
		prog := mustProgram(t, u, progSrc)
		ups := mustUpdates(t, u, `+p0(k1).`)

		before := s.Snapshot()
		eng, err := core.NewEngine(u, prog, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := eng.Run(ctx, before, ups)
		if err != nil {
			t.Fatal(err)
		}
		viaStore, err := s.Apply(ctx, prog, ups, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if renderDB(u, direct.Output) != renderDB(u, viaStore.Output) {
			t.Fatalf("seed %d: direct {%s} != store {%s}", seed,
				renderDB(u, direct.Output), renderDB(u, viaStore.Output))
		}
		if renderDB(u, s.Snapshot()) != renderDB(u, direct.Output) {
			t.Fatalf("seed %d: installed state diverges", seed)
		}
		s.Close()
	}
}
