package persist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// historyModel is the untrimmed history a store's reads must equal: every
// committed record, in sequence order (all[i].Seq == i+1).
type historyModel struct{ all []TxnRecord }

// stateAt renders the database after sequence seq, replayed from empty.
func (m *historyModel) stateAt(seq int) string {
	db := map[string]bool{}
	for _, txn := range m.all[:seq] {
		for _, a := range txn.Added {
			db[a] = true
		}
		for _, a := range txn.Removed {
			delete(db, a)
		}
	}
	atoms := make([]string, 0, len(db))
	for a := range db {
		atoms = append(atoms, a)
	}
	sort.Strings(atoms)
	return strings.Join(atoms, ", ")
}

// since is the model's window from sequence from on, clamped to the
// window after the checkpoint at base.
func (m *historyModel) since(base, from int) []TxnRecord {
	return m.all[min(max(base, from-1), len(m.all)):]
}

// commitHistory commits n transactions, each adding one fact and removing
// the one added three commits before. Every tenth goes through ApplyTxn,
// whose returned record is what history must hold; the others arrive
// through ApplyReplicatedFrom, which skips the engine and the fsync. The
// commit at sequence wide adds more atom text than the tail may hold.
func commitHistory(t *testing.T, s *Store, m *historyModel, n, wide int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := s.Seq() + 1
		txn := TxnRecord{Seq: seq, Added: []string{fmt.Sprintf("p(k%d)", seq)}}
		if seq > 3 {
			txn.Removed = []string{fmt.Sprintf("p(k%d)", seq-3)}
		}
		if seq == wide {
			for k := 0; txnBytes(txn) <= historyTailBytes; k++ {
				txn.Added = append(txn.Added, fmt.Sprintf("wide(w%d, %s)", k, strings.Repeat("x", 60)))
			}
		}
		if seq%10 == 0 {
			var text strings.Builder
			for _, a := range txn.Added {
				fmt.Fprintf(&text, "+%s. ", a)
			}
			for _, a := range txn.Removed {
				fmt.Fprintf(&text, "-%s. ", a)
			}
			ups := mustUpdates(t, s.Universe(), text.String())
			_, got, err := s.ApplyTxn(context.Background(), &core.Program{}, ups, nil, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != seq || !slices.Equal(got.Added, txn.Added) || !slices.Equal(got.Removed, txn.Removed) {
				t.Fatalf("ApplyTxn returned %+v, want seq %d +%v -%v", got, seq, txn.Added, txn.Removed)
			}
			txn = got
		} else if err := s.ApplyReplicatedFrom(txn, 0); err != nil {
			t.Fatal(err)
		}
		m.all = append(m.all, txn)
	}
}

// sameHistory compares records by what the WAL keeps (trace IDs aside).
func sameHistory(got, want []TxnRecord) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Epoch != w.Epoch || !slices.Equal(g.Added, w.Added) || !slices.Equal(g.Removed, w.Removed) {
			return false
		}
	}
	return true
}

func seqsOf(hist []TxnRecord) string {
	if len(hist) == 0 {
		return "[]"
	}
	return fmt.Sprintf("[%d..%d] (%d records)", hist[0].Seq, hist[len(hist)-1].Seq, len(hist))
}

// checkHistoryReads holds History, StateAt and ReplicaCut to the model
// and the in-memory tail to its bounds.
func checkHistoryReads(t *testing.T, label string, s *Store, m *historyModel) {
	t.Helper()
	base, last := s.BaseSeq(), s.Seq()
	if last != len(m.all) {
		t.Fatalf("%s: store at seq %d, model at %d", label, last, len(m.all))
	}
	if g := s.Growth(); g.HistoryRecords > historyTailRecords || g.HistoryBytes > historyTailBytes {
		t.Fatalf("%s: tail holds %d records, %d bytes; bounds %d, %d", label, g.HistoryRecords, g.HistoryBytes, historyTailRecords, historyTailBytes)
	}
	if got, want := mustHistory(t, s), m.since(base, 0); !sameHistory(got, want) {
		t.Fatalf("%s: History() = %s, want %s", label, seqsOf(got), seqsOf(want))
	}
	for _, seq := range []int{base, base + 1, (base + last) / 2, last - 1, last} {
		if seq < base || seq > last {
			continue
		}
		db, err := s.StateAt(seq)
		if err != nil {
			t.Fatalf("%s: StateAt(%d): %v", label, seq, err)
		}
		if got, want := renderDB(s.Universe(), db), m.stateAt(seq); got != want {
			t.Fatalf("%s: StateAt(%d) = {%.80s...}, want {%.80s...}", label, seq, got, want)
		}
	}
	for _, from := range []int{0, base, base + 1, base + 2, (base + last) / 2, last, last + 1} {
		cut, err := s.ReplicaCut(from, from == 0, 4)
		if err != nil {
			t.Fatalf("%s: ReplicaCut(%d): %v", label, from, err)
		}
		cut.Cancel()
		if cut.BaseSeq != base || cut.Seq != last {
			t.Fatalf("%s: ReplicaCut(%d) window (%d, %d], want (%d, %d]", label, from, cut.BaseSeq, cut.Seq, base, last)
		}
		if want := m.since(base, from); !sameHistory(cut.History, want) {
			t.Fatalf("%s: ReplicaCut(%d).History = %s, want %s", label, from, seqsOf(cut.History), seqsOf(want))
		}
	}
}

// TestHistoryTailMatchesUntrimmed commits more transactions than the
// in-memory tail holds, one of them wider than the tail's byte bound, and
// checks every history read against the untrimmed history: before and
// after a checkpoint, and after a re-open replays the WAL.
func TestHistoryTailMatchesUntrimmed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &historyModel{}
	commitHistory(t, s, m, historyTailRecords+40, 25)
	checkHistoryReads(t, "before checkpoint", s, m)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkHistoryReads(t, "at checkpoint", s, m)
	commitHistory(t, s, m, historyTailRecords+12, 0)
	checkHistoryReads(t, "after checkpoint", s, m)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkHistoryReads(t, "after re-open", s, m)
	if g := s.Growth(); g.HistoryRecords != historyTailRecords || g.WALRecords == 0 || g.WALBytes == 0 {
		t.Fatalf("after re-open: growth %+v", g)
	}
}

// TestHistoryWALReadFault: a history read that cannot read the WAL
// fails with the error and leaves the store healthy and writable.
func TestHistoryWALReadFault(t *testing.T) {
	ffs := NewFaultFS(OSFS())
	s, err := Open(t.TempDir(), WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := &historyModel{}
	commitHistory(t, s, m, historyTailRecords+3, 0)
	reads := map[string]func() error{
		"History":       func() error { _, err := s.History(); return err },
		"StateAt":       func() error { _, err := s.StateAt(1); return err },
		"ReplicaCut(1)": func() error { _, err := s.ReplicaCut(1, false, 4); return err },
	}
	for name, read := range reads {
		ffs.FailOnce("read:wal.log", ErrInjected)
		if err := read(); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s with a WAL read fault: err = %v, want ErrInjected", name, err)
		}
		if h := s.Health(); h.Degraded {
			t.Fatalf("%s: a failed history read degraded the store: %+v", name, h)
		}
	}
	// Nothing leaked: the failed cut released its subscription and the
	// WAL gate, so commits, checkpoints and reads go on.
	commitHistory(t, s, m, 10, 0)
	checkHistoryReads(t, "after faults", s, m)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.subsMu.subs); n != 0 {
		t.Fatalf("%d subscriptions left behind", n)
	}
}

// TestHistoryReadsRaceCheckpoints runs WAL-backed history reads while
// commits and checkpoints go on: every read sees its window whole —
// dense from BaseSeq+1 to Seq, each record as committed — and never a
// WAL a checkpoint truncated under it.
func TestHistoryReadsRaceCheckpoints(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commitHistory(t, s, &historyModel{}, historyTailRecords+5, 0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 200; i++ {
			seq := s.Seq() + 1
			if err := s.ApplyReplicatedFrom(TxnRecord{Seq: seq, Added: []string{fmt.Sprintf("p(k%d)", seq)}}, 0); err != nil {
				t.Error(err)
				return
			}
			if i%40 == 39 {
				if err := s.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cut, err := s.ReplicaCut(0, false, 1)
				if err != nil {
					t.Error(err)
					return
				}
				cut.Cancel()
				if len(cut.History) != cut.Seq-cut.BaseSeq {
					t.Errorf("cut (%d, %d] holds %s", cut.BaseSeq, cut.Seq, seqsOf(cut.History))
					return
				}
				for i, txn := range cut.History {
					if txn.Seq != cut.BaseSeq+1+i || len(txn.Added) == 0 || txn.Added[0] != fmt.Sprintf("p(k%d)", txn.Seq) {
						t.Errorf("cut (%d, %d]: record %d is %+v", cut.BaseSeq, cut.Seq, i, txn)
						return
					}
				}
				if _, err := s.History(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
