package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTransactionResponseIsTheDiff: for random update sets over a program
// with negation, events and conflicts, a transaction's added and removed
// lists are core.Diff of the database before and after it, rendered,
// and a no-op answers seq 0 with empty lists.
func TestTransactionResponseIsTheDiff(t *testing.T) {
	c, srv := newTestServer(t)
	ctx := context.Background()
	if _, err := c.SetProgram(ctx, `
		rule a: p(X), !q(X) -> +r(X).
		rule b: r(X), s(X) -> -p(X).
		rule c: q(X) -> -r(X).
		rule d: +p(X) -> +s(X).
	`, ""); err != nil {
		t.Fatal(err)
	}
	u := srv.store.Universe()
	rng := rand.New(rand.NewSource(7))
	commits, noops := 0, 0
	for i := 0; i < 200; i++ {
		var ups strings.Builder
		for n := 1 + rng.Intn(4); n > 0; n-- {
			fmt.Fprintf(&ups, "%c%c(c%d). ", "+-"[rng.Intn(2)], "pqrs"[rng.Intn(4)], rng.Intn(4))
		}
		before := srv.store.Snapshot()
		resp, err := c.Transact(ctx, ups.String())
		if err != nil {
			t.Fatalf("%s: %v", ups.String(), err)
		}
		var added, removed []string
		for _, up := range core.Diff(before, srv.store.Snapshot()) {
			if up.Op == core.OpInsert {
				added = append(added, u.AtomString(up.Atom))
			} else {
				removed = append(removed, u.AtomString(up.Atom))
			}
		}
		slices.Sort(added)
		slices.Sort(removed)
		gotAdded, gotRemoved := slices.Clone(resp.Added), slices.Clone(resp.Removed)
		slices.Sort(gotAdded)
		slices.Sort(gotRemoved)
		if !slices.Equal(gotAdded, added) || !slices.Equal(gotRemoved, removed) {
			t.Fatalf("%s: response +%v -%v, diff +%v -%v", ups.String(), resp.Added, resp.Removed, added, removed)
		}
		if resp.Added == nil || resp.Removed == nil {
			t.Fatalf("%s: a list decoded as null, want []", ups.String())
		}
		if len(added)+len(removed) == 0 {
			noops++
			if resp.Seq != 0 || resp.Epoch != 0 {
				t.Fatalf("%s: no-op answered seq %d epoch %d, want 0", ups.String(), resp.Seq, resp.Epoch)
			}
			continue
		}
		commits++
		if resp.Seq != srv.store.Seq() {
			t.Fatalf("%s: seq %d, store at %d", ups.String(), resp.Seq, srv.store.Seq())
		}
	}
	if commits == 0 || noops == 0 {
		t.Fatalf("%d commits and %d no-ops: the generator misses a case", commits, noops)
	}
}

// TestTransactionResponseShape pins the wire shape: the diff under the
// field names /v1/history uses, no database, and wallSeconds last.
func TestTransactionResponseShape(t *testing.T) {
	c, _ := newTestServer(t)
	post := func(updates string) string {
		resp, err := http.Post(c.BaseURL+"/v1/transaction", "application/json",
			strings.NewReader(fmt.Sprintf(`{"updates": %q}`, updates)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	shape := regexp.MustCompile(`^\{"seq":\d+,"epoch":\d+,"added":\[[^]]*\],"removed":\[[^]]*\],"phases":\d+,"restarts":\d+,"steps":\d+,"blocked":\d+,"wallSeconds":[^,]+\}\n$`)
	commit := post("+p(a). +q(b).")
	if !shape.MatchString(commit) || !strings.Contains(commit, `"seq":1,"epoch":0,"added":["p(a)","q(b)"],"removed":[]`) {
		t.Fatalf("commit answered %s", commit)
	}
	noop := post("+p(a).")
	if !shape.MatchString(noop) || !strings.Contains(noop, `"seq":0,"epoch":0,"added":[],"removed":[]`) {
		t.Fatalf("no-op answered %s", noop)
	}
}
