// Active database end-to-end: this example runs the full system — a
// durable store (snapshot + write-ahead log), the HTTP server and its
// Go client — in one process, and drives an inventory scenario
// through it: rules react to order transactions, a conflict between a
// low-stock guard and a priority-customer rule is resolved by rule
// priority, and the state survives a simulated restart.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"repro/internal/persist"
	"repro/internal/server"
)

const rules = `
	% an order for an item in stock is accepted
	rule accept: +order(O, I), stock(I) -> +accepted(O).

	% accepted orders consume stock
	rule consume: accepted(O), order(O, I), stock(I) -> -stock(I).

	% low-stock guard (priority 1): items on the reorder list lose
	% their sellable flag
	rule guard priority 1: reorder(I), sellable(I) -> -sellable(I).

	% priority customers keep items sellable (priority 9)
	rule vip priority 9: vipwant(I) -> +sellable(I).
`

func main() {
	dir, err := os.MkdirTemp("", "parkdb-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- first "process": open store, serve, run transactions
	store, err := persist.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(store)
	ts := httptest.NewServer(srv.Handler())
	client := &server.Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := client.SetProgram(ctx, rules, "priority"); err != nil {
		log.Fatal(err)
	}

	// Seed inventory.
	if _, err := client.Transact(ctx, `
		+stock(widget). +stock(gadget).
		+sellable(widget). +sellable(gadget).
		+reorder(gadget). +vipwant(gadget).
	`); err != nil {
		log.Fatal(err)
	}

	// An order arrives.
	resp, err := client.Transact(ctx, `+order(o1, widget).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("order o1 committed as txn %d:\n", resp.Seq)
	printDelta(resp)
	for _, c := range resp.Conflicts {
		fmt.Printf("  conflict on %s -> %s (vip beats low-stock guard)\n", c.Atom, c.Decision)
	}

	// Query through the API.
	q, err := client.Query(ctx, `sellable(I)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sellable items:", q.Rows)

	// Checkpoint and "crash".
	if err := client.Checkpoint(ctx); err != nil {
		log.Fatal(err)
	}
	ts.Close()
	store.Close()

	// --- second "process": reopen the same directory
	store2, err := persist.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer store2.Close()
	fmt.Printf("\nafter restart: %d facts recovered from disk\n", store2.Len())
	srv2 := server.New(store2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := &server.Client{BaseURL: ts2.URL}
	if _, err := client2.SetProgram(ctx, rules, "priority"); err != nil {
		log.Fatal(err)
	}
	resp, err = client2.Transact(ctx, `+order(o2, gadget).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("order o2 committed as txn %d (post-restart):\n", resp.Seq)
	printDelta(resp)
	facts, err := client2.Database(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database now holds %d facts\n", len(facts))
}

// printDelta lists what a transaction changed: the response carries the
// delta, and GET /v1/database the whole database.
func printDelta(resp *server.TransactionResponse) {
	for _, f := range resp.Added {
		fmt.Println("   +", f)
	}
	for _, f := range resp.Removed {
		fmt.Println("   -", f)
	}
}
