// Monitoring: the paper's §5 names "databases that monitor critical
// systems (e.g. power plants)" as a natural home for active rules.
// This example runs a small plant-monitoring database: sensor
// readings arrive as transactions, rules raise and clear alarms
// (including an escalation cascade through event literals), and a
// watcher receives every committed change over the server's
// transaction stream — the notification half of an active DBMS.
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
	% a high reading raises an alarm, a normal one clears it
	rule raise priority 5: reading(S, high), monitored(S) -> +alarm(S).
	rule clear priority 1: reading(S, normal), alarm(S) -> -alarm(S).

	% raising an alarm on a critical sensor escalates (event literal)
	rule escalate: +alarm(S), critical(S) -> +page_operator(S).

	% clearing an alarm retracts the page
	rule depage: -alarm(S), page_operator(S) -> -page_operator(S).
`

func main() {
	dir, err := os.MkdirTemp("", "plant-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	srv := server.New(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &server.Client{BaseURL: ts.URL}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if _, err := client.SetProgram(ctx, rules, "priority"); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Transact(ctx, `
		+monitored(boiler). +monitored(turbine).
		+critical(boiler).
	`); err != nil {
		log.Fatal(err)
	}

	// The control-room watcher: every committed change streams in.
	events, err := client.Watch(ctx)
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for txn := range events {
			for _, f := range txn.Added {
				fmt.Printf("  [watch] txn %d: + %s\n", txn.Seq, f)
			}
			for _, f := range txn.Removed {
				fmt.Printf("  [watch] txn %d: - %s\n", txn.Seq, f)
			}
		}
	}()

	send := func(updates string) {
		fmt.Printf("sensors: %s\n", updates)
		resp, err := client.Transact(ctx, updates)
		if err != nil {
			log.Fatal(err)
		}
		// The response is the transaction's delta; the watcher sees
		// the same atoms arrive on the stream.
		fmt.Printf("  committed txn %d: %d added, %d removed\n", resp.Seq, len(resp.Added), len(resp.Removed))
		for _, c := range resp.Conflicts {
			fmt.Printf("  conflict on %s -> %s\n", c.Atom, c.Decision)
		}
	}

	// The boiler overheats: alarm + page (escalation cascade).
	send(`+reading(boiler, high).`)
	// The turbine also runs hot: alarm, but no page (not critical).
	send(`+reading(turbine, high).`)
	// The boiler recovers: both high and normal readings are present
	// now — raise (priority 5) and clear (priority 1) conflict on the
	// alarm, and rule priority keeps it up until the high reading is
	// retracted too.
	send(`+reading(boiler, normal).`)
	// Retract the high reading. Note the PARK validity rules: within
	// this very transaction the deleted base fact is still positively
	// valid (only its -mark is added), so raise still conflicts with
	// clear and the alarm survives one more transaction...
	send(`-reading(boiler, high).`)
	// ...and an empty follow-up transaction re-evaluates the rules
	// against the post-deletion state: clear wins unopposed, and the
	// -alarm event de-pages the operator.
	send(``)

	facts, err := client.Database(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal state:")
	for _, f := range facts {
		fmt.Println("  ", f)
	}
	cancel()
	<-done
}
