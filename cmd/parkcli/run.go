package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	park "repro"
)

// parseStrategy builds a strategy from its CLI spelling.
func parseStrategy(spec string) (park.Strategy, error) {
	if inner, ok := strings.CutPrefix(spec, "protect+"); ok {
		s, err := parseStrategy(inner)
		if err != nil {
			return nil, err
		}
		return park.ProtectUpdates(s), nil
	}
	if seedStr, ok := strings.CutPrefix(spec, "random="); ok {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad random seed %q", seedStr)
		}
		return park.Random(seed), nil
	}
	switch spec {
	case "", "inertia":
		return park.Inertia(), nil
	case "priority":
		return park.Priority(park.Inertia()), nil
	case "specificity":
		return park.Specificity(), nil
	case "interactive":
		return park.Interactive(os.Stdin, os.Stderr), nil
	case "random":
		return park.Random(1), nil
	}
	return nil, fmt.Errorf("unknown strategy %q (want inertia, priority, specificity, interactive, random=<seed>, protect+<s>)", spec)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		programPath = fs.String("program", "", "program file (rule language)")
		triggerPath = fs.String("triggers", "", "program file (trigger DDL); alternative to -program")
		dbPath      = fs.String("db", "", "database file (required)")
		updPath     = fs.String("updates", "", "transaction updates file")
		strategy    = fs.String("strategy", "inertia", "conflict resolution strategy")
		trace       = fs.Bool("trace", false, "print evaluation trace")
		stats       = fs.Bool("stats", false, "print statistics")
		naive       = fs.Bool("naive", false, "disable semi-naive evaluation")
		noindex     = fs.Bool("noindex", false, "disable indexed matching")
		strict      = fs.Bool("strict", false, "paper-literal conflict definition")
		explain     = fs.String("explain", "", "explain a ground atom of the result, e.g. 'q(a)'")
		format      = fs.String("format", "text", "output format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*programPath == "") == (*triggerPath == "") || *dbPath == "" {
		return fmt.Errorf("run requires -db and exactly one of -program / -triggers")
	}
	u := park.NewUniverse()
	var prog *park.Program
	var err error
	if *programPath != "" {
		prog, err = loadProgram(u, *programPath)
	} else {
		var src []byte
		if src, err = os.ReadFile(*triggerPath); err == nil {
			prog, err = park.ParseTriggers(u, *triggerPath, string(src))
		}
	}
	if err != nil {
		return err
	}
	dbSrc, err := os.ReadFile(*dbPath)
	if err != nil {
		return err
	}
	db, err := park.ParseDatabase(u, *dbPath, string(dbSrc))
	if err != nil {
		return err
	}
	var ups []park.Update
	if *updPath != "" {
		src, err := os.ReadFile(*updPath)
		if err != nil {
			return err
		}
		if ups, err = park.ParseUpdates(u, *updPath, string(src)); err != nil {
			return err
		}
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	opts := park.Options{
		Naive:           *naive,
		NoIndex:         *noindex,
		StrictConflicts: *strict,
		Explain:         *explain != "",
	}
	if *trace {
		opts.Tracer = &park.TextTracer{W: os.Stderr, U: u, P: prog, Verbose: true}
	}
	eng, err := park.NewEngine(u, prog, strat, opts)
	if err != nil {
		return err
	}
	res, err := eng.Run(context.Background(), db, ups)
	if err != nil {
		return err
	}
	switch *format {
	case "", "text":
		printResult(u, res, *stats)
	case "json":
		if err := printResultJSON(u, res); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	if *explain != "" {
		if err := printExplanation(u, res, *explain); err != nil {
			return err
		}
	}
	return nil
}

// printExplanation parses an atom in rule-language syntax and prints
// its derivation tree from the run's explainer.
func printExplanation(u *park.Universe, res *park.Result, atomText string) error {
	id, err := parseGroundAtom(u, atomText)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "explanation:")
	fmt.Fprint(os.Stderr, res.Explainer.Format(res.Explainer.Explain(id)))
	return nil
}

// parseGroundAtom interns a ground atom written in rule-language
// syntax ("q(a, b)" or "flag").
func parseGroundAtom(u *park.Universe, text string) (park.AID, error) {
	db, err := park.ParseDatabase(u, "atom", text+".")
	if err != nil {
		return -1, fmt.Errorf("bad atom %q: %w", text, err)
	}
	if db.Len() != 1 {
		return -1, fmt.Errorf("%q is not a single ground atom", text)
	}
	return db.Atoms()[0], nil
}

// runJSON is the -format json shape of a run result. Stats carries
// the RunStats (phases, steps, conflicts, Γ-step split, groundings,
// SELECT outcomes, per-phase wall time).
type runJSON struct {
	Facts     []string       `json:"facts"`
	Stats     park.RunStats  `json:"stats"`
	Conflicts []conflictJSON `json:"conflicts,omitempty"`
}

type conflictJSON struct {
	Atom     string `json:"atom"`
	Decision string `json:"decision"`
}

func printResultJSON(u *park.Universe, res *park.Result) error {
	ids := append([]park.AID(nil), res.Output.Atoms()...)
	u.SortAtoms(ids)
	out := runJSON{Stats: res.RunStats, Facts: make([]string, len(ids))}
	for i, id := range ids {
		out.Facts[i] = u.AtomString(id)
	}
	for _, rc := range res.Conflicts {
		out.Conflicts = append(out.Conflicts, conflictJSON{
			Atom:     u.AtomString(rc.Conflict.Atom),
			Decision: rc.Decision.String(),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func loadProgram(u *park.Universe, path string) (*park.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return park.ParseProgram(u, path, string(src))
}

func printResult(u *park.Universe, res *park.Result, stats bool) {
	ids := append([]park.AID(nil), res.Output.Atoms()...)
	u.SortAtoms(ids)
	for _, id := range ids {
		fmt.Printf("%s.\n", u.AtomString(id))
	}
	if stats {
		rs := res.RunStats
		fmt.Fprintf(os.Stderr, "phases=%d steps=%d conflicts=%d stale=%d blocked=%d derivations=%d new-facts=%d\n",
			rs.Phases, rs.Steps, rs.Conflicts, rs.StaleConflicts,
			rs.BlockedInstances, rs.Derivations, rs.NewFacts)
		fmt.Fprintf(os.Stderr, "restarts=%d gamma-full=%d gamma-delta=%d groundings=%d select-insert=%d select-delete=%d wall=%v\n",
			rs.Restarts, rs.FullSteps, rs.DeltaSteps, rs.Groundings,
			rs.InsertDecisions, rs.DeleteDecisions, rs.Wall.Round(time.Microsecond))
	}
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file (required)")
	q := fs.String("q", "", "conjunctive query (required)")
	format := fs.String("format", "text", "output format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *q == "" {
		return fmt.Errorf("query requires -db and -q")
	}
	u := park.NewUniverse()
	src, err := os.ReadFile(*dbPath)
	if err != nil {
		return err
	}
	db, err := park.ParseDatabase(u, *dbPath, string(src))
	if err != nil {
		return err
	}
	res, err := park.Query(u, db, *q)
	if err != nil {
		return err
	}
	switch *format {
	case "", "text":
		fmt.Println(res)
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	programPath := fs.String("program", "", "program file (rule language)")
	triggerPath := fs.String("triggers", "", "program file (trigger DDL)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*programPath == "") == (*triggerPath == "") {
		return fmt.Errorf("check requires exactly one of -program / -triggers")
	}
	u := park.NewUniverse()
	var prog *park.Program
	var err error
	if *programPath != "" {
		prog, err = loadProgram(u, *programPath)
	} else {
		var src []byte
		if src, err = os.ReadFile(*triggerPath); err == nil {
			prog, err = park.ParseTriggers(u, *triggerPath, string(src))
		}
	}
	if err != nil {
		return err
	}
	rep := park.Analyze(u, prog)
	fmt.Printf("rules: %d\n", len(prog.Rules))
	if rep.ConflictFree() {
		fmt.Println("conflict potential: none (PARK coincides with the inflationary fixpoint)")
	} else {
		names := make([]string, len(rep.ConflictPredicates))
		for i, s := range rep.ConflictPredicates {
			names[i] = u.Syms.Name(s)
		}
		fmt.Printf("conflict potential: %s\n", strings.Join(names, ", "))
	}
	for _, pair := range rep.Pairs {
		fmt.Printf("conflict pair: %s (insert) vs %s (delete) on %s\n",
			prog.RuleLabel(pair.Insert), prog.RuleLabel(pair.Delete), pair.Example)
	}
	fmt.Printf("recursive: %v\n", rep.Recursive)
	fmt.Printf("uses events: %v\n", rep.UsesEvents)
	if rep.Stratified {
		fmt.Printf("stratified: yes (%d strata)\n", len(rep.Strata))
	} else {
		fmt.Println("stratified: no (recursion through negation)")
	}
	for _, wmsg := range rep.Warnings {
		fmt.Printf("warning: %s\n", wmsg)
	}
	return nil
}
