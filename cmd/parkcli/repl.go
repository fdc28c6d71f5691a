package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	park "repro"
)

// repl is an interactive session: rules, facts and updates are typed
// (or :load-ed) into a pending unit; :run evaluates PARK over the
// accumulated state and makes the result the new database.
type repl struct {
	in  *bufio.Scanner
	out io.Writer

	u        *park.Universe
	program  []string // rule sources, kept as text for re-parsing
	db       *park.Database
	updates  []park.Update
	strategy park.Strategy
	trace    bool
	last     *park.Result // most recent :run, for :why
}

// newReplForTest builds a repl over explicit streams (used by tests;
// cmdRepl wires os.Stdin/os.Stdout).
func newReplForTest(in io.Reader, out io.Writer) *repl {
	return &repl{
		in:       bufio.NewScanner(in),
		out:      out,
		u:        park.NewUniverse(),
		db:       park.NewDatabase(),
		strategy: park.Inertia(),
	}
}

func cmdRepl(args []string) error {
	fs := flag.NewFlagSet("repl", flag.ExitOnError)
	strategy := fs.String("strategy", "inertia", "conflict resolution strategy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	r := &repl{
		in:       bufio.NewScanner(os.Stdin),
		out:      os.Stdout,
		u:        park.NewUniverse(),
		db:       park.NewDatabase(),
		strategy: strat,
	}
	return r.loop()
}

func (r *repl) loop() error {
	fmt.Fprintln(r.out, "park repl — type rules/facts/updates, :help for commands")
	for {
		fmt.Fprint(r.out, "park> ")
		if !r.in.Scan() {
			fmt.Fprintln(r.out)
			return r.in.Err()
		}
		line := strings.TrimSpace(r.in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ":") {
			quit, err := r.command(line)
			if err != nil {
				fmt.Fprintf(r.out, "error: %v\n", err)
			}
			if quit {
				return nil
			}
			continue
		}
		if err := r.input(line); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
	}
}

// input parses one line of rules/facts/updates into the session.
func (r *repl) input(line string) error {
	unit, err := park.ParseUnit(r.u, "repl", line)
	if err != nil {
		return err
	}
	for i := range unit.Program.Rules {
		r.program = append(r.program, unit.Program.Rules[i].String(r.u)+".")
		fmt.Fprintf(r.out, "rule %d added\n", len(r.program))
	}
	for _, id := range unit.Database.Atoms() {
		if r.db.Add(id) {
			fmt.Fprintf(r.out, "fact %s added\n", r.u.AtomString(id))
		}
	}
	for _, up := range unit.Updates {
		r.updates = append(r.updates, up)
		fmt.Fprintf(r.out, "update %s%s pending\n", up.Op, r.u.AtomString(up.Atom))
	}
	return nil
}

func (r *repl) parseProgram() (*park.Program, error) {
	return park.ParseProgram(r.u, "repl", strings.Join(r.program, "\n"))
}

func (r *repl) command(line string) (quit bool, err error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":help":
		fmt.Fprintln(r.out, `commands:
  :run            evaluate PARK(P, D, U); the result becomes the new D
  :db             show the current database
  :rules          show the current program
  :updates        show pending updates
  :check          static analysis of the program
  :trace          toggle evaluation tracing
  :why ATOM       explain an atom of the last :run result
  :load FILE      load rules/facts/updates from a file
  :clear          drop program, database and updates
  :quit           leave`)
	case ":quit", ":q", ":exit":
		return true, nil
	case ":db":
		fmt.Fprintln(r.out, park.FormatDatabase(r.u, r.db))
	case ":rules":
		for i, src := range r.program {
			fmt.Fprintf(r.out, "%2d: %s\n", i+1, src)
		}
	case ":updates":
		fmt.Fprintln(r.out, park.FormatUpdates(r.u, r.updates))
	case ":trace":
		r.trace = !r.trace
		fmt.Fprintf(r.out, "trace %v\n", r.trace)
	case ":why":
		if len(fields) != 2 {
			return false, fmt.Errorf(":why needs a ground atom, e.g. :why q(a)")
		}
		if r.last == nil || r.last.Explainer == nil {
			return false, fmt.Errorf("no result to explain; :run first")
		}
		id, err := parseGroundAtom(r.u, fields[1])
		if err != nil {
			return false, err
		}
		fmt.Fprint(r.out, r.last.Explainer.Format(r.last.Explainer.Explain(id)))
	case ":clear":
		r.program = nil
		r.db = park.NewDatabase()
		r.updates = nil
		fmt.Fprintln(r.out, "cleared")
	case ":load":
		if len(fields) != 2 {
			return false, fmt.Errorf(":load needs a file name")
		}
		src, err := os.ReadFile(fields[1])
		if err != nil {
			return false, err
		}
		return false, r.input(string(src))
	case ":check":
		prog, err := r.parseProgram()
		if err != nil {
			return false, err
		}
		rep := park.Analyze(r.u, prog)
		if rep.ConflictFree() {
			fmt.Fprintln(r.out, "conflict potential: none")
		} else {
			names := make([]string, len(rep.ConflictPredicates))
			for i, s := range rep.ConflictPredicates {
				names[i] = r.u.Syms.Name(s)
			}
			fmt.Fprintf(r.out, "conflict potential: %s\n", strings.Join(names, ", "))
		}
		for _, wmsg := range rep.Warnings {
			fmt.Fprintf(r.out, "warning: %s\n", wmsg)
		}
	case ":run":
		prog, err := r.parseProgram()
		if err != nil {
			return false, err
		}
		opts := park.Options{Explain: true}
		if r.trace {
			opts.Tracer = &park.TextTracer{W: r.out, U: r.u, P: prog, Verbose: true}
		}
		eng, err := park.NewEngine(r.u, prog, r.strategy, opts)
		if err != nil {
			return false, err
		}
		res, err := eng.Run(context.Background(), r.db, r.updates)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(r.out, "result: %s\n", park.FormatDatabase(r.u, res.Output))
		fmt.Fprintf(r.out, "stats: phases=%d steps=%d conflicts=%d blocked=%d\n",
			res.RunStats.Phases, res.RunStats.Steps, res.RunStats.Conflicts, res.RunStats.BlockedInstances)
		r.db = res.Output
		r.updates = nil
		r.last = res
	default:
		return false, fmt.Errorf("unknown command %s (:help for help)", fields[0])
	}
	return false, nil
}
