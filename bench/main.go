// Command bench is the repository's benchmark: four stationary
// workloads driven against an in-process server.New over a real
// on-disk persist store, from one process with two keep-alive
// connections. See README.md for what each number means.
//
//	bash bench/run.sh --workload commit-small --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --record runs.jsonl
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated op sequence")
		seconds  = flag.Int("seconds", 20, "measured seconds per run; every stage length is a fixed share of it")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; -1: both")
		dir      = flag.String("dir", ".bench_build/stores", "directory the store directories are made in")
		record   = flag.String("record", "", "append every run's result to this JSON-lines file (input of -compare)")
		spans    = flag.String("spans", "", "write the traced run's spans to this JSON-lines file at exit")
		compare  = flag.Bool("compare", false, "compare two -record files given as arguments")
		benchDef = flag.String("benchmark", "BENCHMARK.json", "the file -compare takes the regression bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two -record files"))
		}
		if err := compareFiles(os.Stdout, *benchDef, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	modes := []int{*trace}
	if *trace < 0 {
		modes = []int{0, 1}
	}
	ok := true
	for _, n := range names {
		for _, mode := range modes {
			res, err := runOne(os.Stdout, n, *seed, *seconds, mode, *dir, *spans)
			if err != nil {
				fatal(err)
			}
			if *record != "" {
				if err := appendRecord(*record, runRecord{Workload: n, Seed: *seed, Seconds: *seconds, Trace: mode,
					NProc: runtime.NumCPU(), Go: runtime.Version(), Result: res}); err != nil {
					fatal(err)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in one mode in a store directory of its own
// and removes it afterwards.
func runOne(out io.Writer, name string, seed int64, seconds, mode int, dir, spansFile string) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	dir = filepath.Join(dir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "== %s  seed=%d seconds=%d trace=%d  nproc=%d %s  flush: one fsync per group commit (persist default)\n",
		name, seed, seconds, mode, runtime.NumCPU(), runtime.Version())
	p := planFor(w, seconds)
	if mode == 0 {
		return runEndToEnd(out, w, seed, p, dir)
	}
	return runTraced(out, w, seed, p, dir, spansFile)
}
