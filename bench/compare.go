package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runRecord is one line of a -record file: one run with what it ran on.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    int     `json:"trace"`
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	Result   *result `json:"result"`
}

func appendRecord(file string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(file, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(file string) ([]runRecord, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s: a record without a result", file)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// benchmarkDef is the part of BENCHMARK.json -compare needs.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict places the relative difference of two medians against the
// metric's bound and the noise of the two sets (the wider of their
// quartile spreads). A difference counts only when it clears both; a
// difference inside the bound is "same" only when the noise is inside
// it too, otherwise the runs cannot tell.
func verdict(diff, noise, bound float64, lowerIsBetter bool) string {
	switch {
	case math.Abs(diff) > math.Max(bound, noise):
		if (diff > 0) == lowerIsBetter {
			return "worse"
		}
		return "better"
	case noise > bound:
		return "unresolved"
	}
	return "same"
}

// compareFiles prints, per workload, every end-to-end metric of two
// sets of runs side by side, and checks the exact-repeat counts of the
// traced runs for equality. It fails when the second set is worse.
func compareFiles(out io.Writer, defFile, fileA, fileB string) error {
	raw, err := os.ReadFile(defFile)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", defFile, err)
	}
	a, err := readRecords(fileA)
	if err != nil {
		return err
	}
	b, err := readRecords(fileB)
	if err != nil {
		return err
	}
	values := func(recs []runRecord, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if mv, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				xs = append(xs, mv.Value)
			}
		}
		return xs
	}
	counts := map[string]int{}
	for _, w := range workloadNames {
		fmt.Fprintf(out, "== %s\n  %-16s %12s %12s %8s %7s %7s  %s\n", w, "metric", "A median", "B median", "diff", "noise", "bound", "verdict")
		for _, m := range def.EndToEnd {
			xa, xb := values(a, w, m.Name), values(b, w, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			sa, ma := spread(xa)
			sb, mb := spread(xb)
			diff := (mb - ma) / ma
			v := verdict(diff, math.Max(sa, sb), m.Bound, m.Better == "lower")
			counts[v]++
			fmt.Fprintf(out, "  %-16s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s (n=%d,%d %s)\n",
				m.Name, ma, mb, 100*diff, 100*math.Max(sa, sb), 100*m.Bound, v, len(xa), len(xb), m.Unit)
		}
	}
	mismatches := compareExact(out, append(a, b...))
	fmt.Fprintf(out, "summary: %d same, %d better, %d worse, %d unresolved; %d exact-repeat counts differ\n",
		counts["same"], counts["better"], counts["worse"], counts["unresolved"], mismatches)
	if counts["worse"] > 0 || mismatches > 0 {
		return fmt.Errorf("the second set is worse, or counts that must repeat do not")
	}
	return nil
}

// compareExact checks that every exact-repeat count has one value per
// (workload, seed, seconds) over all traced runs given.
func compareExact(out io.Writer, recs []runRecord) (mismatches int) {
	type key struct {
		workload string
		seed     int64
		seconds  int
		metric   string
	}
	seen := map[key][]float64{}
	for _, r := range recs {
		if r.Trace != 1 {
			continue
		}
		for _, d := range perLayer {
			if mv, ok := r.Result.Metrics[d.name]; ok && d.exact {
				k := key{r.Workload, r.Seed, r.Seconds, d.name}
				seen[k] = append(seen[k], mv.Value)
			}
		}
	}
	var bad []string
	compared := 0
	for k, xs := range seen {
		if len(xs) < 2 {
			continue
		}
		compared++
		for _, x := range xs[1:] {
			if x != xs[0] {
				bad = append(bad, fmt.Sprintf("  %s seed %d: %s is not the same in every run: %v", k.workload, k.seed, k.metric, xs))
				break
			}
		}
	}
	sort.Strings(bad)
	for _, line := range bad {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "exact-repeat counts: %d (workload, seed, count) triples seen in more than one traced run, %d differ\n", compared, len(bad))
	return len(bad)
}
