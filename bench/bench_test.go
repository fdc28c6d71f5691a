package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// smoke is a plan small enough for a test. Its numbers are not
// comparable with a real run's.
var smoke = plan{setups: 1, rounds: 2, peak: 150 * time.Millisecond, paced: 500 * time.Millisecond, passOps: 40, mini: 150 * time.Millisecond}

// One seed must give the same op sequence and the same exact-repeat
// counts every time, and another seed a different sequence that still
// passes every check.
func TestTracedRunRepeats(t *testing.T) {
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(seed int64) *traced {
				w, err := newWorkload(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := traceRun(w, seed, smoke, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for _, err := range tr.errs {
					t.Errorf("seed %d: %v", seed, err)
				}
				return tr
			}
			a, b, other := run(1), run(1), run(2)
			if a.opsSHA != b.opsSHA {
				t.Errorf("seed 1 gave two op sequences: %s and %s", a.opsSHA, b.opsSHA)
			}
			if a.opsSHA == other.opsSHA {
				t.Errorf("seeds 1 and 2 gave the same op sequence")
			}
			for _, d := range perLayer {
				va, ok := a.values[d.name]
				if !ok {
					t.Errorf("%s: not measured", d.name)
				}
				if d.exact && va != b.values[d.name] {
					t.Errorf("%s must repeat exactly for one seed: %v then %v", d.name, va, b.values[d.name])
				}
			}
			for _, line := range []budgetLine{a.txn, a.qry} {
				if line.residual != line.http-line.sum {
					t.Errorf("budget residual %v is not http %v minus sum %v", line.residual, line.http, line.sum)
				}
			}
		})
	}
}

func TestEndToEndSmoke(t *testing.T) {
	w, err := newWorkload("commit-small", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEndToEnd(io.Discard, w, 3, smoke, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, d := range endToEnd {
		if mv := res.Metrics[d.name]; mv.Value <= 0 || mv.Unit != d.unit {
			t.Errorf("%s = %v %s, want a positive number of %s", d.name, mv.Value, mv.Unit, d.unit)
		}
	}
}

// BENCHMARK.json and this program must name the same workloads and
// metrics: later issues quote names from the file and get numbers from
// the program.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit, Better string
		Bound              float64
	}
	var def struct {
		Paths     []string
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", def.Paths)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the program has %v", names, workloadNames)
	}
	check := func(kind string, listed []named, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d] is %s in %s, the program prints %s in %s", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd, true)
	check("per_layer", def.PerLayer, perLayer, false)
}
