package main

import (
	"fmt"
	"math/rand"
	"strings"

	generators "repro/internal/workload"
)

type opKind uint8

const (
	opTxn opKind = iota
	opQuery
)

func (k opKind) String() string {
	if k == opTxn {
		return "txn"
	}
	return "query"
}

func (k opKind) path() string {
	if k == opTxn {
		return "/v1/transaction"
	}
	return "/v1/query"
}

// op is one generated request: an update set or a conjunctive query in
// rule-language syntax. rows is the answer size the model predicts for
// a query.
type op struct {
	kind opKind
	text string
	rows int
}

// workload is one stationary traffic mix. Every write toggles one key
// of a bounded pool, so |D| is flat once seeded; the model (one bool
// per key) is the oracle the final database is checked against.
type workload struct {
	name     string
	program  string
	strategy string
	// rate is the frozen open-loop rate of the paced stage, ops/s:
	// about half of peak_ops_s on the reference box (see README.md).
	rate float64
	// traceOps is the op count of one traced pass per second of
	// -seconds, sized so the three passes fill about two thirds of it.
	traceOps int
	warmup   int // warm-up ops, part of set-up
	pool     int // keys
	writePct int

	seed   []string // update sets that install D, in order
	write  func(k int, on bool) string
	query  func(rng *rand.Rand, k int, on bool) (text string, rows int)
	expect func(m *model) []string
}

var workloadNames = []string{"closure-maint", "payroll-point", "commit-small", "conflict-ladder"}

// model is the generator-side state of the pool. A key belongs to
// exactly one client (k mod clients), so concurrent clients never race
// on a key and the final state does not depend on how the server
// interleaved them.
type model struct {
	on   []bool
	ever []bool // was on at some point (commit-small's seen ⊇ inserted)
}

// initiallyOn gives every client's share of the pool a half-on start,
// which is also where random toggling keeps it.
func initiallyOn(k int) bool { return (k/2)%2 == 0 }

func newModel(pool int) *model {
	m := &model{on: make([]bool, pool), ever: make([]bool, pool)}
	for k := range m.on {
		m.on[k] = initiallyOn(k)
		m.ever[k] = m.on[k]
	}
	return m
}

// generator draws one client's op stream. The server sees only what
// next returns.
type generator struct {
	w               *workload
	m               *model
	rng             *rand.Rand
	client, clients int
}

func newGenerator(w *workload, m *model, seed int64, client, clients int) *generator {
	return &generator{w: w, m: m, rng: rand.New(rand.NewSource(seed*7919 + int64(client))), client: client, clients: clients}
}

func (g *generator) next() op {
	k := g.client + g.clients*g.rng.Intn(g.w.pool/g.clients)
	if g.rng.Intn(100) < g.w.writePct {
		g.m.on[k] = !g.m.on[k]
		if g.m.on[k] {
			g.m.ever[k] = true
		}
		return op{kind: opTxn, text: g.w.write(k, g.m.on[k])}
	}
	text, rows := g.w.query(g.rng, k, g.m.on[k])
	return op{kind: opQuery, text: text, rows: rows}
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "closure-maint":
		return closureMaint(), nil
	case "payroll-point":
		return payrollPoint(seed), nil
	case "commit-small":
		return commitSmall(), nil
	case "conflict-ladder":
		return conflictLadder(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// updates renders facts as one update set that applies sign to each.
func updates(sign string, facts []string) string {
	var sb strings.Builder
	for _, f := range facts {
		sb.WriteString(sign)
		sb.WriteString(f)
		sb.WriteString(". ")
	}
	return sb.String()
}

func boolRows(on bool) int {
	if on {
		return 1
	}
	return 0
}

// closureMaint keeps the transitive closure of a 32-node ring complete
// (1 024 tc facts) while writes add and remove one of 16 chords. The
// closure never changes, but every write pays a full Γ over it.
func closureMaint() *workload {
	const nodes, chords = 32, 16
	chord := func(k int) string { return fmt.Sprintf("edge(n%d, n%d)", 2*k, (2*k+9)%nodes) }
	var ring, start []string
	for i := 0; i < nodes; i++ {
		ring = append(ring, fmt.Sprintf("edge(n%d, n%d)", i, (i+1)%nodes))
	}
	for k := 0; k < chords; k++ {
		if initiallyOn(k) {
			start = append(start, chord(k))
		}
	}
	return &workload{
		name:     "closure-maint",
		program:  generators.TransitiveClosure(2, 0, 0).Program,
		strategy: "inertia",
		rate:     180, traceOps: 45, warmup: 64, pool: chords, writePct: 50,
		seed: []string{updates("+", ring), updates("+", start)},
		write: func(k int, on bool) string {
			if on {
				return "+" + chord(k) + "."
			}
			return "-" + chord(k) + "."
		},
		query: func(rng *rand.Rand, _ int, _ bool) (string, int) {
			return fmt.Sprintf("tc(n%d, X)", rng.Intn(nodes)), nodes
		},
		expect: func(m *model) []string {
			facts := append([]string(nil), ring...)
			for k, on := range m.on {
				if on {
					facts = append(facts, chord(k))
				}
			}
			for i := 0; i < nodes; i++ {
				for j := 0; j < nodes; j++ {
					facts = append(facts, fmt.Sprintf("tc(n%d, n%d)", i, j))
				}
			}
			return facts
		},
	}
}

// payrollPoint is the paper's §2 HR example at 1 000 employees. A
// write touches three groundings, so its cost is whatever is linear in
// |D|. The deact rule of workload.HRPayroll is left out to keep the
// program conflict-free; rehire undoes audit so the pool can toggle.
func payrollPoint(seed int64) *workload {
	const employees = 1000
	dept := make([]int, employees)
	salary := make([]int, employees)
	var hire, leave [][]string
	lines := strings.Split(strings.TrimSpace(generators.HRPayroll(employees, 1, seed).Database), "\n")
	for i, line := range lines {
		var e int
		if _, err := fmt.Sscanf(line, "emp(e%d). dept(e%d, d%d). active(e%d). payroll(e%d, s%d).",
			&e, &e, &dept[i], &e, &e, &salary[i]); err != nil {
			panic(fmt.Sprintf("workload.HRPayroll changed its database format: %q: %v", line, err))
		}
		if i%100 == 0 {
			hire, leave = append(hire, nil), append(leave, nil)
		}
		c := len(hire) - 1
		hire[c] = append(hire[c], strings.Split(strings.TrimSuffix(line, "."), ". ")...)
		if !initiallyOn(i) {
			leave[c] = append(leave[c], fmt.Sprintf("active(e%d)", i))
		}
	}
	var seedTxns []string
	for _, facts := range hire {
		seedTxns = append(seedTxns, updates("+", facts))
	}
	for _, facts := range leave {
		seedTxns = append(seedTxns, updates("-", facts))
	}
	return &workload{
		name: "payroll-point",
		program: `
			rule cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
			rule audit: -active(X), dept(X, D) -> +audit(X, D).
			rule rehire: +active(X), audit(X, D) -> -audit(X, D).
		`,
		strategy: "inertia",
		rate:     100, traceOps: 30, warmup: 100, pool: employees, writePct: 50,
		seed: seedTxns,
		write: func(k int, on bool) string {
			if on {
				return fmt.Sprintf("+active(e%d). +payroll(e%d, s%d).", k, k, salary[k])
			}
			return fmt.Sprintf("-active(e%d).", k)
		},
		query: func(_ *rand.Rand, k int, on bool) (string, int) {
			return fmt.Sprintf("payroll(e%d, S)", k), boolRows(on)
		},
		expect: func(m *model) []string {
			var facts []string
			for k, on := range m.on {
				facts = append(facts, fmt.Sprintf("emp(e%d)", k), fmt.Sprintf("dept(e%d, d%d)", k, dept[k]))
				if on {
					facts = append(facts, fmt.Sprintf("active(e%d)", k), fmt.Sprintf("payroll(e%d, s%d)", k, salary[k]))
				} else {
					facts = append(facts, fmt.Sprintf("audit(e%d, d%d)", k, dept[k]))
				}
			}
			return facts
		},
	}
}

// commitSmall has next to no engine work: one event rule and at most
// 400 facts. What it measures is the commit path and the server.
func commitSmall() *workload {
	const keys = 200
	var start []string
	for k := 0; k < keys; k++ {
		if initiallyOn(k) {
			start = append(start, fmt.Sprintf("item(k%d)", k))
		}
	}
	return &workload{
		name:     "commit-small",
		program:  "rule track: +item(K) -> +seen(K).",
		strategy: "inertia",
		rate:     1000, traceOps: 300, warmup: 200, pool: keys, writePct: 75,
		seed: []string{updates("+", start)},
		write: func(k int, on bool) string {
			if on {
				return fmt.Sprintf("+item(k%d).", k)
			}
			return fmt.Sprintf("-item(k%d).", k)
		},
		query: func(_ *rand.Rand, k int, on bool) (string, int) {
			return fmt.Sprintf("item(k%d)", k), boolRows(on)
		},
		expect: func(m *model) []string {
			var facts []string
			for k := range m.on {
				if m.on[k] {
					facts = append(facts, fmt.Sprintf("item(k%d)", k))
				}
				if m.ever[k] {
					facts = append(facts, fmt.Sprintf("seen(k%d)", k))
				}
			}
			return facts
		},
	}
}

// conflictLadder is the event-driven form of workload.ConflictLadder(8):
// a write climbs eight rungs and runs into one conflict on each, so it
// costs eight SELECT calls and nine phases. Insertion wins on odd
// rungs and deletion on even ones, so the c_i queries have both
// answers. The mark toggle makes every write change D and commit.
func conflictLadder() *workload {
	const keys, rungs = 64, 8
	var prog strings.Builder
	for i := 1; i <= rungs; i++ {
		fmt.Fprintf(&prog, "rule drive%d priority %d: +s%d(X) -> +s%d(X).\n", i, i, i-1, i)
		fmt.Fprintf(&prog, "rule ins%d priority %d: +s%d(X) -> +c%d(X).\n", i, 10+i%2, i, i)
		fmt.Fprintf(&prog, "rule del%d priority %d: +s%d(X) -> -c%d(X).\n", i, 11-i%2, i, i)
	}
	var start []string
	for k := 0; k < keys; k++ {
		start = append(start, fmt.Sprintf("s0(k%d)", k))
		if initiallyOn(k) {
			start = append(start, fmt.Sprintf("mark(k%d)", k))
		}
	}
	return &workload{
		name:     "conflict-ladder",
		program:  prog.String(),
		strategy: "priority",
		rate:     350, traceOps: 100, warmup: 64, pool: keys, writePct: 75,
		seed: []string{updates("+", start)},
		write: func(k int, on bool) string {
			if on {
				return fmt.Sprintf("+s0(k%d). +mark(k%d).", k, k)
			}
			return fmt.Sprintf("+s0(k%d). -mark(k%d).", k, k)
		},
		query: func(rng *rand.Rand, _ int, _ bool) (string, int) {
			i := 1 + rng.Intn(rungs)
			return fmt.Sprintf("c%d(X)", i), keys * (i % 2)
		},
		expect: func(m *model) []string {
			var facts []string
			for k, on := range m.on {
				for i := 0; i <= rungs; i++ {
					facts = append(facts, fmt.Sprintf("s%d(k%d)", i, k))
					if i%2 == 1 {
						facts = append(facts, fmt.Sprintf("c%d(k%d)", i, k))
					}
				}
				if on {
					facts = append(facts, fmt.Sprintf("mark(k%d)", k))
				}
			}
			return facts
		},
	}
}
