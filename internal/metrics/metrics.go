// Package metrics provides dependency-free process metrics for the
// PARK system: atomic counters, gauges and fixed-bucket latency
// histograms, organized in a Registry that can snapshot itself to a
// JSON-friendly structure or render the Prometheus text exposition
// format.
//
// The package exists so that the engine's Δ/ω machinery (phases,
// restarts, conflicts, Γ steps — §4/§5 of the paper) and the HTTP
// layer serving it can be observed in production without pulling in
// an external metrics dependency: everything here is standard
// library only, and every mutation is a single atomic operation, so
// instruments are safe to update from any goroutine.
//
// Usage:
//
//	reg := metrics.NewRegistry()
//	txns := reg.Counter("park_engine_transactions_total",
//	    "Transactions evaluated.")
//	lat := reg.Histogram("park_http_request_seconds",
//	    "Request latency.", metrics.DefBuckets,
//	    metrics.L("endpoint", "/v1/transaction"))
//	txns.Inc()
//	lat.Observe(0.004)
//	snap := reg.Snapshot()       // JSON-marshalable
//	reg.WritePrometheus(w)       // text exposition format
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bucket upper bounds,
// in seconds. They span 100µs to 10s, which covers everything from a
// trivial no-conflict transaction to a pathological restart storm.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Label is one name=value dimension attached to a metric child (for
// example endpoint="/v1/transaction").
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative increments are ignored (counters are
// monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations
// (typically seconds). Buckets are defined by their inclusive upper
// bounds; an implicit +Inf bucket catches the rest. All methods are
// safe for concurrent use.
type Histogram struct {
	bounds []float64       // sorted, strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric kinds, also used as the Prometheus TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family groups the children of one metric name (one per distinct
// label set).
type family struct {
	name    string
	help    string
	kind    string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // label key -> *Counter | *Gauge | *Histogram
	labels   map[string][]Label
}

// Registry holds a set of named metric families. The zero value is
// not usable; create registries with NewRegistry. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey serializes a label set into a canonical map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for _, l := range ls {
		sb.WriteString(l.Name)
		sb.WriteByte('\x00')
		sb.WriteString(l.Value)
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// getFamily returns the family for name, creating it on first use. It
// panics when name was already registered with a different kind —
// that is a programming error, like registering two flags with one
// name.
func (r *Registry) getFamily(name, help, kind string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind, buckets: buckets,
			children: make(map[string]any),
			labels:   make(map[string][]Label),
		}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// child returns the family child for the label set, creating it with
// mk on first use.
func (f *family) child(labels []Label, mk func() any) any {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.labels[key] = append([]Label(nil), labels...)
	}
	return c
}

// Counter returns (creating on first use) the counter with the given
// name and label set. The help string of the first registration
// wins.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, kindCounter, nil)
	return f.child(labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns (creating on first use) the gauge with the given name
// and label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, kindGauge, nil)
	return f.child(labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns (creating on first use) the histogram with the
// given name, bucket upper bounds and label set. The buckets of the
// first registration win; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.getFamily(name, help, kindHistogram, buckets)
	return f.child(labels, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Reset zeroes every registered metric value, keeping the
// registrations (names, labels, buckets) intact. Concurrent updates
// during a reset are not lost atomically as a set — each instrument
// resets independently — but no individual update is torn.
func (r *Registry) Reset() {
	for _, f := range r.snapshotFamilies() {
		f.mu.Lock()
		for _, c := range f.children {
			switch m := c.(type) {
			case *Counter:
				m.v.Store(0)
			case *Gauge:
				m.v.Store(0)
			case *Histogram:
				for i := range m.counts {
					m.counts[i].Store(0)
				}
				m.count.Store(0)
				m.sum.Store(0)
			}
		}
		f.mu.Unlock()
	}
}

// snapshotFamilies returns the families in registration order.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}

// MetricValue is one counter or gauge reading in a Snapshot.
type MetricValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// Bucket is one cumulative histogram bucket reading: the number of
// observations with value <= UpperBound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramValue is one histogram reading in a Snapshot. Buckets are
// cumulative over the finite upper bounds; Count is the total
// observation count (the implicit +Inf bucket).
type HistogramValue struct {
	Name    string   `json:"name"`
	Labels  []Label  `json:"labels,omitempty"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of every registered metric,
// suitable for JSON encoding. Entries are ordered by metric
// registration order, then by label set, so children of one family
// are always contiguous.
type Snapshot struct {
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot reads every metric. Values are read atomically per
// instrument (the snapshot as a whole is not a consistent cut, which
// is the usual contract for scrape-style metrics).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.snapshotFamilies() {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			labels := f.labels[k]
			switch m := f.children[k].(type) {
			case *Counter:
				snap.Counters = append(snap.Counters, MetricValue{Name: f.name, Labels: labels, Value: m.Value()})
			case *Gauge:
				snap.Gauges = append(snap.Gauges, MetricValue{Name: f.name, Labels: labels, Value: m.Value()})
			case *Histogram:
				hv := HistogramValue{Name: f.name, Labels: labels, Count: m.Count(), Sum: m.Sum()}
				cum := uint64(0)
				for i, b := range m.bounds {
					cum += m.counts[i].Load()
					hv.Buckets = append(hv.Buckets, Bucket{UpperBound: b, Count: cum})
				}
				snap.Histograms = append(snap.Histograms, hv)
			}
		}
		f.mu.Unlock()
	}
	return snap
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders {k="v",...} (empty string for no labels), with
// extra appended last.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a float the way Prometheus expects (no
// exponent surprises for the common cases).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE lines per family,
// then one sample line per child, with histograms expanded into
// cumulative _bucket{le=...}, _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	// Re-group the snapshot by family for HELP/TYPE headers.
	r.mu.Lock()
	help := make(map[string]string, len(r.families))
	kind := make(map[string]string, len(r.families))
	for name, f := range r.families {
		help[name] = f.help
		kind[name] = f.kind
	}
	r.mu.Unlock()

	var sb strings.Builder
	writeHeader := func(name string) {
		if h := help[name]; h != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", name, strings.ReplaceAll(h, "\n", " "))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", name, kind[name])
	}
	last := ""
	for _, mv := range snap.Counters {
		if mv.Name != last {
			writeHeader(mv.Name)
			last = mv.Name
		}
		fmt.Fprintf(&sb, "%s%s %d\n", mv.Name, promLabels(mv.Labels), mv.Value)
	}
	last = ""
	for _, mv := range snap.Gauges {
		if mv.Name != last {
			writeHeader(mv.Name)
			last = mv.Name
		}
		fmt.Fprintf(&sb, "%s%s %d\n", mv.Name, promLabels(mv.Labels), mv.Value)
	}
	last = ""
	for _, hv := range snap.Histograms {
		if hv.Name != last {
			writeHeader(hv.Name)
			last = hv.Name
		}
		for _, b := range hv.Buckets {
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", hv.Name,
				promLabels(hv.Labels, L("le", formatFloat(b.UpperBound))), b.Count)
		}
		fmt.Fprintf(&sb, "%s_bucket%s %d\n", hv.Name, promLabels(hv.Labels, L("le", "+Inf")), hv.Count)
		fmt.Fprintf(&sb, "%s_sum%s %s\n", hv.Name, promLabels(hv.Labels), formatFloat(hv.Sum))
		fmt.Fprintf(&sb, "%s_count%s %d\n", hv.Name, promLabels(hv.Labels), hv.Count)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
