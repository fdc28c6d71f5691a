package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/persist"
)

// newMetricsTestServer starts a server whose program conflicts on
// atom a whenever p holds: +p triggers both +q -> +a and p -> -a, so
// every such transaction resolves at least one conflict and restarts.
func newMetricsTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store)
	if err := srv.SetProgram("p -> +q.\np -> -a.\nq -> +a.\n"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, &Client{BaseURL: ts.URL}
}

// snapValue returns the summed value of all children of a counter or
// gauge family, and the subset matching the given labels.
func snapValue(snap *metrics.Snapshot, name string, want ...metrics.Label) (total, matched int64) {
	all := append(append([]metrics.MetricValue(nil), snap.Counters...), snap.Gauges...)
	for _, mv := range all {
		if mv.Name != name {
			continue
		}
		total += mv.Value
		has := func(l metrics.Label) bool {
			for _, got := range mv.Labels {
				if got == l {
					return true
				}
			}
			return false
		}
		ok := true
		for _, l := range want {
			if !has(l) {
				ok = false
				break
			}
		}
		if ok && len(want) > 0 {
			matched += mv.Value
		}
	}
	return total, matched
}

func TestMetricsJSONAfterConflictTransaction(t *testing.T) {
	_, c := newMetricsTestServer(t)
	ctx := context.Background()
	tx, err := c.Transact(ctx, "+p.")
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Conflicts) == 0 || tx.Restarts == 0 {
		t.Fatalf("fixture transaction did not conflict: %+v", tx)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{
		"park_engine_transactions_total",
		"park_engine_phases_total",
		"park_engine_restarts_total",
		"park_engine_groundings_total",
		"park_engine_derivations_total",
		"park_engine_new_facts_total",
	} {
		if total, _ := snapValue(snap, name); total == 0 {
			t.Errorf("%s = 0 after a conflicting transaction", name)
		}
	}
	if total, full := snapValue(snap, "park_engine_gamma_steps_total", metrics.L("kind", "full")); total == 0 || full == 0 {
		t.Errorf("gamma steps total=%d full=%d, want both nonzero", total, full)
	}
	if total, del := snapValue(snap, "park_engine_conflicts_total", metrics.L("decision", "delete")); total != 1 || del != 1 {
		t.Errorf("conflicts total=%d delete=%d, want 1/1 (inertia deletes a ∉ D)", total, del)
	}
	if _, txn := snapValue(snap, "park_http_requests_total",
		metrics.L("endpoint", "/v1/transaction"), metrics.L("code", "200")); txn != 1 {
		t.Errorf("/v1/transaction 200-count = %d, want 1", txn)
	}
	if total, _ := snapValue(snap, "park_store_facts"); total == 0 {
		t.Errorf("park_store_facts = 0, want facts after the transaction")
	}
	// The growth gauges: one committed transaction in the history tail
	// and in the WAL.
	for name, want := range map[string]func(int64) bool{
		"park_store_history_records": func(v int64) bool { return v == 1 },
		"park_store_history_bytes":   func(v int64) bool { return v > 0 },
		"park_store_wal_records":     func(v int64) bool { return v > 1 },
		"park_store_wal_bytes":       func(v int64) bool { return v > 0 },
	} {
		if v, _ := snapValue(snap, name); !want(v) {
			t.Errorf("%s = %d after one commit", name, v)
		}
	}

	// Per-endpoint latency histogram recorded the transaction.
	var reqHist *metrics.HistogramValue
	for i := range snap.Histograms {
		hv := &snap.Histograms[i]
		if hv.Name != "park_http_request_seconds" {
			continue
		}
		for _, l := range hv.Labels {
			if l == metrics.L("endpoint", "/v1/transaction") {
				reqHist = hv
			}
		}
	}
	if reqHist == nil || reqHist.Count != 1 {
		t.Fatalf("request histogram for /v1/transaction = %+v, want count 1", reqHist)
	}
	if len(reqHist.Buckets) != len(metrics.DefBuckets) {
		t.Fatalf("histogram buckets = %d, want %d", len(reqHist.Buckets), len(metrics.DefBuckets))
	}
	var runHist *metrics.HistogramValue
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "park_engine_run_seconds" {
			runHist = &snap.Histograms[i]
		}
	}
	if runHist == nil || runHist.Count != 1 {
		t.Fatalf("engine run histogram = %+v, want count 1", runHist)
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	_, c := newMetricsTestServer(t)
	ctx := context.Background()
	if _, err := c.Transact(ctx, "+p."); err != nil {
		t.Fatal(err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE park_engine_transactions_total counter",
		"park_engine_transactions_total 1",
		"# TYPE park_engine_conflicts_total counter",
		`park_engine_conflicts_total{decision="delete"} 1`,
		"# TYPE park_engine_restarts_total counter",
		"park_engine_restarts_total 1",
		`park_engine_gamma_steps_total{kind="full"}`,
		"# TYPE park_http_request_seconds histogram",
		`park_http_request_seconds_bucket{endpoint="/v1/transaction",le="+Inf"} 1`,
		`park_http_request_seconds_count{endpoint="/v1/transaction"} 1`,
		"# TYPE park_engine_run_seconds histogram",
		"park_engine_run_seconds_count 1",
		"# TYPE park_store_facts gauge",
		"# TYPE park_store_history_records gauge",
		"park_store_history_records 1",
		"# TYPE park_store_history_bytes gauge",
		"# TYPE park_store_wal_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

func TestMetricsAcceptHeaderAndBadFormat(t *testing.T) {
	ts, _ := newMetricsTestServer(t)
	req, err := http.NewRequest("GET", ts.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	viaAccept, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer viaAccept.Body.Close()
	if ct := viaAccept.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Accept: text/plain content type = %q", ct)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type = %q", ct)
	}
	bad, err := ts.Client().Get(ts.URL + "/v1/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("format=xml status = %d, want 400", bad.StatusCode)
	}
}

func TestMetricsRequestCounterOnErrors(t *testing.T) {
	_, c := newMetricsTestServer(t)
	ctx := context.Background()
	if _, err := c.TransactWith(ctx, TransactionRequest{Updates: "+p.", Strategy: "bogus"}); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The bogus strategy fails before Apply, so engine errors stay 0
	// but the 400 is visible in the request counter.
	if _, code400 := snapValue(snap, "park_http_requests_total",
		metrics.L("endpoint", "/v1/transaction"), metrics.L("code", "400")); code400 != 1 {
		t.Fatalf("transaction 400-count = %d, want 1", code400)
	}
}
