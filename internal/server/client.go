package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/flight"
	"repro/internal/metrics"
)

// Client is a Go client for the HTTP API.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:7474".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, req, resp any) error {
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	httpReq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if req != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", e.Error, httpResp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d", httpResp.StatusCode)
	}
	if resp != nil {
		return json.Unmarshal(data, resp)
	}
	return nil
}

// SetProgram installs the active rule program (and optionally the
// default strategy tag).
func (c *Client) SetProgram(ctx context.Context, source, strategy string) (*ProgramResponse, error) {
	return c.SetProgramWith(ctx, ProgramRequest{Source: source, Strategy: strategy})
}

// SetProgramWith installs a program with explicit options (e.g.
// Format: "triggers" for the CREATE TRIGGER DDL).
func (c *Client) SetProgramWith(ctx context.Context, req ProgramRequest) (*ProgramResponse, error) {
	var resp ProgramResponse
	if err := c.do(ctx, http.MethodPut, "/v1/program", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Program fetches the active program.
func (c *Client) Program(ctx context.Context) (*ProgramResponse, error) {
	var resp ProgramResponse
	if err := c.do(ctx, http.MethodGet, "/v1/program", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Transact applies an update set through the active rules. The
// response is the transaction's diff — the facts it added and removed,
// its sequence and epoch — and the run's statistics, not the database:
// call Database for that.
func (c *Client) Transact(ctx context.Context, updates string) (*TransactionResponse, error) {
	return c.TransactWith(ctx, TransactionRequest{Updates: updates})
}

// TransactWith applies an update set with explicit options; the
// response is the diff, as for Transact.
func (c *Client) TransactWith(ctx context.Context, req TransactionRequest) (*TransactionResponse, error) {
	var resp TransactionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/transaction", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Database lists the current facts, sorted.
func (c *Client) Database(ctx context.Context) ([]string, error) {
	var resp DatabaseResponse
	if err := c.do(ctx, http.MethodGet, "/v1/database", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Facts, nil
}

// Query runs a conjunctive query.
func (c *Client) Query(ctx context.Context, query string) (*QueryResponse, error) {
	var resp QueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", QueryRequest{Query: query}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Analyze runs static analysis on the active program.
func (c *Client) Analyze(ctx context.Context) (*AnalyzeResponse, error) {
	var resp AnalyzeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/analyze", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// History lists committed transactions since the last checkpoint.
func (c *Client) History(ctx context.Context) ([]TxnInfo, error) {
	var resp HistoryResponse
	if err := c.do(ctx, http.MethodGet, "/v1/history", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Transactions, nil
}

// DatabaseAt lists the facts as of transaction seq (0 = last
// checkpoint).
func (c *Client) DatabaseAt(ctx context.Context, seq int) ([]string, error) {
	var resp DatabaseResponse
	if err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/database?at=%d", seq), nil, &resp); err != nil {
		return nil, err
	}
	return resp.Facts, nil
}

// Watch subscribes to committed transactions via the server's SSE
// stream. Events arrive on the returned channel until ctx is
// cancelled or the connection drops, after which the channel closes.
// Slow consumers may miss events; use History for a complete log.
func (c *Client) Watch(ctx context.Context) (<-chan TxnInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/watch", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	out := make(chan TxnInfo, 16)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var txn TxnInfo
			if err := json.Unmarshal([]byte(line[len("data: "):]), &txn); err != nil {
				return
			}
			select {
			case out <- txn:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// RecentTxns lists the flight recorder's recent-trace window.
func (c *Client) RecentTxns(ctx context.Context) (*TxnsResponse, error) {
	var resp TxnsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/txns", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SlowTxns lists the retained traces that met the slow threshold.
func (c *Client) SlowTxns(ctx context.Context) (*TxnsResponse, error) {
	var resp TxnsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/txns/slow", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TxnTrace fetches the full flight trace of one transaction.
func (c *Client) TxnTrace(ctx context.Context, seq int) (*flight.Trace, error) {
	var resp flight.Trace
	if err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/txns/%d/trace", seq), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TxnTraceText fetches one transaction's trace in the paper-style
// text rendering.
func (c *Client) TxnTraceText(ctx context.Context, seq int) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/txns/%d/trace?format=text", c.BaseURL, seq), nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return "", fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return "", fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	return string(data), nil
}

// CreateTimer registers an interval event source: every req.Every the
// server applies the (possibly ${n}-templated) update set through the
// active rules. Leader only; replicas answer 421.
func (c *Client) CreateTimer(ctx context.Context, req TimerRequest) (*TimerInfo, error) {
	var resp TimerInfo
	if err := c.do(ctx, http.MethodPost, "/v1/timers", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Timers lists the registered timers and their firing stats.
func (c *Client) Timers(ctx context.Context) ([]TimerInfo, error) {
	var resp TimersResponse
	if err := c.do(ctx, http.MethodGet, "/v1/timers", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Timers, nil
}

// DeleteTimer stops and removes a timer, returning its final stats.
func (c *Client) DeleteTimer(ctx context.Context, name string) (*TimerInfo, error) {
	var resp TimerInfo
	if err := c.do(ctx, http.MethodDelete, "/v1/timers/"+name, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Version fetches the server's build provenance and uptime.
func (c *Client) Version(ctx context.Context) (*VersionResponse, error) {
	var resp VersionResponse
	if err := c.do(ctx, http.MethodGet, "/v1/version", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz fetches /v1/healthz. The endpoint answers 503 while the
// store is degraded (and the body says why), so unlike the other
// calls the response is returned whenever a body decodes, regardless
// of the HTTP status. Cluster clients use the Cluster section to
// re-discover the leader after a failover.
func (c *Client) Healthz(ctx context.Context) (*HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var resp HealthResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("server: healthz: HTTP %d: %w", httpResp.StatusCode, err)
	}
	return &resp, nil
}

// Events fetches the structured event journal: entries with sequence
// number > since, optionally filtered by type, at most limit entries
// (0 = no bound). Pass the response's LastSeq back as since to poll
// incrementally.
func (c *Client) Events(ctx context.Context, since int64, types []string, limit int) (*EventsResponse, error) {
	q := url.Values{}
	if since > 0 {
		q.Set("since", strconv.FormatInt(since, 10))
	}
	if len(types) > 0 {
		q.Set("type", strings.Join(types, ","))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/events"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var resp EventsResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RuleStats fetches the per-rule profile, ranked by cumulative match
// cost.
func (c *Client) RuleStats(ctx context.Context) (*RuleStatsResponse, error) {
	var resp RuleStatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/rules/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ClusterStatus fetches this member's aggregated view of the replica
// set (/v1/cluster).
func (c *Client) ClusterStatus(ctx context.Context) (*ClusterResponse, error) {
	var resp ClusterResponse
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Checkpoint snapshots the store.
func (c *Client) Checkpoint(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/checkpoint", nil, nil)
}

// Metrics fetches the server's metrics snapshot (JSON form of
// /v1/metrics).
func (c *Client) Metrics(ctx context.Context) (*metrics.Snapshot, error) {
	var resp metrics.Snapshot
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// MetricsText fetches the server's metrics in the Prometheus text
// exposition format.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics?format=prometheus", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	return string(data), nil
}
