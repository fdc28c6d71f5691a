package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/load"
	"repro/internal/persist"
	"repro/internal/server"
)

// clients is both the number of generator goroutines and the number of
// keep-alive connections: the reference box has two cores, and a
// generator with more threads than that would measure itself.
const clients = 2

// opTimeout is when an unanswered op is given up and counted as failed.
const opTimeout = 5 * time.Second

// target delivers one request to the server under test. The returned
// body is only valid until the next call.
type target interface {
	do(method, path string, body []byte) (status int, resp []byte, err error)
}

// httpTarget is one keep-alive connection over the loopback socket.
type httpTarget struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{base: base, hc: &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (t *httpTarget) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	t.buf.Reset()
	_, err = t.buf.ReadFrom(resp.Body)
	return resp.StatusCode, t.buf.Bytes(), err
}

// handlerTarget calls the server's handler without a socket.
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) do(method, path string, body []byte) (int, []byte, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes(), nil
}

func (o op) body() []byte {
	var v any = server.QueryRequest{Query: o.text}
	if o.kind == opTxn {
		v = server.TransactionRequest{Updates: o.text}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // two string fields cannot fail to marshal
	}
	return b
}

// send runs one generated op and checks the answer: 200, and for a
// query the number of rows the model predicts. It returns the response
// body, valid until t's next call.
func send(t target, o op) ([]byte, error) {
	status, resp, err := t.do("POST", o.kind.path(), o.body())
	if err != nil {
		return nil, fmt.Errorf("%s %q: %w", o.kind, o.text, err)
	}
	if status != http.StatusOK {
		return resp, fmt.Errorf("%s %q: status %d: %.200s", o.kind, o.text, status, resp)
	}
	if o.kind == opQuery {
		var qr server.QueryResponse
		if err := json.Unmarshal(resp, &qr); err != nil {
			return resp, fmt.Errorf("query %q: %w", o.text, err)
		}
		if len(qr.Rows) != o.rows {
			return resp, fmt.Errorf("query %q: %d rows, the model predicts %d", o.text, len(qr.Rows), o.rows)
		}
	}
	return resp, nil
}

// env is one server under test: a real on-disk store with default
// options (WAL group commit, one fsync per batch) behind server.New.
type env struct {
	dir   string
	store *persist.Store
	srv   *server.Server
	ts    *httptest.Server // nil when nothing listens
}

func openEnv(dir string, listen bool, opts ...persist.Option) (*env, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := persist.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, store: store, srv: server.New(store)}
	if listen {
		e.ts = httptest.NewServer(e.srv.Handler())
	}
	return e, nil
}

func (e *env) close() error {
	if e.ts != nil {
		e.ts.Close()
	}
	e.srv.StopStreams()
	return e.store.Close()
}

// install puts the workload's program and strategy on the server and
// seeds D through ordinary transactions.
func install(t target, w *workload) error {
	body, err := json.Marshal(server.ProgramRequest{Source: w.program, Strategy: w.strategy})
	if err != nil {
		return err
	}
	if status, resp, err := t.do("PUT", "/v1/program", body); err != nil || status != http.StatusOK {
		return fmt.Errorf("install program: status %d: %.200s: %v", status, resp, err)
	}
	for _, ups := range w.seed {
		if _, err := send(t, op{kind: opTxn, text: ups}); err != nil {
			return fmt.Errorf("seed: %w", err)
		}
	}
	return nil
}

// sample is one op of a measured stage.
type sample struct {
	kind   opKind
	window int
	lat    time.Duration
	failed bool
}

// stage is what one measured stage saw.
type stage struct {
	samples []sample
	lags    []time.Duration // paced only: how late each op was sent
	elapsed time.Duration
	late    int     // paced only: ops answered after the stage ended
	errs    []error // first few
}

func (s *stage) merge(o *stage) {
	s.samples = append(s.samples, o.samples...)
	s.lags = append(s.lags, o.lags...)
	s.late += o.late
	for _, err := range o.errs {
		if len(s.errs) < 5 {
			s.errs = append(s.errs, err)
		}
	}
}

func (s *stage) failed() int {
	n := 0
	for _, sm := range s.samples {
		if sm.failed {
			n++
		}
	}
	return n
}

// eachClient runs fn once per client, concurrently, and merges what
// they saw.
func eachClient(fn func(c int, out *stage)) *stage {
	parts := make([]stage, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, &parts[c])
		}(c)
	}
	wg.Wait()
	all := &stage{elapsed: time.Since(start)}
	for i := range parts {
		all.merge(&parts[i])
	}
	return all
}

func (s *stage) record(kind opKind, window int, lat time.Duration, err error) {
	s.samples = append(s.samples, sample{kind: kind, window: window, lat: lat, failed: err != nil})
	if err != nil && len(s.errs) < 5 {
		s.errs = append(s.errs, err)
	}
}

// closedLoop has every client send its next op as soon as the previous
// one is answered, until every client has sent n ops (n > 0) or d has
// passed. Its samples are labelled with the given window.
func closedLoop(ts []target, gens []*generator, n int, d time.Duration, window int) *stage {
	start := time.Now()
	return eachClient(func(c int, out *stage) {
		for i := 0; (n > 0 && i < n) || (n == 0 && time.Since(start) < d); i++ {
			o := gens[c].next()
			t0 := time.Now()
			_, err := send(ts[c], o)
			out.record(o.kind, window, time.Since(t0), err)
		}
	})
}

// pacedLoop is the open loop: op i is due at start + i/rate whatever
// happened to earlier ops, goes out on connection i mod clients, and
// its latency runs from when it was due. An op that a slow
// predecessor held back on its connection pays for the wait.
func pacedLoop(ts []target, gens []*generator, rate float64, d time.Duration, window int) (*stage, error) {
	pacer, err := load.NewPacer(time.Now().Add(5*time.Millisecond), rate)
	if err != nil {
		return nil, err
	}
	end := pacer.Start.Add(d)
	return eachClient(func(c int, out *stage) {
		for i := int64(c); ; i += clients {
			due := pacer.ScheduleFor(i)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			out.lags = append(out.lags, time.Since(due))
			o := gens[c].next()
			_, err := send(ts[c], o)
			done := time.Now()
			out.record(o.kind, window, done.Sub(due), err)
			if done.After(end) {
				out.late++
			}
		}
	}), nil
}

// cpuTime is the user+system CPU time this process has used. The
// generator lives in the same process, so it is included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap still in use after two forced collections (the
// second one frees what finalizers released in the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkFacts compares a fact list with what the model says D must be.
func checkFacts(where string, got []string, w *workload, m *model) error {
	want := w.expect(m)
	got = append([]string(nil), got...)
	sort.Strings(want)
	sort.Strings(got)
	var diff []string
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i] < want[j]):
			diff = append(diff, "+"+got[i])
			i++
		case i == len(got) || want[j] < got[i]:
			diff = append(diff, "-"+want[j])
			j++
		default:
			i++
			j++
		}
	}
	if len(diff) == 0 {
		return nil
	}
	n := len(diff)
	if n > 6 {
		diff = diff[:6]
	}
	return fmt.Errorf("%s: %d facts differ from the model (+ unexpected, - missing): %v", where, n, diff)
}

func storeFacts(s *persist.Store) []string {
	ids := s.Snapshot().Atoms()
	facts := make([]string, len(ids))
	for i, id := range ids {
		facts[i] = s.Universe().AtomString(id)
	}
	return facts
}

// checkState is the end-of-run oracle check: GET /v1/database must
// equal the model exactly, and so must the store after a clean close
// and re-open. It closes e and returns the re-opened store's open time
// and WAL record count.
func checkState(e *env, t target, w *workload, m *model) (reopen time.Duration, walRecords int, err error) {
	status, resp, err := t.do("GET", "/v1/database", nil)
	closeErr := e.close()
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /v1/database: status %d: %v", status, err)
	}
	var db server.DatabaseResponse
	if err := json.Unmarshal(resp, &db); err != nil {
		return 0, 0, fmt.Errorf("GET /v1/database: %w", err)
	}
	if err := checkFacts("GET /v1/database", db.Facts, w, m); err != nil {
		return 0, 0, err
	}
	if closeErr != nil {
		return 0, 0, closeErr
	}
	t0 := time.Now()
	again, err := persist.Open(e.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("re-open: %w", err)
	}
	reopen = time.Since(t0)
	defer again.Close()
	return reopen, again.WALRecords(), checkFacts("re-opened store", storeFacts(again), w, m)
}
