package repl

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/persist"
)

// Leader serves a store's committed-transaction sequence to followers
// over HTTP (GET /v1/repl/stream?from=<seq>). One Leader serves any
// number of concurrent streams; each stream holds a store
// subscription and costs the leader nothing on the commit path beyond
// the existing fan-out. A follower is itself a valid stream source
// (its store commits replicated transactions through the same
// notification path), so replicas can be chained.
type Leader struct {
	store *persist.Store

	// heartbeat is the idle keepalive interval; every heartbeat also
	// carries the leader's current sequence so followers measure lag
	// without extra round trips.
	heartbeat time.Duration
	// chunk is the number of facts per snapshot frame.
	chunk int
	// buffer is the per-stream subscription depth; a stream that
	// falls further behind than this is terminated (the follower
	// resumes from its sequence, served from history).
	buffer int

	// leader names the member this server believes leads (itself while
	// it leads), and lease is the lease duration each heartbeat renews;
	// both are unset outside cluster mode (see NodeConfig). They ride
	// the Heartbeat frame so followers learn who leads and how long its
	// lease runs.
	leader func() (id, url string)
	lease  time.Duration

	met leaderMetrics
}

// LeaderOption configures NewLeader.
type LeaderOption func(*Leader)

// WithHeartbeat sets the stream keepalive interval (default 5s).
func WithHeartbeat(d time.Duration) LeaderOption {
	return func(l *Leader) {
		if d > 0 {
			l.heartbeat = d
		}
	}
}

// WithSnapshotChunk sets the facts-per-frame chunk size of snapshot
// bootstraps (default 4096).
func WithSnapshotChunk(n int) LeaderOption {
	return func(l *Leader) {
		if n > 0 {
			l.chunk = n
		}
	}
}

// WithStreamBuffer sets the per-stream subscription buffer (default
// 256 transactions).
func WithStreamBuffer(n int) LeaderOption {
	return func(l *Leader) {
		if n > 0 {
			l.buffer = n
		}
	}
}

// SetIdentity stamps heartbeats with the member leader reports as
// leading, and with the lease duration each heartbeat renews. Cluster
// mode passes Node.Leader: a member that stops leading but still
// serves a stream then names the leader it follows, not itself, so
// its heartbeats cannot keep a lease alive for a leader that is gone.
// A standalone leader leaves heartbeats bare. Call before serving
// streams.
func (l *Leader) SetIdentity(leader func() (id, url string), lease time.Duration) {
	l.leader = leader
	if lease > 0 {
		l.lease = lease
	}
}

// NewLeader wraps a store in a replication stream server.
func NewLeader(store *persist.Store, opts ...LeaderOption) *Leader {
	l := &Leader{
		store:     store,
		heartbeat: 5 * time.Second,
		chunk:     4096,
		buffer:    256,
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Instrument registers the leader-side replication metrics in reg.
func (l *Leader) Instrument(reg *metrics.Registry) {
	l.met.register(reg)
}

// ServeHTTP streams the snapshot (when needed) and transaction tail
// starting after the ?from= sequence, then live commits interleaved
// with heartbeats, until the client disconnects or falls too far
// behind.
func (l *Leader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad 'from' parameter %q", v), http.StatusBadRequest)
			return
		}
		from = n
	}
	// ?epoch= is the epoch of the follower's state at `from` (absent
	// from pre-epoch followers). It guards resume-after-failover: a
	// follower whose prefix was written by a deposed leader must not
	// be grafted onto the new leader's timeline at the same sequence.
	fromEpoch, haveEpoch := int64(0), false
	if v := r.URL.Query().Get("epoch"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad 'epoch' parameter %q", v), http.StatusBadRequest)
			return
		}
		fromEpoch, haveEpoch = n, true
	}

	// Take a consistent cut — without the snapshot and with history
	// from `from` on first (the common resume case: when the follower
	// is inside the leader's in-memory tail nothing is read from the
	// WAL), retaking it whole with the snapshot when the follower
	// cannot resume from history: its sequence predates the leader's
	// last checkpoint, lies beyond the leader's sequence (divergence —
	// e.g. the follower outlived a leader restore; the leader's state
	// wins), or was written under a different epoch than the leader's
	// own transaction at that sequence (divergence across a failover:
	// the fenced timeline is discarded by bootstrap).
	resumable := func(c *persist.ReplicaCut) bool {
		if from < c.BaseSeq || from > c.Seq {
			return false
		}
		if !haveEpoch {
			return true
		}
		epochAt := c.BaseEpoch
		if from > c.BaseSeq {
			epochAt = c.History[from-c.History[0].Seq].Epoch
		}
		return epochAt == fromEpoch
	}
	cut, err := l.store.ReplicaCut(from, false, l.buffer)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if !resumable(cut) {
		cut.Cancel()
		if cut, err = l.store.ReplicaCut(0, true, l.buffer); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	defer cut.Cancel()

	l.met.streamStart()
	defer l.met.streamEnd()

	w.Header().Set("Content-Type", "application/x-park-repl")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(typ byte, payload any) error {
		n, err := writeFrame(w, typ, payload)
		l.met.frame(typ, n)
		return err
	}

	// Tell the follower where the leader is right away: lag is
	// observable before the first live commit arrives.
	if send(FrameHeartbeat, l.heartbeatFrame(cut.Seq, cut.Epoch)) != nil {
		return
	}
	last := from
	// A commit can land between the two cuts and make the resume
	// window reach `from` after all; prefer the cheaper history path.
	if cut.Snapshot != nil && !resumable(cut) {
		facts := factStrings(l.store.Universe(), cut.Snapshot)
		for i := 0; ; i += l.chunk {
			end := min(i+l.chunk, len(facts))
			done := end == len(facts)
			if send(FrameSnapshot, SnapshotChunk{Seq: cut.BaseSeq, Epoch: cut.BaseEpoch, Facts: facts[i:end], Done: done}) != nil {
				return
			}
			if done {
				break
			}
		}
		l.met.snapshot()
		last = cut.BaseSeq
	}
	for _, txn := range cut.History {
		if txn.Seq <= last {
			continue
		}
		if send(FrameTxn, l.txnFrame(txn)) != nil {
			return
		}
		last = txn.Seq
	}
	flusher.Flush()

	ticker := time.NewTicker(l.heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case txn := <-cut.Events:
			// Drain whatever is queued before flushing once.
			for {
				if txn.Seq > last {
					if txn.Seq != last+1 {
						// The subscription dropped events (stream too
						// slow): this stream can no longer promise a
						// dense sequence. Terminate; the follower
						// resumes from its sequence and is served the
						// missed window from history.
						return
					}
					if send(FrameTxn, l.txnFrame(txn)) != nil {
						return
					}
					last = txn.Seq
				}
				select {
				case txn = <-cut.Events:
					continue
				default:
				}
				break
			}
			flusher.Flush()
		case <-ticker.C:
			if send(FrameHeartbeat, l.heartbeatFrame(l.store.Seq(), l.store.Epoch())) != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// heartbeatFrame builds a heartbeat carrying the leader's sequence,
// epoch, identity and lease (identity/lease only in cluster mode).
func (l *Leader) heartbeatFrame(seq int, epoch int64) Heartbeat {
	hb := Heartbeat{Seq: seq, Epoch: epoch, LeaseMillis: l.lease.Milliseconds()}
	if l.leader != nil {
		hb.LeaderID, hb.LeaderURL = l.leader()
	}
	return hb
}

// txnFrame builds the wire frame for one committed transaction,
// carrying the originating trace ID and — when the transaction is
// still inside the leader's flight ring — its full flight trace, so
// the follower can answer /v1/txns/{seq}/trace for replicated
// transactions too. A transaction already evicted from the ring ships
// without a trace; correlation by trace ID still works through the
// logs.
func (l *Leader) txnFrame(txn persist.TxnRecord) TxnFrame {
	f := TxnFrame{Seq: txn.Seq, Epoch: txn.Epoch, TraceID: txn.TraceID, Added: txn.Added, Removed: txn.Removed}
	if ring := l.store.Flight(); ring != nil {
		f.Trace = ring.Get(txn.Seq)
	}
	return f
}

// factStrings renders a database as sorted rule-language facts.
func factStrings(u *core.Universe, d *core.Database) []string {
	ids := append([]core.AID(nil), d.Atoms()...)
	u.SortAtoms(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = u.AtomString(id)
	}
	return out
}
