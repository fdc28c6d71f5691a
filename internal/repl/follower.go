package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/persist"
)

// Follower replays a leader's committed-transaction stream into a
// local store, keeping it a sequentially consistent prefix of the
// leader. Run drives the connect/apply/reconnect loop; the local
// store stays fully readable throughout (queries, snapshots, history)
// and must not be written by anyone else — the replication stream is
// its only writer.
type Follower struct {
	store *persist.Store
	hc    *http.Client

	// staleAfter bounds the silence the follower tolerates before it
	// declares the stream dead and reconnects; it must exceed the
	// leader's heartbeat interval.
	staleAfter time.Duration
	// backoffMin/backoffMax bound the jittered exponential reconnect
	// backoff.
	backoffMin, backoffMax time.Duration
	// syncEvery bounds how many applied transactions may precede one
	// WAL fsync during catch-up (the follower also syncs whenever it
	// reaches the leader's sequence and on heartbeats).
	syncEvery int
	log       *slog.Logger
	// ev is the cluster event journal (nil-safe): the follower emits
	// repl-stall when a stream that delivered frames ends and
	// repl-resume when a connection starts delivering again.
	ev *events.Log

	met followerMetrics
	// rng draws reconnect jitter. It is a per-instance source seeded
	// from math/rand/v2's auto-seeded generator, NOT from the clock:
	// followers built in the same instant (smoke drills, shard
	// bootstraps) must still jitter independently, or they reconnect
	// in lockstep and the jitter defeats itself.
	rng *rand.Rand

	// self is the local member's node ID in cluster mode (NewNode sets
	// it before the follower runs). A heartbeat naming it comes from
	// this node's own stream and proves no live leader.
	self string

	mu     sync.Mutex
	st     Status
	leader string // current leader base URL, no trailing slash (Retarget swaps it)
	// snapEpoch/… accumulate an in-flight snapshot bootstrap.
	snapActive bool
	snapSeq    int
	snapEpoch  int64
	snapFacts  []string
	// streamEpoch is the highest epoch the CURRENT stream's leader has
	// advertised in its heartbeats (reset on every new connection). It
	// authorizes snapshot bootstraps: a leader whose own epoch is
	// behind the local store's is deposed and must not reset us.
	streamEpoch int64
	// applied-but-not-yet-fsynced transaction count
	unsynced int
	// streamCancel aborts the in-flight stream request; Retarget uses
	// it so a follower switches leaders without waiting out a stale
	// read.
	streamCancel context.CancelFunc
	// retargeted notes a leader switch so Run resets its backoff.
	retargeted bool
	// stalled notes that an established stream ended (repl-stall
	// emitted); the next established stream emits repl-resume.
	stalled bool
	// wake interrupts Run's backoff sleep after a Retarget: a failover
	// must not wait out a backoff accumulated against the dead leader.
	wake chan struct{}
}

// Status is a point-in-time view of a follower's replication state.
type Status struct {
	// Connected reports whether a stream is currently established.
	Connected bool
	// AppliedSeq is the newest global sequence applied locally.
	AppliedSeq int
	// LeaderSeq is the newest leader sequence observed (heartbeats
	// and transaction frames both advance it).
	LeaderSeq int
	// LastFrame is the arrival time of the most recent frame.
	LastFrame time.Time
	// Stale reports that no frame (heartbeat or transaction) has
	// arrived within the follower's staleness bound (WithStaleAfter):
	// the replica's data may lag the leader by more than the bound.
	// Computed at Status() time.
	Stale bool
	// StaleAfter is the staleness bound Stale was judged against.
	StaleAfter time.Duration
	// Reconnects counts stream (re)establishment attempts after the
	// initial connect.
	Reconnects int64
	// TxnsApplied counts transactions applied since construction.
	TxnsApplied int64
	// SnapshotLoads counts full snapshot bootstraps performed.
	SnapshotLoads int64
	// FencedFrames counts transaction frames the store rejected
	// because they carried a deposed leadership epoch — nonzero means
	// this follower was streaming from a fenced ex-leader.
	FencedFrames int64
	// LeaderURL is the base URL the follower currently streams from.
	LeaderURL string
	// Lease state learned from heartbeats: the leader's epoch and
	// identity, and the lease duration each heartbeat renews (zero
	// from leaders running outside cluster mode). The leader's lease
	// is considered expired when LastFrame is older than Lease.
	LeaderEpoch int64
	LeaderID    string
	Lease       time.Duration
}

// LeaseExpired reports whether the leader's lease has lapsed as of
// now: a lease was advertised and no frame arrived within it. The
// election coordinator (Node) uses this as its candidacy trigger.
func (st Status) LeaseExpired(now time.Time) bool {
	return st.Lease > 0 && !st.LastFrame.IsZero() && now.Sub(st.LastFrame) > st.Lease
}

// LagSeq is the replication lag in transactions (never negative).
func (st Status) LagSeq() int {
	if st.LeaderSeq > st.AppliedSeq {
		return st.LeaderSeq - st.AppliedSeq
	}
	return 0
}

// Option configures NewFollower.
type Option func(*Follower)

// WithHTTPClient overrides the HTTP client used for the stream.
func WithHTTPClient(hc *http.Client) Option {
	return func(f *Follower) {
		if hc != nil {
			f.hc = hc
		}
	}
}

// WithStaleAfter sets how long the follower waits for a frame before
// reconnecting (default 30s; set it above the leader's heartbeat).
func WithStaleAfter(d time.Duration) Option {
	return func(f *Follower) {
		if d > 0 {
			f.staleAfter = d
		}
	}
}

// WithBackoff bounds the jittered exponential reconnect backoff
// (defaults 200ms .. 10s).
func WithBackoff(min, max time.Duration) Option {
	return func(f *Follower) {
		if min > 0 && max >= min {
			f.backoffMin, f.backoffMax = min, max
		}
	}
}

// WithSyncEvery sets the catch-up fsync batch size (default 64).
func WithSyncEvery(n int) Option {
	return func(f *Follower) {
		if n > 0 {
			f.syncEvery = n
		}
	}
}

// WithLogger directs connection lifecycle records (connect, fault,
// backoff, bootstrap) to l; by default the follower is silent.
func WithLogger(l *slog.Logger) Option {
	return func(f *Follower) {
		if l != nil {
			f.log = l
		}
	}
}

// WithEvents emits replication-stream lifecycle events (stall/resume)
// into the given cluster event journal; nil discards them.
func WithEvents(ev *events.Log) Option {
	return func(f *Follower) { f.ev = ev }
}

// NewFollower builds a follower replaying leaderURL into store. Call
// Run to start replication.
func NewFollower(store *persist.Store, leaderURL string, opts ...Option) *Follower {
	f := &Follower{
		store:      store,
		leader:     strings.TrimRight(leaderURL, "/"),
		hc:         http.DefaultClient,
		staleAfter: 30 * time.Second,
		backoffMin: 200 * time.Millisecond,
		backoffMax: 10 * time.Second,
		syncEvery:  64,
		log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		// Seed from the process-wide auto-seeded generator: unique per
		// instance even for followers built in the same nanosecond.
		rng:  rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
		wake: make(chan struct{}, 1),
	}
	for _, o := range opts {
		o(f)
	}
	f.st.AppliedSeq = store.Seq()
	return f
}

// Retarget points the follower at a new leader base URL, aborting any
// in-flight stream so the switch takes effect immediately. The
// election coordinator calls it after a failover; it is safe at any
// time (a no-op when the URL is unchanged).
func (f *Follower) Retarget(leaderURL string) {
	leaderURL = strings.TrimRight(leaderURL, "/")
	f.mu.Lock()
	if leaderURL == "" || f.leader == leaderURL {
		f.mu.Unlock()
		return
	}
	f.leader = leaderURL
	f.retargeted = true
	cancel := f.streamCancel
	f.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	// Wake Run out of any backoff sleep: the accumulated backoff was
	// earned against the old leader and must not delay the new one.
	select {
	case f.wake <- struct{}{}:
	default:
	}
	f.log.Info("retargeted to leader", "leader", leaderURL)
}

// LeaderURL returns the base URL the follower currently streams from.
func (f *Follower) LeaderURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leader
}

// Instrument registers the follower's replication metrics in reg.
// Counters accumulate inline; sampled gauges refresh on
// RefreshMetrics.
func (f *Follower) Instrument(reg *metrics.Registry) {
	f.met.register(reg)
	f.RefreshMetrics()
}

// Status returns the current replication status. Staleness is judged
// at call time: a follower is stale when no frame has arrived within
// its staleAfter bound (including before the first frame).
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	st.StaleAfter = f.staleAfter
	st.Stale = st.LastFrame.IsZero() || time.Since(st.LastFrame) > f.staleAfter
	st.LeaderURL = f.leader
	return st
}

// RefreshMetrics samples the status gauges (lag, sequences,
// connectedness, last-frame age). The server calls this on every
// /v1/metrics scrape.
func (f *Follower) RefreshMetrics() {
	f.met.sample(f.Status())
}

// Run replicates until ctx is cancelled, reconnecting with jittered
// exponential backoff after any fault (leader restart, network error,
// torn stream, sequence gap). It returns ctx.Err() on cancellation —
// replication itself never gives up.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.backoffMin
	// One reusable timer for the whole loop (the pacer's stopped-timer
	// idiom): time.After inside a long-lived loop would leak a pending
	// timer per reconnect, which adds up across a flap storm.
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			f.met.reconnect()
			f.mu.Lock()
			f.st.Reconnects++
			f.mu.Unlock()
		}
		frames, err := f.stream(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.mu.Lock()
		if frames > 0 || f.retargeted {
			// The connection made progress, or we were pointed at a new
			// leader: treat the fault as fresh.
			backoff = f.backoffMin
		}
		f.retargeted = false
		leader := f.leader
		f.mu.Unlock()
		f.log.Info("stream ended; reconnecting",
			"leader", leader, "frames", frames, "err", err, "backoff", backoff)
		// Full jitter: sleep uniformly in [backoff/2, backoff).
		timer.Reset(f.jitter(backoff))
		select {
		case <-ctx.Done():
			if !timer.Stop() {
				<-timer.C
			}
			return ctx.Err()
		case <-f.wake:
			// Retargeted mid-sleep: connect to the new leader now.
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
		if backoff *= 2; backoff > f.backoffMax {
			backoff = f.backoffMax
		}
	}
}

// jitter draws the reconnect sleep for one backoff step, uniformly in
// [backoff/2, backoff).
func (f *Follower) jitter(backoff time.Duration) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return backoff/2 + time.Duration(f.rng.Int64N(int64(backoff/2)+1))
}

// stream runs one connection: resume from the local sequence, apply
// frames until the stream breaks. It returns the number of frames
// processed (the caller uses progress to reset backoff).
func (f *Follower) stream(ctx context.Context) (int, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.mu.Lock()
	f.streamCancel = cancel
	f.streamEpoch = 0
	leader := f.leader
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.streamCancel = nil
		f.mu.Unlock()
	}()
	if leader == "" {
		// Cluster mode before the first election: no leader is known
		// yet; Retarget will point us somewhere and wake the loop.
		return 0, fmt.Errorf("repl: no leader known")
	}
	from := f.store.Seq()
	// The epoch of our state at `from` rides along so the leader can
	// detect a timeline written by a deposed leader and force a
	// snapshot bootstrap instead of grafting divergent histories.
	url := leader + "/v1/repl/stream?from=" + strconv.Itoa(from) +
		"&epoch=" + strconv.FormatInt(f.store.Epoch(), 10)
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("repl: leader returned HTTP %d", resp.StatusCode)
	}
	f.setConnected(true)
	defer f.setConnected(false)
	f.mu.Lock()
	resumed := f.stalled
	f.stalled = false
	f.mu.Unlock()
	if resumed {
		f.ev.Emit(events.Event{
			Type:     events.ReplResume,
			StoreSeq: from,
			Detail:   "stream to " + leader + " reestablished",
		})
	}
	// Mark the outage when this established stream ends for any reason
	// other than our own shutdown or promotion (context cancelled).
	defer func() {
		if cctx.Err() != nil && ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		f.stalled = true
		f.mu.Unlock()
		f.ev.Emit(events.Event{
			Type:     events.ReplStall,
			StoreSeq: f.store.Seq(),
			Detail:   "stream to " + leader + " ended",
		})
	}()
	f.log.Info("streaming from leader", "leader", leader, "from", from)

	// Watchdog: a stream that goes silent past staleAfter is dead
	// (half-open TCP, wedged proxy); cancel the request to unblock
	// the read below.
	watchdog := time.AfterFunc(f.staleAfter, cancel)
	defer watchdog.Stop()

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	frames := 0
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return frames, err
		}
		watchdog.Reset(f.staleAfter)
		frames++
		f.met.frame(typ, frameHeader+1+len(payload))
		if err := f.handle(typ, payload); err != nil {
			return frames, err
		}
	}
}

// handle applies one frame.
func (f *Follower) handle(typ byte, payload []byte) error {
	now := time.Now()
	switch typ {
	case FrameHeartbeat:
		var hb Heartbeat
		if err := json.Unmarshal(payload, &hb); err != nil {
			return fmt.Errorf("repl: bad heartbeat: %w", err)
		}
		// Fence BEFORE the heartbeat renews anything: once this store has
		// acknowledged a newer epoch (commit, vote or bootstrap), a
		// deposed leader's heartbeats must not keep refreshing LastFrame
		// — that would renew its lease here and block the election that
		// replaces it. Epoch-0 heartbeats (leaders outside cluster mode)
		// only hit this if the store has real fencing state.
		if fence := f.store.FenceEpoch(); hb.Epoch < fence {
			f.met.fenced()
			f.mu.Lock()
			f.st.FencedFrames++
			f.mu.Unlock()
			return fmt.Errorf("repl: heartbeat from deposed leader: epoch %d below local fence %d", hb.Epoch, fence)
		}
		// A member never follows itself: renewing the lease from our own
		// stream would keep this node from ever rediscovering the leader.
		if f.self != "" && hb.LeaderID == f.self {
			return fmt.Errorf("repl: heartbeat names this node (%s) as its leader", f.self)
		}
		f.mu.Lock()
		if hb.Seq > f.st.LeaderSeq {
			f.st.LeaderSeq = hb.Seq
		}
		if hb.Epoch > f.st.LeaderEpoch {
			f.st.LeaderEpoch = hb.Epoch
		}
		if hb.Epoch > f.streamEpoch {
			f.streamEpoch = hb.Epoch
		}
		// In cluster mode a heartbeat naming no one is news too: the
		// serving member lost track of the leader, so keeping the old
		// name would let its stream renew a lease it no longer carries.
		if hb.LeaderID != "" || f.self != "" {
			f.st.LeaderID = hb.LeaderID
		}
		if hb.LeaseMillis > 0 {
			f.st.Lease = time.Duration(hb.LeaseMillis) * time.Millisecond
		}
		f.st.LastFrame = now
		f.mu.Unlock()
		// A heartbeat marks an idle point: flush batched durability.
		return f.syncIfUnsynced()

	case FrameSnapshot:
		var sc SnapshotChunk
		if err := json.Unmarshal(payload, &sc); err != nil {
			return fmt.Errorf("repl: bad snapshot chunk: %w", err)
		}
		f.mu.Lock()
		if !f.snapActive || f.snapSeq != sc.Seq {
			f.snapActive, f.snapSeq, f.snapEpoch, f.snapFacts = true, sc.Seq, sc.Epoch, nil
		}
		f.snapFacts = append(f.snapFacts, sc.Facts...)
		f.st.LastFrame = now
		facts, seq, epoch, done := f.snapFacts, f.snapSeq, f.snapEpoch, sc.Done
		// The leader always heartbeats before the snapshot, so by now
		// streamEpoch holds its current epoch — the authorization for
		// discarding our timeline (see persist.ResetToSnapshot).
		leaderEpoch := f.streamEpoch
		f.mu.Unlock()
		if !done {
			return nil
		}
		if err := f.store.ResetToSnapshot(seq, epoch, facts, leaderEpoch); err != nil {
			if errors.Is(err, persist.ErrFenced) {
				// A deposed leader tried to bootstrap us onto its stale
				// timeline: drop the connection, keep our state.
				f.met.fenced()
				f.mu.Lock()
				f.st.FencedFrames++
				f.mu.Unlock()
			}
			return err
		}
		f.met.snapshotLoad()
		f.mu.Lock()
		f.snapActive, f.snapFacts = false, nil
		f.st.AppliedSeq = seq
		if seq > f.st.LeaderSeq {
			f.st.LeaderSeq = seq
		}
		f.st.SnapshotLoads++
		f.unsynced = 0
		f.mu.Unlock()
		f.log.Info("bootstrapped from snapshot", "seq", seq, "facts", len(facts))
		return nil

	case FrameTxn:
		var tf TxnFrame
		if err := json.Unmarshal(payload, &tf); err != nil {
			return fmt.Errorf("repl: bad txn frame: %w", err)
		}
		applied := f.store.Seq()
		if tf.Seq > applied {
			if tf.Seq != applied+1 {
				// The stream skipped transactions (e.g. the leader
				// dropped subscription events): resume from our real
				// sequence on a fresh connection.
				return fmt.Errorf("repl: sequence gap: store at %d, stream sent %d", applied, tf.Seq)
			}
			// Authorize the frame with the SERVING leader's epoch (from
			// its heartbeats), not just the frame's own stamp: a live
			// leader legitimately relays history committed under older
			// epochs during catch-up, while a deposed leader's frames —
			// whatever epoch they claim — must be judged by who is
			// sending them.
			f.mu.Lock()
			authEpoch := f.streamEpoch
			f.mu.Unlock()
			if err := f.store.ApplyReplicatedFrom(persist.TxnRecord{Seq: tf.Seq, Epoch: tf.Epoch, TraceID: tf.TraceID, Added: tf.Added, Removed: tf.Removed}, authEpoch); err != nil {
				if errors.Is(err, persist.ErrFenced) {
					// The stream's leader was deposed: drop the
					// connection and let the coordinator (or the next
					// reconnect's heartbeats) point us at the new one.
					f.met.fenced()
					f.mu.Lock()
					f.st.FencedFrames++
					f.mu.Unlock()
				}
				return err
			}
			f.met.txnApplied()
			// Adopt the leader's flight trace so /v1/txns answers on the
			// replica too. The leader ships it only while the trace is in
			// its own ring; origin marks that the evaluation happened
			// there.
			if tf.Trace != nil {
				if ring := f.store.Flight(); ring != nil {
					tf.Trace.Origin = "leader"
					ring.Insert(tf.Trace)
				}
			}
		}
		f.mu.Lock()
		f.st.AppliedSeq = f.store.Seq()
		if tf.Seq > f.st.LeaderSeq {
			f.st.LeaderSeq = tf.Seq
		}
		f.st.TxnsApplied++
		f.st.LastFrame = now
		f.unsynced++
		caughtUp := f.st.AppliedSeq >= f.st.LeaderSeq
		batchFull := f.unsynced >= f.syncEvery
		f.mu.Unlock()
		if caughtUp || batchFull {
			return f.syncIfUnsynced()
		}
		return nil
	}
	return fmt.Errorf("repl: unknown frame type %q", typ)
}

// syncIfUnsynced flushes batched WAL durability if any applied
// transactions are pending.
func (f *Follower) syncIfUnsynced() error {
	f.mu.Lock()
	n := f.unsynced
	f.unsynced = 0
	f.mu.Unlock()
	if n == 0 {
		return nil
	}
	return f.store.SyncWAL()
}

func (f *Follower) setConnected(up bool) {
	f.mu.Lock()
	f.st.Connected = up
	f.mu.Unlock()
}
