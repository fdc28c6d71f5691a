// Package persist provides a durable database store for the PARK
// engine: the paper's §3 requires the semantics to be "easily
// implementable on top of a commercial DBMS", and this package is the
// minimal DBMS substrate the library ships instead — a snapshot file
// plus a checksummed write-ahead log of fact-level deltas, with
// crash recovery that tolerates torn tail writes.
//
// Layout inside the store directory:
//
//	snapshot.park   ground facts in the rule language (atomic rename)
//	wal.log         length- and CRC32-prefixed delta records
//
// Concurrency model. A transaction passes three stages:
//
//  1. Apply builds the engine outside any lock and takes the commit
//     slot, a one-transaction semaphore whose admission respects the
//     caller's context. Every install of a new state holds the slot,
//     so transactions evaluate one at a time, in commit order, and no
//     evaluation is ever stale: PARK(P, D, U) is a deterministic
//     function of the state it reads, so there is nothing to revalidate.
//  2. It evaluates PARK(P, D, U) on the installed state, then, under
//     the narrow commit lock, appends the fact-level delta plus a
//     commit marker to the WAL, installs the new state pointer, and
//     releases the slot.
//  3. Durability is acknowledged by WAL group commit: one fsync
//     covers every transaction appended since the previous fsync
//     (leader/follower — the first waiter syncs for the batch). The
//     fsync runs outside the slot, while the next transaction
//     evaluates, so a batch forms whenever an fsync outlasts an
//     evaluation.
//
// Reads (Snapshot, Query, Len, Backup) load the installed state
// pointer atomically and take neither the slot nor the commit lock:
// installed databases are immutable, so readers are wait-free with
// respect to writers.
//
// A crash at any point recovers either the pre- or the
// post-transaction state, never a partial one: recovery discards
// deltas with no trailing commit marker, so atomicity is per
// transaction even when several transactions share one fsync. Delta
// records are absolute ("atom present"/"atom absent"), which
// additionally makes replay idempotent: a crash between Checkpoint's
// snapshot rename and its WAL truncation merely re-applies the old
// deltas on top of the new snapshot, converging to the same state
// (fault-injection-tested).
//
// Sequence numbers. Every committed transaction carries a global
// sequence number with three invariants the rest of the system leans
// on:
//
//  1. Dense and monotone: the first commit in a store's life is 1 and
//     each commit is exactly the predecessor plus one — there are no
//     gaps, so "the state at sequence N" names exactly one database.
//  2. Durable: the sequence is stored in each WAL commit marker and
//     in the snapshot header ("% park snapshot seq=N"), so it
//     survives restarts and checkpoints; recovery resumes the
//     numbering where the crashed process left off.
//  3. Order-defining: states are reconstructible at any sequence in
//     the retained window [baseSeq, seq] (StateAt, History), and the
//     replication layer (internal/repl) identifies a follower's
//     position solely by its sequence — resuming a stream is
//     "send me everything after N".
//
// History. The store keeps the newest committed transactions in memory
// (a tail bounded in records and in bytes of atom text); the older ones
// since the last checkpoint are read back from the WAL, through the
// decoder recovery uses. History, StateAt and ReplicaCut serve the
// whole window either way.
//
// Replication hooks. ReplicaCut takes a consistent cut (snapshot +
// history + live subscription, gapless by construction) for serving a
// replication stream; ApplyReplicatedFrom installs a leader-evaluated
// delta through the same WAL/commit path without re-running the
// engine; ResetToSnapshot adopts a leader snapshot wholesale; SyncWAL
// lets a follower batch durability across applied transactions. A
// store being replicated into must have no other writers.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/flight"
	"repro/internal/parser"
)

const (
	snapshotName = "snapshot.park"
	walName      = "wal.log"
	// recordHeader = payload length + CRC32, both little-endian uint32.
	recordHeader = 8
	// maxRecord guards recovery against garbage lengths.
	maxRecord = 1 << 20
	// snapshotSeqPrefix heads the snapshot file's first line, recording
	// the global transaction sequence at checkpoint time. It is a rule
	// language comment, so older readers parse the snapshot unchanged.
	snapshotSeqPrefix = "% park snapshot seq="
	// snapshotEpochKey extends the header with the leadership epoch
	// ("% park snapshot seq=N epoch=E"); snapshots written before
	// epochs existed omit it and parse as epoch 0.
	snapshotEpochKey = " epoch="
)

// ErrClosed is returned by operations on a closed store. Callers can
// match it with errors.Is to distinguish shutdown from engine errors.
var ErrClosed = errors.New("persist: store is closed")

// Store is a durable database instance. All methods are safe for
// concurrent use. Transactions evaluate one at a time in commit order;
// reads never wait for them, and WAL fsyncs are batched across
// concurrent committers (group commit).
type Store struct {
	dir string
	u   *core.Universe
	// fs is the filesystem seam (see vfs.go): OSFS in production,
	// FaultFS under fault injection.
	fs FS

	// state is the installed current database, read lock-free by
	// Snapshot/Query/Len/Backup. Replaced (never mutated) under slot
	// and mu; the database it points to is immutable.
	state atomic.Pointer[core.Database]

	// seqMirror and epochMirror shadow seq/epoch for contexts that must
	// not take mu (enterDegraded can run with mu held). Updated at every
	// point seq/epoch change, under mu.
	seqMirror   atomic.Int64
	epochMirror atomic.Int64

	// slot is the commit slot (capacity 1): held by whoever evaluates
	// or installs a new state, and always taken before mu.
	slot chan struct{}

	// mu is the narrow commit lock: it guards WAL appends, the
	// install of state, seq/history bookkeeping, and Checkpoint/Close.
	// The engine never runs under mu.
	mu sync.Mutex
	// walRecords and walBytes count the records and bytes appended
	// since the last checkpoint; the WAL file is exactly walBytes long
	// up to a failed append.
	walRecords int
	walBytes   int64
	closed     bool
	wal        File
	// walErr is sticky: a failed append may leave a partial
	// transaction in the file, after which further appends could be
	// misattributed to the next commit marker. Subsequent commits fail
	// until the degraded-mode repair rotates the WAL (degrade.go).
	walErr error

	// seq is the global transaction sequence: monotonic across
	// checkpoints and restarts (persisted in commit markers and the
	// snapshot header). baseSeq is the sequence at the last
	// checkpoint; history[i].Seq == baseSeq+i+1.
	seq     int
	baseSeq int

	// epoch is the leadership epoch new commits are stamped with;
	// baseEpoch is the epoch recorded in the snapshot header. Epochs
	// are monotone for the lifetime of the directory: they advance via
	// BeginEpoch (promotion) or by applying a replicated transaction
	// from a newer leader (see epoch.go).
	epoch     int64
	baseEpoch int64
	// voteEpoch/voteFor are the node's most recent leader-election
	// vote, persisted as 'V' WAL records so a restarted node cannot
	// grant a second vote in the same epoch.
	voteEpoch int64
	voteFor   string
	// fence is the fencing floor replication authority is judged
	// against: the highest epoch this store has acknowledged in any
	// form — a commit marker, a BeginEpoch record, a granted vote, or
	// the authorizing leader epoch of a snapshot bootstrap. Unlike
	// epoch (which names the timeline of the applied tip and may
	// legitimately be lower, e.g. mid-bootstrap), fence never
	// regresses: once the store has promised itself to epoch N — by
	// voting in it or bootstrapping under its authority — frames
	// authorized by any older epoch are rejected (ErrFenced), even
	// though older-epoch *frames relayed by* the epoch-N leader still
	// apply (ApplyReplicatedFrom). Persisted as 'F' WAL records when it
	// exceeds what epoch and voteEpoch already imply. Invariant:
	// fence >= max(epoch, voteEpoch).
	fence int64

	// snapDB is the state at the last checkpoint (or Open snapshot);
	// it is replaced, never mutated. history holds the newest
	// per-transaction deltas since then, ending at seq (see
	// pushHistoryLocked); historyBytes is their atom text. Together
	// with the WAL they support StateAt time travel.
	snapDB       *core.Database
	history      []TxnRecord
	historyBytes int
	// walGate keeps the WAL from being truncated or rotated while a
	// history read is decoding it outside mu: readers hold it shared,
	// Checkpoint, repair and ResetToSnapshot exclusively (under mu).
	walGate sync.RWMutex

	// Group commit state, guarded by syncMu (lock order: mu before
	// syncMu; waitDurable takes only syncMu). LSNs are logical —
	// cumulative committed-transaction counts, never reset — so an
	// in-flight fsync straddling a checkpoint stays harmless.
	syncMu      sync.Mutex
	syncCond    *sync.Cond
	appendedLSN int64 // transactions appended to the WAL
	syncedLSN   int64 // transactions covered by fsync or checkpoint
	syncing     bool  // a leader is currently in wal.Sync
	syncErr     error // sticky fsync failure
	pendingTxns int64 // appended since the last fsync began

	// flight is the transaction flight recorder's retention ring (last
	// K traces + slow traces); nil when disabled via WithTraceBuffer(0).
	// The commit path records through it but never blocks on it beyond
	// its short insert mutex.
	flight *flight.Ring

	// ev is the cluster event journal (nil-safe; see internal/events).
	// The store emits durability and timeline lifecycle events into it:
	// degraded enter/exit, fence raises, checkpoints, snapshot
	// bootstraps.
	ev *events.Log

	// profile is the rolling per-rule cost profile accumulated from
	// committed transactions' RunStats (profile.go).
	profile ruleProfile

	cfg config
	met storeMetrics

	// subsMu guards the transaction subscribers (see Subscribe).
	subsMu subscribers

	// closing is set at the start of Close so the degraded-mode probe
	// goroutine stops spawning or probing during shutdown.
	closing atomic.Bool

	// deg tracks degraded read-only mode (degrade.go). deg.mu is a
	// leaf lock — enterDegraded may run with mu or syncMu held — so it
	// must never be held while acquiring any other store lock.
	deg struct {
		mu     sync.Mutex
		down   bool
		reason string
		cause  error
		since  time.Time
		stop   chan struct{}
		done   chan struct{}
	}
}

// config collects Open options.
type config struct {
	fs          FS
	probeEvery  time.Duration
	slogger     *slog.Logger
	traceBuffer int
	slowThresh  time.Duration
	events      *events.Log
}

// Option configures Open.
type Option func(*config)

// WithFS runs the store on the given filesystem implementation
// instead of the real one. Tests use it to inject a FaultFS; parkd's
// -failpoints mode does the same in a live process.
func WithFS(fs FS) Option {
	return func(c *config) {
		if fs != nil {
			c.fs = fs
		}
	}
}

// WithProbeInterval sets how often the degraded store re-tests the
// disk for recovery (default 3s). Tests shorten it.
func WithProbeInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.probeEvery = d
		}
	}
}

// WithSlog routes the store's structured log records (commit events at
// Debug, degradation, disk probes, repair and WAL quarantine at
// Debug/Info/Warn) to the given logger. By default they are discarded.
func WithSlog(l *slog.Logger) Option {
	return func(c *config) {
		if l != nil {
			c.slogger = l
		}
	}
}

// WithEvents routes the store's lifecycle events (degraded enter/exit,
// fence raises, checkpoints, snapshot bootstraps) into the given
// cluster event journal. A nil journal — the default — discards them.
func WithEvents(ev *events.Log) Option {
	return func(c *config) { c.events = ev }
}

// WithTraceBuffer sets K for the flight-recorder ring: the store keeps
// the last K transaction traces plus the last K slow ones (see
// internal/flight). 0 disables trace recording entirely; negative
// values are ignored. Default flight.DefaultRecent.
func WithTraceBuffer(k int) Option {
	return func(c *config) {
		if k >= 0 {
			c.traceBuffer = k
		}
	}
}

// WithSlowThreshold sets the wall-clock duration at which a
// transaction's trace is retained in the slow window regardless of
// recency. A negative threshold marks every trace slow (drills and
// tests). Default flight.DefaultSlowThreshold.
func WithSlowThreshold(d time.Duration) Option {
	return func(c *config) {
		if d != 0 {
			c.slowThresh = d
		}
	}
}

// TxnRecord is one committed transaction's fact-level delta.
type TxnRecord struct {
	// Seq is the global transaction sequence number: monotonic for
	// the lifetime of the store directory, across checkpoints and
	// restarts.
	Seq int
	// TraceID is the request-scoped correlation ID under which the
	// transaction committed (empty when the caller supplied none).
	// Replication ships it so a follower's applied-transaction log
	// correlates with the leader's request log. It is not persisted in
	// the WAL: recovery yields records with empty trace IDs.
	TraceID string `json:"traceId,omitempty"`
	// Epoch is the leadership epoch the transaction committed under.
	// It is persisted in the commit marker and shipped in replication
	// frames; ApplyReplicatedFrom rejects transactions whose epoch is older
	// than the store's (fencing). Stores from before epochs existed
	// carry epoch 0 everywhere.
	Epoch int64 `json:"epoch,omitempty"`
	// Added and Removed render the delta atoms in rule-language
	// syntax.
	Added   []string
	Removed []string
}

// Open opens (or creates) a store directory, recovering state from
// the snapshot and the write-ahead log. A torn record at the WAL tail
// (from a crash mid-append or mid-group-commit) is discarded;
// everything before it is recovered. Corruption that is not a torn
// tail — a checksum mismatch on a fully present record, a garbage
// length, a semantically invalid record — fails Open loudly with an
// error matching ErrCorrupt: silently dropping it would also drop
// every transaction behind it. RepairOpen is the explicit escape
// hatch.
func Open(dir string, opts ...Option) (*Store, error) {
	s, _, err := open(dir, false, opts...)
	return s, err
}

// open is the shared Open/RepairOpen implementation. With repair set,
// a corrupt WAL region is quarantined instead of failing.
func open(dir string, repair bool, opts ...Option) (*Store, *RepairReport, error) {
	cfg := config{
		fs:          OSFS(),
		probeEvery:  3 * time.Second,
		slogger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		traceBuffer: flight.DefaultRecent,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: dir, u: core.NewUniverse(), cfg: cfg, fs: cfg.fs, ev: cfg.events}
	if cfg.traceBuffer > 0 {
		s.flight = flight.NewRing(cfg.traceBuffer, cfg.slowThresh)
	}
	s.syncCond = sync.NewCond(&s.syncMu)
	s.slot = make(chan struct{}, 1)
	db := core.NewDatabase()

	snapPath := filepath.Join(dir, snapshotName)
	if data, err := s.fs.ReadFile(snapPath); err == nil {
		text := string(data)
		s.baseSeq, s.baseEpoch = parseSnapshotHeader(text)
		s.seq, s.epoch = s.baseSeq, s.baseEpoch
		s.fence = s.baseEpoch
		db, err = parser.ParseDatabase(s.u, snapPath, text)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: corrupt snapshot: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}

	s.snapDB = db.Clone()

	walPath := s.walPath()
	validLen, records, corrupt, err := s.replayWAL(walPath, db)
	if err != nil {
		return nil, nil, err
	}
	var report *RepairReport
	if corrupt != nil {
		if !repair {
			return nil, nil, fmt.Errorf("%w; record framing is lost past it, so any transaction after the corrupt region is unrecoverable — use RepairOpen to quarantine the region and recover the valid prefix (through seq %d)", corrupt, s.seq)
		}
		report, err = s.quarantine(walPath, validLen, corrupt)
		if err != nil {
			return nil, nil, err
		}
	}
	wal, err := s.fs.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	// Drop any torn (or quarantined) tail so subsequent appends start
	// at a clean record boundary.
	if err := wal.Truncate(validLen); err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	if _, err := wal.Seek(validLen, io.SeekStart); err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	s.wal = wal
	s.walRecords, s.walBytes = records, validLen
	s.state.Store(db)
	s.seqMirror.Store(int64(s.seq))
	s.epochMirror.Store(s.epoch)
	return s, report, nil
}

// walPath returns the WAL file's full path.
func (s *Store) walPath() string { return filepath.Join(s.dir, walName) }

// parseSnapshotHeader reads the global sequence and leadership epoch
// from the snapshot header comment. Snapshots from before the header
// existed yield (0, 0); headers from before epochs existed yield
// epoch 0.
func parseSnapshotHeader(text string) (seq int, epoch int64) {
	if !strings.HasPrefix(text, snapshotSeqPrefix) {
		return 0, 0
	}
	line := text[len(snapshotSeqPrefix):]
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	seqPart := line
	if i := strings.Index(line, snapshotEpochKey); i >= 0 {
		seqPart = line[:i]
		e, err := strconv.ParseInt(strings.TrimSpace(line[i+len(snapshotEpochKey):]), 10, 64)
		if err == nil && e > 0 {
			epoch = e
		}
	}
	n, err := strconv.Atoi(strings.TrimSpace(seqPart))
	if err != nil || n < 0 {
		return 0, 0
	}
	return n, epoch
}

// replayWAL applies every committed unit of the WAL to db and the
// store's sequence, epoch and election state, and rebuilds the history
// tail. The returned offset is the end of the last committed unit:
// records of an uncommitted trailing transaction (no commit marker — a
// crash mid-Apply) are never applied, and a torn tail is dropped. A
// corrupt region (see decodeWAL) ends the replay with the committed
// prefix before it; the caller decides whether that prefix is
// acceptable (RepairOpen) or the open must fail (Open).
func (s *Store) replayWAL(path string, db *core.Database) (int64, int, *CorruptError, error) {
	data, err := s.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil, nil
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("persist: %w", err)
	}
	end, records, corrupt := decodeWAL(path, data, func(u *walUnit) error { return s.recoverUnit(db, u) })
	return end, records, corrupt, nil
}

// walUnit is one committed unit of the WAL: a transaction (its delta
// records closed by a commit marker) or a stand-alone epoch, vote or
// fence record.
type walUnit struct {
	kind    byte      // 'C' a transaction; 'E' epoch, 'V' vote, 'F' fence
	txn     TxnRecord // kind 'C'; Seq is 0 for a legacy marker
	epoch   int64     // kinds 'E', 'V' and 'F'
	voteFor string    // kind 'V'
}

// decodeWAL is the WAL's one decoder, shared by recovery and the
// history reads. It walks data's length- and CRC32-framed records and
// calls visit once per committed unit, in log order, returning the
// offset just past the last unit visit accepted and the number of
// records up to there. The records of an uncommitted trailing
// transaction are never visited.
//
// Torn and corrupt regions are distinguished: a crash tears the log
// by cutting appended bytes short (an incomplete header, a payload
// extending past EOF, or a zero length from a pre-allocated page), and
// that ends the walk quietly. Anything else — a garbage length, a
// checksum mismatch on a fully present payload, a structurally valid
// but semantically invalid record, or a unit visit rejects — is real
// corruption and ends the walk with a *CorruptError.
func decodeWAL(path string, data []byte, visit func(*walUnit) error) (end int64, records int, corrupt *CorruptError) {
	var u walUnit
	off, start, n := int64(0), int64(0), 0
	for off+recordHeader <= int64(len(data)) {
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 {
			break // torn tail (zero-filled or cut mid-header)
		}
		if length > maxRecord {
			return end, records, &CorruptError{Path: path, Offset: off,
				Reason: fmt.Sprintf("record length %d exceeds maximum %d", length, maxRecord)}
		}
		if off+recordHeader+length > int64(len(data)) {
			break // torn tail: payload cut short by a crash
		}
		payload := data[off+recordHeader : off+recordHeader+length]
		if crc32.ChecksumIEEE(payload) != sum {
			// The payload is fully present, so this is not a short
			// write: the bytes themselves are wrong.
			return end, records, &CorruptError{Path: path, Offset: off,
				Reason: "record checksum mismatch on fully present payload"}
		}
		committed, err := u.add(payload)
		at := off
		if err == nil && committed {
			at = start
			err = visit(&u)
		}
		if err != nil {
			return end, records, &CorruptError{Path: path, Offset: at,
				Reason: fmt.Sprintf("semantically invalid record: %v", err)}
		}
		off += recordHeader + length
		n++
		if committed {
			end, records, start = off, n, off
			u = walUnit{}
		}
	}
	return end, records, nil
}

// add decodes one record into the unit and reports whether the record
// completed it (a commit marker, or a self-committing epoch, vote or
// fence record).
func (u *walUnit) add(payload []byte) (bool, error) {
	if seq, epoch, ok := commitMarker(payload); ok {
		u.kind, u.txn.Seq, u.txn.Epoch = 'C', seq, epoch
		return true, nil
	}
	if len(payload) >= 9 && (payload[0] == 'E' || payload[0] == 'V' || payload[0] == 'F') {
		// Epoch, vote and fence records stand alone between
		// transactions (their writers hold the commit lock), so one
		// inside an open delta means the log is damaged.
		if len(u.txn.Added)+len(u.txn.Removed) > 0 {
			return false, fmt.Errorf("%c record inside an open transaction", payload[0])
		}
		switch {
		case payload[0] == 'E' && len(payload) != 9:
			return false, errors.New("malformed epoch record")
		case payload[0] == 'F' && len(payload) != 9:
			return false, errors.New("malformed fence record")
		}
		u.kind, u.epoch, u.voteFor = payload[0], int64(binary.LittleEndian.Uint64(payload[1:9])), string(payload[9:])
		return true, nil
	}
	if len(payload) < 2 {
		return false, errors.New("short record")
	}
	switch payload[0] {
	case '+':
		u.txn.Added = append(u.txn.Added, string(payload[1:]))
	case '-':
		u.txn.Removed = append(u.txn.Removed, string(payload[1:]))
	default:
		return false, fmt.Errorf("unknown op %q", payload[0])
	}
	return false, nil
}

// recoverUnit applies one committed WAL unit at Open: a transaction's
// delta goes into db and the history tail, epoch, vote and fence
// records into the election state. A unit it rejects changes nothing.
func (s *Store) recoverUnit(db *core.Database, u *walUnit) error {
	epoch := u.epoch
	switch u.kind {
	case 'E':
		s.epoch = max(s.epoch, epoch)
	case 'V':
		s.voteEpoch, s.voteFor = epoch, u.voteFor
	case 'C':
		txn := u.txn
		epoch = txn.Epoch
		if txn.Seq == 0 {
			// Legacy marker without a sequence: number consecutively.
			txn.Seq = s.seq + 1
		}
		if txn.Seq > s.baseSeq && txn.Seq <= s.seq {
			return fmt.Errorf("commit sequence %d not after %d", txn.Seq, s.seq)
		}
		if err := s.applyDelta(db, txn); err != nil {
			return err
		}
		s.epoch = max(s.epoch, epoch)
		// A transaction at or below baseSeq is already folded into the
		// snapshot (a crash hit between Checkpoint's rename and its WAL
		// truncation): replaying it was idempotent, and it is not
		// history.
		if txn.Seq > s.baseSeq {
			s.seq = txn.Seq
			s.pushHistoryLocked(txn)
		}
	}
	s.fence = max(s.fence, epoch)
	return nil
}

// commitMarker decodes a commit-marker payload. Current markers are
// 'C' followed by the global sequence and the leadership epoch (8
// bytes little-endian each); markers from before epochs existed are
// 'C' plus the sequence alone (epoch 0), and legacy markers are a
// bare 'C' reporting seq 0 (numbered by the caller).
func commitMarker(payload []byte) (seq int, epoch int64, ok bool) {
	if len(payload) == 0 || payload[0] != 'C' {
		return 0, 0, false
	}
	switch len(payload) {
	case 1:
		return 0, 0, true
	case 9:
		return int(binary.LittleEndian.Uint64(payload[1:])), 0, true
	case 17:
		return int(binary.LittleEndian.Uint64(payload[1:9])),
			int64(binary.LittleEndian.Uint64(payload[9:17])), true
	}
	return 0, 0, false
}

// applyDelta applies a transaction's delta to db. It parses every atom
// first, so a malformed one leaves db unchanged.
func (s *Store) applyDelta(db *core.Database, txn TxnRecord) error {
	added, err := s.internAtoms(txn.Added)
	if err != nil {
		return err
	}
	removed, err := s.internAtoms(txn.Removed)
	if err != nil {
		return err
	}
	for _, id := range added {
		db.Add(id)
	}
	for _, id := range removed {
		db.Remove(id)
	}
	return nil
}

// internAtoms parses ground atoms in rule-language syntax.
func (s *Store) internAtoms(texts []string) ([]core.AID, error) {
	ids := make([]core.AID, len(texts))
	for i, text := range texts {
		id, err := s.internAtomText(text)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// internAtomText parses a ground atom in rule-language syntax.
func (s *Store) internAtomText(text string) (core.AID, error) {
	db, err := parser.ParseDatabase(s.u, "wal", text+".")
	if err != nil {
		return -1, err
	}
	if db.Len() != 1 {
		return -1, fmt.Errorf("record %q is not a single atom", text)
	}
	return db.Atoms()[0], nil
}

// Flight returns the store's flight-recorder ring, or nil when trace
// recording is disabled (WithTraceBuffer(0)). The ring is safe for
// concurrent use; the server layer reads it directly.
func (s *Store) Flight() *flight.Ring { return s.flight }

// Universe returns the store's symbol universe. Programs evaluated
// against the store must be parsed into this universe; the universe
// is safe for concurrent interning, so request parsing never needs
// the store lock.
func (s *Store) Universe() *core.Universe { return s.u }

// current returns the installed state, wait-free.
func (s *Store) current() *core.Database { return s.state.Load() }

// Snapshot returns a copy of the current database instance. It never
// blocks on writers: the installed state is immutable and the clone
// happens outside any lock.
func (s *Store) Snapshot() *core.Database {
	return s.current().Clone()
}

// Len returns the current number of facts, without locking.
func (s *Store) Len() int {
	return s.current().Len()
}

// Seq returns the global sequence number of the most recent
// committed transaction (0 for a fresh store).
func (s *Store) Seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// WALRecords returns the number of delta records since the last
// checkpoint (0 right after Open on a checkpointed store).
func (s *Store) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords
}

// appendRecord writes one record; callers hold s.mu. Op 'C' with
// empty text is the legacy commit marker (tests exercise recovery of
// pre-sequence WALs through this path).
func (s *Store) appendRecord(op byte, atomText string) error {
	payload := make([]byte, 1+len(atomText))
	payload[0] = op
	copy(payload[1:], atomText)
	return s.appendPayload(payload)
}

// appendCommitMarker writes a commit marker carrying the global
// sequence and the leadership epoch; callers hold s.mu. Epoch-0
// stores keep writing the 9-byte pre-epoch marker so their WALs stay
// readable by older binaries.
func (s *Store) appendCommitMarker(seq int, epoch int64) error {
	if epoch == 0 {
		payload := make([]byte, 9)
		payload[0] = 'C'
		binary.LittleEndian.PutUint64(payload[1:], uint64(seq))
		return s.appendPayload(payload)
	}
	payload := make([]byte, 17)
	payload[0] = 'C'
	binary.LittleEndian.PutUint64(payload[1:9], uint64(seq))
	binary.LittleEndian.PutUint64(payload[9:17], uint64(epoch))
	return s.appendPayload(payload)
}

// appendEpochRecord writes a self-committing epoch record ('E' plus
// the epoch, 8 bytes little-endian); callers hold s.mu. It makes a
// promotion durable even when no transaction commits under the new
// epoch before the next crash.
func (s *Store) appendEpochRecord(epoch int64) error {
	payload := make([]byte, 9)
	payload[0] = 'E'
	binary.LittleEndian.PutUint64(payload[1:], uint64(epoch))
	return s.appendPayload(payload)
}

// appendVoteRecord writes a self-committing vote record ('V', epoch,
// voted-for node ID); callers hold s.mu.
func (s *Store) appendVoteRecord(epoch int64, nodeID string) error {
	payload := make([]byte, 9+len(nodeID))
	payload[0] = 'V'
	binary.LittleEndian.PutUint64(payload[1:9], uint64(epoch))
	copy(payload[9:], nodeID)
	return s.appendPayload(payload)
}

// appendFenceRecord writes a self-committing fence record ('F' plus
// the epoch, 8 bytes little-endian); callers hold s.mu. It makes the
// fencing floor durable when it exceeds what the epoch and vote
// records already imply (a snapshot bootstrap authorized by a leader
// epoch above both).
func (s *Store) appendFenceRecord(epoch int64) error {
	payload := make([]byte, 9)
	payload[0] = 'F'
	binary.LittleEndian.PutUint64(payload[1:], uint64(epoch))
	return s.appendPayload(payload)
}

// reseedElectionRecords re-appends the durable vote and fence records
// after the WAL was truncated or rotated (checkpoint, repair,
// snapshot bootstrap), then fsyncs them: the single-vote-per-epoch
// rule and the fencing floor must survive a restart no matter when
// the log was last rewritten. Callers hold s.mu and have just put the
// WAL at a clean record boundary.
func (s *Store) reseedElectionRecords() error {
	appended := false
	if s.voteEpoch > 0 {
		if err := s.appendVoteRecord(s.voteEpoch, s.voteFor); err != nil {
			return err
		}
		appended = true
	}
	if s.fence > s.epoch && s.fence > s.voteEpoch {
		// Neither the snapshot header (epoch) nor the vote record
		// would restore the floor on replay; write it explicitly.
		if err := s.appendFenceRecord(s.fence); err != nil {
			return err
		}
		appended = true
	}
	if appended {
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) appendPayload(payload []byte) error {
	if s.walErr != nil {
		return s.walErr
	}
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := s.wal.Write(hdr[:]); err != nil {
		s.walErr = err
		return err
	}
	if _, err := s.wal.Write(payload); err != nil {
		s.walErr = err
		return err
	}
	s.walRecords++
	s.walBytes += int64(recordHeader + len(payload))
	return nil
}
