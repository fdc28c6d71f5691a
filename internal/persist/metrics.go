package persist

import (
	"time"

	"repro/internal/metrics"
)

// BatchBuckets are the histogram bucket bounds for group-commit batch
// sizes (transactions per fsync).
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// storeMetrics holds the commit-pipeline instruments. All fields are
// optional (nil when the store is not instrumented), so every method
// is nil-safe; a bare library store pays only a nil check per event.
type storeMetrics struct {
	fsyncs    *metrics.Counter   // park_store_fsyncs_total
	batchSize *metrics.Histogram // park_store_commit_batch_size
	queueWait *metrics.Histogram // park_store_commit_queue_wait_seconds
	lockWait  *metrics.Histogram // park_store_commit_lock_wait_seconds

	degraded      *metrics.Gauge   // park_store_degraded
	degradeEvents *metrics.Counter // park_store_degrade_events_total
	probes        *metrics.Counter // park_store_disk_probes_total
	probeOK       *metrics.Counter // park_store_disk_probe_successes_total

	fenced *metrics.Counter // park_store_fenced_txns_total
	epoch  *metrics.Gauge   // park_store_epoch
}

// Instrument registers the store's commit-pipeline metrics in reg and
// starts recording into them. Call once, before serving traffic.
func (s *Store) Instrument(reg *metrics.Registry) {
	s.met = storeMetrics{
		fsyncs: reg.Counter("park_store_fsyncs_total",
			"WAL fsyncs issued; with group commit one fsync covers a batch of transactions."),
		batchSize: reg.Histogram("park_store_commit_batch_size",
			"Transactions made durable per fsync (group-commit batch size).", BatchBuckets),
		queueWait: reg.Histogram("park_store_commit_queue_wait_seconds",
			"Time transactions waited for the commit slot.", nil),
		lockWait: reg.Histogram("park_store_commit_lock_wait_seconds",
			"Time committers waited for the install lock.", nil),
		degraded: reg.Gauge("park_store_degraded",
			"1 while the store is in degraded read-only mode after a durability failure, else 0."),
		degradeEvents: reg.Counter("park_store_degrade_events_total",
			"Transitions into degraded read-only mode."),
		probes: reg.Counter("park_store_disk_probes_total",
			"Disk re-probe attempts made while degraded."),
		probeOK: reg.Counter("park_store_disk_probe_successes_total",
			"Disk probes that succeeded and led to a completed repair."),
		fenced: reg.Counter("park_store_fenced_txns_total",
			"Replicated transactions rejected because they carried a deposed leadership epoch."),
		epoch: reg.Gauge("park_store_epoch",
			"Leadership epoch the store stamps commits with."),
	}
	if s.Health().Degraded {
		s.met.degraded.Set(1)
	}
	s.met.epoch.Set(s.Epoch())
}

// observeBatch records one completed fsync and its batch size.
func (m *storeMetrics) observeBatch(n int64) {
	if m.fsyncs != nil {
		m.fsyncs.Inc()
	}
	if m.batchSize != nil && n > 0 {
		m.batchSize.Observe(float64(n))
	}
}

func (m *storeMetrics) observeQueueWait(d time.Duration) {
	if m.queueWait != nil {
		m.queueWait.Observe(d.Seconds())
	}
}

func (m *storeMetrics) observeLockWait(d time.Duration) {
	if m.lockWait != nil {
		m.lockWait.Observe(d.Seconds())
	}
}

// setDegraded flips the degraded gauge.
func (m *storeMetrics) setDegraded(down bool) {
	if m.degraded != nil {
		if down {
			m.degraded.Set(1)
		} else {
			m.degraded.Set(0)
		}
	}
}

func (m *storeMetrics) incDegrade() {
	if m.degradeEvents != nil {
		m.degradeEvents.Inc()
	}
}

func (m *storeMetrics) incProbe() {
	if m.probes != nil {
		m.probes.Inc()
	}
}

func (m *storeMetrics) incProbeSuccess() {
	if m.probeOK != nil {
		m.probeOK.Inc()
	}
}

func (m *storeMetrics) incFenced() {
	if m.fenced != nil {
		m.fenced.Inc()
	}
}

// setEpoch publishes the store's current leadership epoch.
func (m *storeMetrics) setEpoch(epoch int64) {
	if m.epoch != nil {
		m.epoch.Set(epoch)
	}
}
