package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/reldb"
)

// Metrics instruments the store against an obs registry. A nil *Metrics
// is the disabled state: every hook is a nil-receiver no-op, so the
// uninstrumented hot path pays one branch and never calls time.Now.
//
// The lock-wait histograms time only the acquisition of s.mu (how long a
// caller queued behind writers/readers), not the critical section — they
// answer "is the store lock contended", which is the question the single
// global RWMutex design raises.
type Metrics struct {
	batches     *obs.Counter
	batchSize   *obs.Histogram
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	lockWaitW   *obs.Histogram
	lockWaitR   *obs.Histogram

	checkpoints   *obs.Counter
	checkpointDur *obs.Histogram
	replayRecords *obs.Counter
	replayDur     *obs.Histogram

	triples  *obs.Gauge
	ndmSteps *obs.Counter

	reg *obs.Registry // for the families SetMetrics registers
}

// NewMetrics registers the store metric families on reg. Returns nil
// when reg is nil, which disables instrumentation end to end.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		batches:     reg.Counter("core_insert_batches_total", "InsertBatch calls"),
		batchSize:   reg.Histogram("core_insert_batch_triples", "triples per InsertBatch call", obs.CountBuckets),
		cacheHits:   reg.Counter("core_term_cache_hits_total", "term interning resolved from the term dictionary"),
		cacheMisses: reg.Counter("core_term_cache_misses_total", "term interning that found a new term"),
		lockWaitW:   reg.Histogram("core_write_lock_wait_seconds", "time spent acquiring the store write lock", obs.DurationBuckets),
		lockWaitR:   reg.Histogram("core_read_lock_wait_seconds", "time spent acquiring the store read lock", obs.DurationBuckets),

		checkpoints:   reg.Counter("core_checkpoints_total", "completed checkpoints (snapshot + WAL reset)"),
		checkpointDur: reg.Histogram("core_checkpoint_seconds", "checkpoint duration", obs.DurationBuckets),
		replayRecords: reg.Counter("core_replay_records_total", "WAL records applied during recovery replay"),
		replayDur:     reg.Histogram("core_replay_seconds", "recovery replay duration", obs.DurationBuckets),

		triples:  reg.Gauge("core_triples", "rdf_link$ rows across all models"),
		ndmSteps: reg.Counter("ndm_traversal_steps_total", "graph elements visited by NDM traversals (nodes enumerated plus links expanded)"),

		reg: reg,
	}
}

// SetMetrics attaches instrumentation to the store. Like SetDurability,
// call before the store is shared across goroutines: the field is read
// by lock-wait timing before s.mu is acquired, so attach-before-share is
// the synchronization.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = m
	m.exportIndexStats(s.models, s.values, s.nodes, s.links, s.blanks)
}

// exportIndexStats publishes how often each index of the central schema's
// tables has been read, as reldb_index_probes_total and
// reldb_index_scans_total{table,index}. The counts are the indexes' own
// (reldb.Index.Stats), read when the registry is scraped: an access path
// no plan takes shows as a zero that stays zero.
func (m *Metrics) exportIndexStats(tables ...*reldb.Table) {
	if m == nil {
		return
	}
	family := func(name, help string, read func(reldb.IndexStats) uint64) {
		m.reg.CounterFunc(name, help, func(emit func(labels string, value int64)) {
			for _, t := range tables {
				for _, ix := range t.Indexes() {
					emit(fmt.Sprintf("table=%q,index=%q", t.Name(), ix.Name()), int64(read(ix.Stats())))
				}
			}
		})
	}
	family("reldb_index_probes_total", "point lookups made through an index", func(st reldb.IndexStats) uint64 { return st.Probes })
	family("reldb_index_scans_total", "range and prefix scans made through an index", func(st reldb.IndexStats) uint64 { return st.Scans })
}

// startTimer returns now, or the zero time when metrics are disabled so
// the paired Histogram.ObserveSince is a no-op.
func (m *Metrics) startTimer() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *Metrics) onWriteLockAcquired(t0 time.Time) {
	if m == nil {
		return
	}
	m.lockWaitW.ObserveSince(t0)
}

func (m *Metrics) onReadLockAcquired(t0 time.Time) {
	if m == nil {
		return
	}
	m.lockWaitR.ObserveSince(t0)
}

func (m *Metrics) onBatch(size int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchSize.Observe(float64(size))
}

func (m *Metrics) onCacheHit() {
	if m == nil {
		return
	}
	m.cacheHits.Inc()
}

func (m *Metrics) onCacheMiss() {
	if m == nil {
		return
	}
	m.cacheMisses.Inc()
}

func (m *Metrics) onCheckpoint(t0 time.Time) {
	if m == nil {
		return
	}
	m.checkpoints.Inc()
	m.checkpointDur.ObserveSince(t0)
}

func (m *Metrics) onReplay(records int, t0 time.Time) {
	if m == nil {
		return
	}
	m.replayRecords.Add(int64(records))
	m.replayDur.ObserveSince(t0)
}

func (m *Metrics) setTriples(n int) {
	if m == nil {
		return
	}
	m.triples.Set(int64(n))
}

func (m *Metrics) onTraversalSteps(n int) {
	if m == nil {
		return
	}
	m.ndmSteps.Add(int64(n))
}
