package wal

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// Metrics instruments a Dir (and optionally a GroupLog) against an obs
// registry. A nil *Metrics is the disabled state: every hook below is a
// nil-receiver no-op, so the uninstrumented hot path costs one branch
// and never calls time.Now. Attach with SetMetrics before the log is
// shared across goroutines.
type Metrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	fsyncErrors *obs.Counter
	fsyncLat    *obs.Histogram

	groupFlushes    *obs.Counter
	groupFlushErrs  *obs.Counter
	groupCommitsPer *obs.Histogram
	groupBuffered   *obs.Gauge

	segments      *obs.Gauge
	diskBytes     *obs.Gauge
	rotations     *obs.Counter
	retired       *obs.Counter
	budgetRejects *obs.Counter
	softCrossings *obs.Counter
	tornTails     *obs.Counter

	events *obs.EventLog
}

// NewMetrics registers the WAL metric families on reg. Returns nil when
// reg is nil, which disables instrumentation end to end.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		appends:     reg.Counter("wal_appends_total", "records appended to the WAL"),
		appendBytes: reg.Counter("wal_append_bytes_total", "framed bytes appended to the WAL"),
		fsyncs:      reg.Counter("wal_fsyncs_total", "fsync calls on the WAL file"),
		fsyncErrors: reg.Counter("wal_fsync_errors_total", "failed fsync calls on the WAL file"),
		fsyncLat:    reg.Histogram("wal_fsync_seconds", "WAL fsync latency", obs.DurationBuckets),

		groupFlushes:    reg.Counter("wal_group_flushes_total", "group-commit flushes (write + fsync batches)"),
		groupFlushErrs:  reg.Counter("wal_group_flush_errors_total", "group-commit flushes that failed and latched an error"),
		groupCommitsPer: reg.Histogram("wal_group_commits_per_flush", "commits acknowledged per group flush", obs.CountBuckets),
		groupBuffered:   reg.Gauge("wal_group_buffered_commits", "commits currently buffered in memory (max loss on crash)"),

		segments:      reg.Gauge("wal_segments", "retained WAL segment files"),
		diskBytes:     reg.Gauge("wal_disk_bytes", "total bytes across retained WAL segments"),
		rotations:     reg.Counter("wal_rotations_total", "segment rotations (full segment sealed, fresh one opened)"),
		retired:       reg.Counter("wal_segments_retired_total", "segments deleted by checkpoint retention"),
		budgetRejects: reg.Counter("wal_budget_rejections_total", "appends rejected by the hard disk budget"),
		softCrossings: reg.Counter("wal_soft_watermark_total", "soft disk-watermark crossings (auto-checkpoint triggers)"),
		tornTails:     reg.Counter("wal_torn_tails_total", "torn tails detected and truncated during recovery"),

		events: reg.Events(),
	}
}

// OnTornTail records a torn-tail repair observed during recovery: the
// counter ticks and a structured event lands in the registry's event
// ring so operators learn a crash ate bytes. source names the log
// ("store.wal", a segment file, ...).
func (m *Metrics) OnTornTail(source string, validBytes int64, tailErr error) {
	if m == nil {
		return
	}
	m.tornTails.Inc()
	fields := map[string]string{
		"source":      source,
		"valid_bytes": strconv.FormatInt(validBytes, 10),
	}
	if tailErr != nil {
		fields["tail_error"] = tailErr.Error()
	}
	m.events.Emit("wal", "torn_tail", fields)
}

// startTimer returns now, or the zero time when metrics are disabled so
// the paired Histogram.ObserveSince is a no-op.
func (m *Metrics) startTimer() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *Metrics) onAppend(bytes int) {
	if m == nil {
		return
	}
	m.appends.Inc()
	m.appendBytes.Add(int64(bytes))
}

func (m *Metrics) onFsync(t0 time.Time) {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
	m.fsyncLat.ObserveSince(t0)
}

func (m *Metrics) onFsyncError() {
	if m == nil {
		return
	}
	m.fsyncErrors.Inc()
}

func (m *Metrics) onGroupFlush(commits int) {
	if m == nil {
		return
	}
	m.groupFlushes.Inc()
	m.groupCommitsPer.Observe(float64(commits))
	m.groupBuffered.Set(0)
}

func (m *Metrics) onGroupFlushError() {
	if m == nil {
		return
	}
	m.groupFlushErrs.Inc()
}

func (m *Metrics) setBuffered(n int) {
	if m == nil {
		return
	}
	m.groupBuffered.Set(int64(n))
}

func (m *Metrics) setDiskUsage(segments int, bytes int64) {
	if m == nil {
		return
	}
	m.segments.Set(int64(segments))
	m.diskBytes.Set(bytes)
}

func (m *Metrics) onRotate() {
	if m == nil {
		return
	}
	m.rotations.Inc()
}

func (m *Metrics) onRetire(n int) {
	if m == nil {
		return
	}
	m.retired.Add(int64(n))
}

func (m *Metrics) onBudgetReject() {
	if m == nil {
		return
	}
	m.budgetRejects.Inc()
}

func (m *Metrics) onSoftWatermark() {
	if m == nil {
		return
	}
	m.softCrossings.Inc()
	m.events.Emit("wal", "soft_watermark", nil)
}
