package wal

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// Group commit: a bulk load that fsyncs once per triple is bounded by
// disk flush latency, not bandwidth. A GroupLog sits between the store
// and a Dir and only counts commits: records go straight to the Dir's
// buffer, and every SyncEvery commits one Dir.Commit writes the
// buffered frames in one batch, which lands whole in one segment, and
// fsyncs.
//
// The durability contract weakens in exactly one documented way: a crash
// may lose up to the last SyncEvery-1 committed mutations. What survives
// is still a prefix of the record stream in commit order, so recovery
// replays to a consistent state — the crash-point matrix property is
// preserved, only the freshness of the surviving prefix changes.

// GroupOptions configure a GroupLog.
type GroupOptions struct {
	// SyncEvery is the number of Commit calls between fsyncs. 0 or 1
	// syncs on every commit (no grouping).
	SyncEvery int
}

// GroupLog wraps a Dir with group commit. It satisfies the same
// Append/Commit contract as the Dir (core.Durability), so the store
// cannot tell the difference. Close flushes and closes the Dir.
type GroupLog struct {
	log  *Dir
	opts GroupOptions

	mu      sync.Mutex
	pending int           // commits since the last sync
	err     error         // first flush failure, latched: the log is behind memory
	met     *Metrics      // nil when instrumentation is disabled
	tracer  *trace.Tracer // nil when tracing is disabled
}

// SetMetrics attaches instrumentation to the group layer and the
// underlying Dir (the Dir records appends, fsync latency and disk usage;
// the group layer records flush batching and the buffered-commit gauge).
// Call before the GroupLog is shared.
func (g *GroupLog) SetMetrics(m *Metrics) {
	g.mu.Lock()
	g.met = m
	g.mu.Unlock()
	g.log.SetMetrics(m)
}

// SetTracer attaches a span tracer: every flush records a background
// "wal.flush" root span around the Dir's write and fsync, so
// the tail sampler retains slow or failed flushes — the group-commit
// half of a slow insert that the request span alone cannot see. Call
// before the GroupLog is shared; nil disables (the default) and the
// flush path then never touches the tracer or the clock for spans.
func (g *GroupLog) SetTracer(tr *trace.Tracer) {
	g.mu.Lock()
	g.tracer = tr
	g.mu.Unlock()
}

// Group wraps d with group commit. Call Close (or Flush) before
// discarding the GroupLog, or the buffered commits are lost.
func Group(d *Dir, opts GroupOptions) *GroupLog {
	if opts.SyncEvery < 1 {
		opts.SyncEvery = 1
	}
	return &GroupLog{log: d, opts: opts}
}

// Append hands the record to the Dir's buffer. Nothing reaches the file
// until the next flush, unless the buffer outgrows maxPending; a failure
// of that early write is latched like a failed flush.
func (g *GroupLog) Append(r Record) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	if err := g.log.Append(r); err != nil {
		g.err = err
		g.met.onGroupFlushError()
		return err
	}
	return nil
}

// Commit marks a commit boundary. Every SyncEvery-th commit flushes the
// buffer and fsyncs; in between, the commit is acknowledged from memory.
func (g *GroupLog) Commit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	g.pending++
	if g.pending >= g.opts.SyncEvery {
		return g.flushLocked()
	}
	g.met.setBuffered(g.pending)
	return nil
}

// Flush writes and fsyncs everything buffered, regardless of SyncEvery.
// Call it before checkpointing and before exit.
func (g *GroupLog) Flush() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	if g.pending == 0 {
		return nil
	}
	return g.flushLocked()
}

// flushLocked commits the Dir: the buffered frames in one write, then
// the fsync. A failure is latched: the in-memory store is ahead of the
// log from that point on, and every later Append/Commit reports it.
// Caller holds g.mu.
func (g *GroupLog) flushLocked() error {
	sp := g.tracer.StartRoot("wal.flush") // nil tracer → nil span, no clock read
	defer sp.End()
	sp.SetInt("commits", int64(g.pending))
	if err := g.log.Commit(); err != nil {
		g.err = fmt.Errorf("wal: group flush: %w", err)
		g.met.onGroupFlushError()
		sp.SetError(g.err)
		return g.err
	}
	g.met.onGroupFlush(g.pending)
	g.pending = 0
	return nil
}

// Err returns the latched flush error, if any: non-nil means the
// in-memory store is ahead of the log and every Append/Commit is being
// rejected with this error.
func (g *GroupLog) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Buffered reports the number of commits currently held in memory —
// the most a crash right now could lose.
func (g *GroupLog) Buffered() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending
}

// Close flushes outstanding commits and closes the Dir.
func (g *GroupLog) Close() error {
	flushErr := g.Flush()
	if err := g.log.Close(); err != nil {
		return err
	}
	return flushErr
}
