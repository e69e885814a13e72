// Package trace is a stdlib-only span tracer with tail-based sampling:
// the correlation layer that turns the repo's aggregate metrics (obs)
// and per-query EXPLAIN traces (match.Trace) into per-request span
// trees, so "why was THIS request slow" is answerable across the
// server → admission queue → planner → iterator engine → WAL commit
// path.
//
// Design points, in the repo's established idiom:
//
//   - Nil disables. A nil *Tracer and a nil *Span are no-ops on every
//     method — the same discipline as obs's nil instruments. The
//     disabled hot path is a single nil check; it never reads the
//     clock. (Verified by the disabled-path benchmarks in
//     internal/match and internal/core.)
//   - Tail-based sampling. Whether a trace is retained is decided when
//     its ROOT span ends, not when it starts: traces that were slow
//     (>= Config.SlowThreshold), errored, or force-retained (the
//     server forces rejected and 5xx/507-mapped requests) are always
//     kept; the fast, clean rest is sampled at Config.SampleRate. Head
//     sampling cannot keep "every slow request" without keeping
//     everything — tail sampling can, which is the whole point for
//     tail-latency debugging.
//   - Bounded everything. Retained traces live in a fixed-capacity
//     ring (oldest evicted); each trace records at most MaxSpans spans
//     (the rest are dropped and the trace is marked truncated). A
//     tracer can run forever in a server without growing.
//
// Spans reach the tracer two ways: Start/Child/End around live code
// paths, and AddCompleted for pre-measured phases (a join stage's
// timings are collected by the engine after the fact; re-running the
// pipeline under closures just to get spans would distort the thing
// being measured).
//
// W3C trace-context interop: StartRemote accepts an incoming
// `traceparent` header so an external load balancer's trace ID is
// reused, and Span.Traceparent renders the outgoing form.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Config's zero values.
const (
	DefaultSlowThreshold = 100 * time.Millisecond
	DefaultSampleRate    = 0.01
	DefaultCapacity      = 256
	DefaultMaxSpans      = 512
)

// Retention reasons recorded on TraceData.Reason.
const (
	ReasonSlow    = "slow"    // root duration >= SlowThreshold
	ReasonError   = "error"   // a span in the trace failed
	ReasonForced  = "forced"  // Span.Force — rejections, 5xx/507 mappings
	ReasonSampled = "sampled" // probabilistic survivor of SampleRate
)

// Config configures New. Zero fields take the documented defaults.
type Config struct {
	// SlowThreshold is the tail-sampling slowness bar: a trace whose
	// root span runs at least this long is always retained.
	SlowThreshold time.Duration
	// SampleRate is the probability ([0,1]) that a fast, clean,
	// unforced trace is retained anyway — the background sample that
	// keeps the explorer representative, not just pathological.
	SampleRate float64
	// Capacity bounds the retained-trace ring (oldest evicted).
	Capacity int
	// MaxSpans bounds the spans recorded per trace; excess spans are
	// dropped and the trace marked truncated.
	MaxSpans int
}

// SpanData is one finished span on the wire: the JSON element of a
// trace's span list and the unit the tree renderer works from.
type SpanData struct {
	ID       string            `json:"id"`
	Parent   string            `json:"parent,omitempty"` // empty for the root
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Error    bool              `json:"error,omitempty"`
}

// TraceData is one retained trace: the root's identity and timing plus
// every recorded span, in end order (parents may end after children).
type TraceData struct {
	ID        string        `json:"id"`
	Root      string        `json:"root"` // root span name
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"duration_ns"`
	Error     bool          `json:"error,omitempty"`
	Reason    string        `json:"reason"`
	Truncated bool          `json:"truncated,omitempty"`
	Spans     []SpanData    `json:"spans"`
}

// RootAttr returns an attribute of the trace's root span ("" when
// absent) — how the explorer filters by tenant without a schema.
func (td *TraceData) RootAttr(key string) string {
	for i := range td.Spans {
		if td.Spans[i].Parent == "" {
			return td.Spans[i].Attrs[key]
		}
	}
	return ""
}

// Tracer mints trace/span IDs, records span trees into per-trace
// buffers, and tail-samples finished traces into a bounded store. A
// nil Tracer is disabled: every method is a no-op and Start returns a
// nil Span.
type Tracer struct {
	cfg Config
	rng atomic.Uint64 // splitmix64 state: IDs and sampling draws

	mu   sync.Mutex
	ring []TraceData    // retained traces, fixed capacity
	byID map[string]int // trace ID -> ring slot
	next int            // ring write cursor
	full bool
}

// New builds a Tracer; zero Config fields take the defaults.
func New(cfg Config) *Tracer {
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	t := &Tracer{
		cfg:  cfg,
		ring: make([]TraceData, cfg.Capacity),
		byID: make(map[string]int, cfg.Capacity),
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		t.rng.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		// crypto/rand failing is a broken platform; fall back to a
		// fixed odd seed rather than refusing to trace.
		t.rng.Store(0x9e3779b97f4a7c15)
	}
	return t
}

// rand64 is an atomic splitmix64 step — cheap, lock-free, good enough
// for span IDs and sampling draws (not security).
func (t *Tracer) rand64() uint64 {
	x := t.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sample draws the probabilistic retention decision.
func (t *Tracer) sample() bool {
	r := t.cfg.SampleRate
	if r <= 0 {
		return false
	}
	if r >= 1 {
		return true
	}
	return float64(t.rand64()>>11)/(1<<53) < r
}

func fmtSpanID(id uint64) string { return fmt.Sprintf("%016x", id) }

// rec is the shared per-trace buffer every span of one trace appends
// into. The root span's End finalizes it through the tail sampler.
type rec struct {
	t  *Tracer
	id string // 32-hex trace ID

	mu        sync.Mutex
	spans     []SpanData
	errored   bool
	forced    bool
	truncated bool
}

// Span is one live span. All methods are nil-safe; End must be called
// on every path (defer-satisfied) — enforced repo-wide by the
// releasecheck analyzer's span obligation.
type Span struct {
	rec    *rec
	id     uint64
	parent uint64 // 0 for the root
	name   string
	start  time.Time

	// Guarded by rec.mu: spans may be touched from the goroutine that
	// created them and marked failed from error paths.
	attrs  map[string]string
	failed bool
	ended  bool
}

type ctxKey struct{}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// WithSpan returns ctx carrying s (unchanged when s is nil).
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// Start opens a span: a child of the span already in ctx, or a new
// root. The returned context carries the new span. A nil Tracer
// returns (ctx, nil) without touching the clock.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		c := parent.Child(name)
		return WithSpan(ctx, c), c
	}
	s := t.newRoot(name, "")
	return WithSpan(ctx, s), s
}

// StartRoot opens a root span outside any request context — the entry
// point for background subsystems (recovery, automatic checkpoints).
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newRoot(name, "")
}

// StartRemote opens a root span continuing an incoming W3C
// traceparent header: the remote trace ID is reused so an external
// load balancer's trace correlates with ours. An empty or malformed
// header starts a fresh trace.
func (t *Tracer) StartRemote(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	traceID, remoteParent, ok := ParseTraceparent(traceparent)
	s := t.newRoot(name, traceID)
	if ok && remoteParent != "" {
		s.SetAttr("remote_parent", remoteParent)
	}
	return WithSpan(ctx, s), s
}

func (t *Tracer) newRoot(name, traceID string) *Span {
	if traceID == "" {
		traceID = fmt.Sprintf("%016x%016x", t.rand64(), t.rand64())
	}
	return &Span{
		rec:   &rec{t: t, id: traceID},
		id:    t.rand64(),
		name:  name,
		start: time.Now(),
	}
}

// Child opens a sub-span of s in the same trace. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		rec:    s.rec,
		id:     s.rec.t.rand64(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
}

// TraceID returns the 32-hex trace ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.id
}

// SpanID returns the 16-hex span ID ("" for a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return fmtSpanID(s.id)
}

// SetAttr records a string attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.rec.mu.Unlock()
}

// SetInt records an integer attribute on the span. Nil-safe without
// formatting the value.
func (s *Span) SetInt(key string, value int64) {
	if s != nil {
		s.SetAttr(key, fmt.Sprintf("%d", value))
	}
}

// SetError marks the span (and hence the trace) failed when err is
// non-nil, recording the message.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	msg := err.Error() // outside the lock: Error() is arbitrary caller code
	s.rec.mu.Lock()
	s.failed = true
	s.rec.errored = true
	if s.attrs == nil {
		s.attrs = make(map[string]string, 2)
	}
	s.attrs["error"] = msg
	s.rec.mu.Unlock()
}

// Force pins the trace for retention regardless of duration or
// sampling — the server forces rejected (429) and 5xx/507-mapped
// requests so every shed or failed request is explorable.
func (s *Span) Force() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.rec.forced = true
	s.rec.mu.Unlock()
}

// AddCompleted appends an already-measured child span without opening
// an End obligation — for phases timed by the code being traced (join
// stages, InsertBatch phases) where wrapping live spans around the
// hot loop would distort it. attrs is retained, not copied; callers
// pass a fresh map. The returned span is already ended and exists
// only to parent further AddCompleted calls (nil when the trace's
// span budget is exhausted — safe, since a nil parent no-ops too).
func (s *Span) AddCompleted(name string, start time.Time, d time.Duration, attrs map[string]string, failed bool) *Span {
	if s == nil {
		return nil
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if failed {
		r.errored = true
	}
	if len(r.spans) >= r.t.cfg.MaxSpans {
		r.truncated = true
		return nil
	}
	id := r.t.rand64()
	r.spans = append(r.spans, SpanData{
		ID:       fmtSpanID(id),
		Parent:   fmtSpanID(s.id),
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
		Error:    failed,
	})
	return &Span{rec: r, id: id, parent: s.id, name: name, start: start, ended: true}
}

// End finishes the span. Ending the root finalizes the trace through
// the tail sampler; ending twice is a no-op. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	r := s.rec
	r.mu.Lock()
	if s.ended {
		r.mu.Unlock()
		return
	}
	s.ended = true
	if s.failed {
		r.errored = true
	}
	sd := SpanData{
		ID:       fmtSpanID(s.id),
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Attrs:    s.attrs,
		Error:    s.failed,
	}
	if s.parent != 0 {
		sd.Parent = fmtSpanID(s.parent)
	}
	if len(r.spans) < r.t.cfg.MaxSpans {
		r.spans = append(r.spans, sd)
	} else {
		r.truncated = true
	}
	if s.parent != 0 {
		r.mu.Unlock()
		return
	}
	// Root: finalize. Snapshot under the lock, sample outside it.
	spans := r.spans
	errored := r.errored
	forced := r.forced
	truncated := r.truncated
	r.mu.Unlock()
	r.t.finish(TraceData{
		ID:        r.id,
		Root:      s.name,
		Start:     s.start,
		Duration:  d,
		Error:     errored,
		Truncated: truncated,
		Spans:     spans,
	}, forced)
}

// finish is the tail-sampling decision plus the bounded store.
func (t *Tracer) finish(td TraceData, forced bool) {
	switch {
	case forced:
		td.Reason = ReasonForced
	case td.Error:
		td.Reason = ReasonError
	case td.Duration >= t.cfg.SlowThreshold:
		td.Reason = ReasonSlow
	case t.sample():
		td.Reason = ReasonSampled
	default:
		return // dropped: fast, clean, unforced, unlucky
	}
	t.mu.Lock()
	slot := t.next
	if t.full {
		delete(t.byID, t.ring[slot].ID)
	}
	t.ring[slot] = td
	t.byID[td.ID] = slot
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Get returns a retained trace by ID.
func (t *Tracer) Get(id string) (TraceData, bool) {
	if t == nil {
		return TraceData{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.byID[id]
	if !ok {
		return TraceData{}, false
	}
	return t.ring[slot], true
}

// Snapshot returns the retained traces, newest first.
func (t *Tracer) Snapshot() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	out := make([]TraceData, 0, n)
	for i := 0; i < n; i++ {
		slot := t.next - 1 - i
		if slot < 0 {
			slot += len(t.ring)
		}
		out = append(out, t.ring[slot])
	}
	return out
}

// Len reports how many traces are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.ring)
	}
	return t.next
}
