// Package obs is the runtime observability layer: a stdlib-only metrics
// registry (atomic counters, gauges, fixed-bucket histograms), a
// structured event log (ring buffer), and an embeddable admin HTTP
// surface (Prometheus-text /metrics, JSON /healthz and /events, pprof).
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. Every instrument is nil-safe: a nil
//     *Counter/*Gauge/*Histogram/*EventLog is a no-op, and a nil
//     *Registry hands out nil instruments. Packages hold instrument
//     pointers in a metrics struct whose methods check the struct
//     pointer for nil once — the disabled hot path is a single
//     predictable branch, no time.Now(), no map lookups, no locks
//     (verified by benchmark, see DESIGN.md §7).
//  2. Lock-free on the write path. Counter.Add and Histogram.Observe
//     are atomic operations on pre-registered state; registration (the
//     only locked operation) happens once at attach time, never per
//     observation.
//  3. Snapshot-on-read. Exposition walks a point-in-time copy, so a
//     scrape never blocks a writer and never sees a torn histogram
//     (bucket counts are read after count/sum, making the usual
//     monotonicity guarantees hold per-series).
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// nameRE validates metric names (Prometheus exposition identifier).
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Counter is a monotonically increasing metric. A nil Counter is a valid
// no-op instrument.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Add increments the counter by n (n < 0 is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil Gauge is a valid
// no-op instrument.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns a process's instruments. The zero value is not usable;
// create with NewRegistry. A nil *Registry is valid everywhere and hands
// out nil instruments, so callers thread a single pointer through the
// stack and pay nothing when it is nil.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	funcs  map[string]*counterFunc
	events *EventLog
}

// counterFunc is a family of labelled counters owned by the code that
// registered it and read only when the registry is snapshotted.
type counterFunc struct {
	name, help string
	collect    func(emit func(labels string, value int64))
}

// DefaultEventCapacity is the event ring size NewRegistry allocates.
const DefaultEventCapacity = 512

// NewRegistry creates an empty registry with an event log of
// DefaultEventCapacity.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
		funcs:  map[string]*counterFunc{},
		events: NewEventLog(DefaultEventCapacity),
	}
}

// Events returns the registry's event log (nil for a nil registry).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// checkName panics on a malformed metric name or a name already
// registered as a different kind — both are programmer errors caught the
// first time the instrument is built.
func (r *Registry) checkName(name, kind string) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	taken := func(ok bool, as string) {
		if ok && as != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, as))
		}
	}
	_, isC := r.counts[name]
	_, isG := r.gauges[name]
	_, isH := r.hists[name]
	_, isF := r.funcs[name]
	taken(isF, "counter family")
	taken(isC, "counter")
	taken(isG, "gauge")
	taken(isH, "histogram")
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counts[name] = c
	return c
}

// CounterFunc registers a family of labelled counters that live outside
// the registry: collect is called on every Snapshot and emits one value
// per label block (`table="rdf_link$",index="rdf_link_mp"`), so counting
// costs the owner nothing the registry can see, and nothing at all is
// registered on a nil registry. Registering a name again replaces its
// collect function.
func (r *Registry) CounterFunc(name, help string, collect func(emit func(labels string, value int64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter family")
	r.funcs[name] = &counterFunc{name: name, help: help, collect: collect}
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// instrument and ignore bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(name, help, bounds)
	r.hists[name] = h
	return h
}

// Snapshot captures every instrument's current value, sorted by name.
// Safe to call concurrently with writers; each series is internally
// consistent (histogram count >= sum of buckets read, never less).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counts := make([]*Counter, 0, len(r.counts))
	for _, c := range r.counts {
		counts = append(counts, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	funcs := make([]*counterFunc, 0, len(r.funcs))
	for _, f := range r.funcs {
		funcs = append(funcs, f)
	}
	r.mu.Unlock()

	var snap Snapshot
	for _, f := range funcs {
		fam := FamilySnap{Name: f.name, Help: f.help}
		f.collect(func(labels string, value int64) {
			fam.Samples = append(fam.Samples, LabelledSnap{Labels: labels, Value: value})
		})
		snap.Families = append(snap.Families, fam)
	}
	sort.Slice(snap.Families, func(i, j int) bool { return snap.Families[i].Name < snap.Families[j].Name })
	for _, c := range counts {
		snap.Counters = append(snap.Counters, CounterSnap{Name: c.name, Help: c.help, Value: c.v.Load()})
	}
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: g.name, Help: g.help, Value: g.v.Load()})
	}
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, h.snapshot())
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// Snapshot is a point-in-time copy of a registry's instruments.
type Snapshot struct {
	Counters   []CounterSnap
	Families   []FamilySnap
	Gauges     []GaugeSnap
	Histograms []HistogramSnap
}

// FamilySnap is one labelled counter family's snapshot (see CounterFunc),
// its samples in the order they were emitted.
type FamilySnap struct {
	Name    string
	Help    string
	Samples []LabelledSnap
}

// LabelledSnap is one sample of a family: a label block and its value.
type LabelledSnap struct {
	Labels string
	Value  int64
}

// CounterSnap is one counter's snapshot.
type CounterSnap struct {
	Name  string
	Help  string
	Value int64
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Name  string
	Help  string
	Value int64
}

// Series returns the number of metric families in the snapshot.
func (s Snapshot) Series() int {
	return len(s.Counters) + len(s.Families) + len(s.Gauges) + len(s.Histograms)
}

// Histogram looks up a histogram snapshot by name.
func (s Snapshot) Histogram(name string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnap{}, false
}

// Counter looks up a counter snapshot by name.
func (s Snapshot) Counter(name string) (CounterSnap, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return CounterSnap{}, false
}

// Gauge looks up a gauge snapshot by name.
func (s Snapshot) Gauge(name string) (GaugeSnap, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g, true
		}
	}
	return GaugeSnap{}, false
}
