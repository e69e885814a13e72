package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into a layer. Spans of
// one operation share Op. In the ladder the same operation is issued
// once per rung, so a child span is the rung below its parent, not a
// sub-interval of it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the top rung
	Op      int    `json:"op"`
	Kind    string `json:"kind"` // operation kind, e.g. find_s
	Name    string `json:"name"` // rung, e.g. core.find
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how a run with tracing off pays nothing.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// start opens a span and returns its id (-1 from a nil recorder).
func (r *spanRecorder) start(op int, kind, name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Kind: kind, Name: name})
	// The clock is read last, inside the lock, so that bookkeeping stays
	// outside the measured interval.
	r.spans[id].StartNS = int64(time.Since(r.epoch))
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// writeJSONL writes one span per line.
func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungKey names one rung of one operation kind.
type rungKey struct{ kind, name string }

// rungStat is the fold of every span of one rung.
type rungStat struct {
	n      int
	total  time.Duration // median duration of the rung
	self   time.Duration // median over operations of (duration − durations of the child rungs)
	parent string        // rung above, "" for the top
}

// foldSpans computes each rung's total and self time. Self time is
// taken per operation — the span's duration minus the durations of its
// child spans — and then the median over operations, so one slow call
// on either rung does not decide the difference.
func foldSpans(spans []span) map[rungKey]rungStat {
	childSum := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	type acc struct {
		total, self []time.Duration
		parent      string
	}
	accs := map[rungKey]*acc{}
	for _, s := range spans {
		k := rungKey{s.Kind, s.Name}
		a := accs[k]
		if a == nil {
			a = &acc{}
			accs[k] = a
		}
		if s.Parent >= 0 {
			a.parent = spans[s.Parent].Name
		}
		a.total = append(a.total, s.dur())
		a.self = append(a.self, s.dur()-childSum[s.ID])
	}
	out := make(map[rungKey]rungStat, len(accs))
	for k, a := range accs {
		out[k] = rungStat{n: len(a.total), total: median(a.total), self: median(a.self), parent: a.parent}
	}
	return out
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 50)
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
