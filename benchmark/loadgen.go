package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is how many keep-alive connections drive the server. The
// sandbox has two cores, shared between the server and this process;
// more connections would measure the scheduler.
const clients = 2

// driver sends generated requests to one server over a fixed pool of
// keep-alive connections and checks every response.
type driver struct {
	base string
	hc   *http.Client
	rec  *spanRecorder // nil unless tracing inside the benchmark is on
}

func newDriver(base string, rec *spanRecorder) *driver {
	return &driver{base: base, rec: rec, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		Timeout:   30 * time.Second,
	}}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

// do sends r and checks the answer. A transport error, a non-200 status
// and a wrong answer are all failures; a 429 or 503 is also a refusal.
func (d *driver) do(ctx context.Context, r *request) (refused bool, err error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, d.base+r.path, body)
	if err != nil {
		return false, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return false, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	refused = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	return refused, r.check(resp.StatusCode, b)
}

// phaseResult is the account of one phase: every request attempted is
// ok, failed, or refused (refused ⊂ failed).
type phaseResult struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	OK        int     `json:"ok"`
	Failed    int     `json:"failed"`
	Refused   int     `json:"refused"`
	Seconds   float64 `json:"seconds"`
	FirstErr  string  `json:"first_error,omitempty"`

	// Open loop only.
	OfferedRPS    float64 `json:"offered_rps,omitempty"`
	Samples       int     `json:"samples,omitempty"`
	P50MS         float64 `json:"p50_ms,omitempty"`
	P99MS         float64 `json:"p99_ms,omitempty"`
	TailPct       float64 `json:"tail_pct,omitempty"` // highest percentile with ≥ 10 samples beyond it
	TailMS        float64 `json:"tail_ms,omitempty"`
	OverLimit     float64 `json:"over_limit_share,omitempty"`
	LateMeanMS    float64 `json:"late_mean_ms,omitempty"`
	LateMaxMS     float64 `json:"late_max_ms,omitempty"`
	LateEndMS     float64 `json:"late_end_ms,omitempty"` // median lateness over the last tenth of the schedule
	LatenessGrows bool    `json:"lateness_grows,omitempty"`

	acked []string // fresh subjects of acknowledged inserts
}

type tally struct {
	mu       sync.Mutex
	failed   int
	refused  int
	firstErr string
	acked    []string
}

func (t *tally) record(r *request, refused bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.failed++
		if refused {
			t.refused++
		}
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
		return
	}
	t.acked = append(t.acked, r.acked...)
}

func (t *tally) fill(p *phaseResult) {
	p.Failed, p.Refused, p.FirstErr, p.acked = t.failed, t.refused, t.firstErr, t.acked
	p.OK = p.Attempted - p.Failed
}

// schedule returns n due times, as offsets from the phase start, at a
// constant rate per second: request i is due at i/rate whatever became
// of the requests before it. Constant pacing (as wrk2 does it) keeps
// the arrival process itself from adding bursts to the tail, so that
// what the tail shows is the server's.
func schedule(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// openLoop offers reqs[i] at start+due[i] whatever the server does.
// Each worker owns one connection: it takes the next request, waits
// until the request is due, and sends it. When every connection is busy
// a due request waits, and that wait is part of its latency: latency
// runs from the due instant, not from the send. Lateness (send − due)
// is reported so that a backlog is visible as such.
func (d *driver) openLoop(ctx context.Context, name string, reqs []*request, due []time.Duration, limit time.Duration) phaseResult {
	lat := make([]time.Duration, len(reqs))
	late := make([]time.Duration, len(reqs))
	var next atomic.Int64
	var tl tally
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				dueAt := start.Add(due[i])
				sleepUntil(dueAt)
				sent := time.Now()
				sp := d.rec.start(i, reqs[i].kind.String(), "e2e.request", -1)
				refused, err := d.do(ctx, reqs[i])
				d.rec.end(sp)
				lat[i] = time.Since(dueAt)
				late[i] = sent.Sub(dueAt)
				if err != nil {
					lat[i] = math.MaxInt64 // a failure misses every limit
				}
				tl.record(reqs[i], refused, err)
			}
		}()
	}
	wg.Wait()
	p := phaseResult{Name: name, Attempted: len(reqs), Seconds: time.Since(start).Seconds(), Samples: len(reqs)}
	tl.fill(&p)
	if span := due[len(due)-1]; span > 0 {
		p.OfferedRPS = float64(len(reqs)-1) / span.Seconds()
	}

	over := 0
	for _, l := range lat {
		if l > limit {
			over++
		}
	}
	p.OverLimit = float64(over) / float64(len(lat))
	var lateSum, lateMax time.Duration
	for _, l := range late {
		lateSum += l
		lateMax = max(lateMax, l)
	}
	p.LateMeanMS = ms(lateSum) / float64(len(late))
	p.LateMaxMS = ms(lateMax)
	tail := append([]time.Duration(nil), late[len(late)-len(late)/10:]...)
	sortDurations(tail)
	p.LateEndMS = ms(percentile(tail, 50))
	// A backlog as long as the latency limit at the end of the phase
	// means the offered rate was not being served.
	p.LatenessGrows = percentile(tail, 50) > limit

	sortDurations(lat)
	p.P50MS = ms(percentile(lat, 50))
	p.P99MS = ms(percentile(lat, 99))
	p.TailPct = tailPercentile(len(lat))
	p.TailMS = ms(percentile(lat, p.TailPct))
	return p
}

// closedLoop runs one request stream per client back to back for d:
// callers that each wait for their reply. gens[c] feeds client c.
func (d *driver) closedLoop(ctx context.Context, name string, gens []func() *request, dur time.Duration) phaseResult {
	var tl tally
	var attempted atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(gen func() *request) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := gen()
				refused, err := d.do(ctx, r)
				attempted.Add(1)
				tl.record(r, refused, err)
			}
		}(gens[c])
	}
	wg.Wait()
	p := phaseResult{Name: name, Attempted: int(attempted.Load()), Seconds: time.Since(start).Seconds()}
	tl.fill(&p)
	return p
}

// sequential sends reqs one after another on one connection: warm-up
// and audits.
func (d *driver) sequential(ctx context.Context, name string, reqs []*request) phaseResult {
	var tl tally
	start := time.Now()
	for _, r := range reqs {
		refused, err := d.do(ctx, r)
		tl.record(r, refused, err)
	}
	p := phaseResult{Name: name, Attempted: len(reqs), Seconds: time.Since(start).Seconds()}
	tl.fill(&p)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, so that the reported tail is a
// statistic of the run and not one slow request.
func tailPercentile(n int) float64 {
	// Percentile, and the samples beyond it per ten thousand.
	ladder := []struct {
		pct    float64
		beyond int
	}{{99.99, 1}, {99.9, 10}, {99, 100}, {95, 500}, {90, 1000}, {75, 2500}}
	for _, l := range ladder {
		if n*l.beyond >= 10*10_000 {
			return l.pct
		}
	}
	return 50
}

func (p phaseResult) String() string {
	s := fmt.Sprintf("%-10s attempted %-7d ok %-7d failed %-3d refused %-3d %.2fs", p.Name, p.Attempted, p.OK, p.Failed, p.Refused, p.Seconds)
	if p.Samples > 0 {
		s += fmt.Sprintf("  offered %.0f/s  p50 %.3fms  p99 %.3fms  p%g %.3fms (n=%d)  over-limit %.4f  late mean %.3fms max %.1fms end %.3fms",
			p.OfferedRPS, p.P50MS, p.P99MS, p.TailPct, p.TailMS, p.Samples, p.OverLimit, p.LateMeanMS, p.LateMaxMS, p.LateEndMS)
	}
	if p.FirstErr != "" {
		s += "\n           first error: " + p.FirstErr
	}
	return s
}
