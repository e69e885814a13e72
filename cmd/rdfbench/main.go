// Command rdfbench is the load generator and chaos harness for
// rdfserve. It drives thousands of concurrent connections through the
// HTTP query surface with a mixed read/write workload and verifies the
// robustness contract end to end:
//
//   - zero corrupt reads: sentinel triples inserted before the run are
//     re-read continuously; any response that returns a sentinel with
//     the wrong value counts as corruption (the run fails),
//   - over-limit requests are rejected with typed 429/503 envelopes,
//     never hung: every request completes within the client-side hang
//     budget or the run fails,
//   - graceful drain: shutdown fires while load is still running, and
//     every in-flight request must terminate within its deadline.
//
// Two modes:
//
//	rdfbench -base http://127.0.0.1:8080        # drive a running server
//	rdfbench -conns 1000 -duration 10s          # self-serve chaos drill
//
// Without -base, rdfbench starts an in-process rdfserve-equivalent over
// a supervised store whose WAL segments are wrapped with a deterministic
// fault injector (-chaos-wal-write-rate), so the bench exercises the
// Degraded/Recovering 503 paths and WAL recovery under fire, then
// shuts the server down mid-load to verify the drain contract. The
// -wal-*-bytes and -chaos-wal-enospc-rate knobs add rotation, disk
// budgets, automatic checkpoints, and the Degraded(disk) 507 path under
// injected ENOSPC. Results
// (p50/p99 latency per endpoint, status and rejection tallies,
// corruption and hang counts) print as a table and, with -json, land
// in a machine-readable report (BENCH_6.json in CI).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/supervise"
	"repro/internal/trace"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdfbench:", err)
		os.Exit(1)
	}
}

const (
	numSentinels = 64
	numChain     = 16
)

type config struct {
	base         string
	conns        int
	duration     time.Duration
	model        string
	jsonPath     string
	chaosRate    float64
	chaosSeed    int64
	burst        int
	inflight     int64
	hangSlack    time.Duration
	segmentBytes int64
	softBytes    int64
	hardBytes    int64
	enospcRate   float64
}

// newFlagSet defines every rdfbench knob in one place; the knob table
// in SERVING.md documents the same set, and main_test.go fails when
// either side drifts.
func newFlagSet() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("rdfbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.base, "base", "", "base URL of a running rdfserve (empty = self-serve chaos mode)")
	fs.IntVar(&cfg.conns, "conns", 1000, "concurrent connections")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "steady-state load duration")
	fs.StringVar(&cfg.model, "model", "bench", "model name")
	fs.StringVar(&cfg.jsonPath, "json", "", "write the machine-readable report to this file")
	fs.Float64Var(&cfg.chaosRate, "chaos-wal-write-rate", 0.02, "self-serve: probability each WAL write fails")
	fs.Int64Var(&cfg.chaosSeed, "chaos-seed", 1, "self-serve: fault injector seed")
	fs.Int64Var(&cfg.segmentBytes, "wal-segment-bytes", 0, "self-serve: segment rotation threshold in bytes (0 = 64 MiB default)")
	fs.Int64Var(&cfg.softBytes, "wal-soft-bytes", 0, "self-serve: soft disk watermark triggering automatic checkpoints")
	fs.Int64Var(&cfg.hardBytes, "wal-hard-bytes", 0, "self-serve: hard disk budget — writes past it answer 507 until recovery frees segments")
	fs.Float64Var(&cfg.enospcRate, "chaos-wal-enospc-rate", 0, "self-serve: probability each segment write fails with injected ENOSPC")
	fs.IntVar(&cfg.burst, "burst", 256, "size of the synchronized heavy-query burst that must overflow admission")
	fs.Int64Var(&cfg.inflight, "max-inflight", 32, "self-serve: server admission capacity (small, so the burst rejects)")
	fs.DurationVar(&cfg.hangSlack, "hang-slack", 15*time.Second, "client-side hang budget past the server's max timeout")
	return fs, cfg
}

func run(args []string, stdout io.Writer) error {
	fs, cfgp := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := *cfgp
	if cfg.conns < 1 {
		return errors.New("-conns must be >= 1")
	}

	b := newBench(cfg)
	if cfg.base == "" {
		stop, injected, err := b.startSelfServe(stdout)
		if err != nil {
			return err
		}
		defer stop()
		b.injectedFailures = injected
	}
	if err := b.prepare(); err != nil {
		return err
	}
	if b.armChaos != nil {
		// Faults arm only after the seed data is durably in: the drill
		// is about serving under faults, not about seeding the store.
		b.armChaos()
	}
	b.steadyState(stdout)
	b.burstPhase(stdout)
	if cfg.base == "" {
		if err := b.tracePhase(stdout); err != nil {
			return err
		}
		if err := b.drainPhase(stdout); err != nil {
			return err
		}
	}
	return b.report(stdout)
}

// bench holds the run's shared state and counters.
type bench struct {
	cfg    config
	client *http.Client
	srv    *server.Server // self-serve only
	sup    *supervise.Supervisor

	mu        sync.Mutex
	latencies map[string][]time.Duration // endpoint -> samples
	statuses  map[int]int64
	codes     map[string]int64
	slowest   []slowSample // ten slowest requests with their trace IDs

	corrupt  atomic.Int64
	hung     atomic.Int64
	netErrs  atomic.Int64
	requests atomic.Int64

	burstRejected    int64
	burstOK          int64
	drainResult      *drainReport
	traceResult      *traceReport
	injectedFailures func() (int, int)
	armChaos         func()
}

// traceReport is the self-serve trace-retention verification: after the
// chaos run, /debug/traces must hold at least one slow or errored trace
// and a retained trace must be retrievable by its ID.
type traceReport struct {
	Retained     int    `json:"retained"`
	VerifiedID   string `json:"verified_id,omitempty"`
	LookupStatus int    `json:"lookup_status"`
}

type drainReport struct {
	InflightAtDrain int64 `json:"inflight_at_drain"`
	Completed       int64 `json:"completed"`
	Hung            int64 `json:"hung"`
	Rejected503     int64 `json:"rejected_shutting_down"`
	DrainMS         int64 `json:"drain_ms"`
}

func newBench(cfg config) *bench {
	return &bench{
		cfg: cfg,
		client: &http.Client{
			Timeout: 30*time.Second + cfg.hangSlack,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.conns + cfg.burst,
				MaxIdleConnsPerHost: cfg.conns + cfg.burst,
				MaxConnsPerHost:     0,
			},
		},
		latencies: map[string][]time.Duration{},
		statuses:  map[int]int64{},
		codes:     map[string]int64{},
	}
}

// startSelfServe boots an in-process server over a supervised store
// with WAL fault injection, in a temp dir.
func (b *bench) startSelfServe(stdout io.Writer) (stop func(), injected func() (int, int), err error) {
	dir, err := os.MkdirTemp("", "rdfbench-*")
	if err != nil {
		return nil, nil, err
	}

	var flakyMu sync.Mutex
	var flakies []*wal.FlakyFile
	var armed bool // faults arm after the seed insert (armChaos)
	// arm sets the fault rates of the i-th segment file the run opened.
	arm := func(fl *wal.FlakyFile, i int) {
		seed := b.cfg.chaosSeed + int64(i)
		fl.SetErrorRate(b.cfg.chaosRate, 0, seed)
		fl.SetNoSpaceRate(b.cfg.enospcRate, seed)
	}
	scfg := supervise.Config{
		SnapshotPath: filepath.Join(dir, "bench.snap"),
		WALDir:       filepath.Join(dir, "bench.wal.d"),
		Segment: wal.DirOptions{
			SegmentBytes: b.cfg.segmentBytes,
			Budget:       wal.Budget{SoftBytes: b.cfg.softBytes, HardBytes: b.cfg.hardBytes},
		},
		Obs: obs.NewRegistry(),
	}
	if b.cfg.chaosRate > 0 || b.cfg.enospcRate > 0 {
		scfg.Segment.Wrap = func(f wal.File) wal.File {
			fl := wal.NewFlaky(f)
			flakyMu.Lock()
			flakies = append(flakies, fl)
			if armed {
				arm(fl, len(flakies))
			}
			flakyMu.Unlock()
			return fl
		}
		b.armChaos = func() {
			flakyMu.Lock()
			defer flakyMu.Unlock()
			armed = true
			for i, fl := range flakies {
				arm(fl, i+1)
			}
		}
	}
	sup, err := supervise.Open(scfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	b.sup = sup

	srv, err := server.New(server.Config{
		Backend:       sup,
		DefaultModels: []string{b.cfg.model},
		Registry:      scfg.Obs,
		// Tail-sampling defaults: the chaos run's injected faults and
		// the burst's slow joins must land in the retained set, which
		// tracePhase verifies through /debug/traces.
		Tracer:      trace.New(trace.Config{SlowThreshold: 100 * time.Millisecond, SampleRate: 0.01}),
		MaxInflight: b.cfg.inflight,
		MaxQueue:    64,
		QueueWait:   200 * time.Millisecond,
		DrainGrace:  time.Second,
	})
	if err != nil {
		sup.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	b.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sup.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	go srv.Serve(ln)
	b.cfg.base = "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "self-serve: %s (chaos write rate %.2f, ENOSPC rate %.2f, capacity %d)\n",
		b.cfg.base, b.cfg.chaosRate, b.cfg.enospcRate, b.cfg.inflight)

	injected = func() (int, int) {
		flakyMu.Lock()
		defer flakyMu.Unlock()
		var w, s int
		for _, f := range flakies {
			fw, fs := f.InjectedFailures()
			w += fw
			s += fs
		}
		return w, s
	}
	stop = func() {
		sup.Close()
		os.RemoveAll(dir)
	}
	return stop, injected, nil
}

// prepare creates the model, the sentinel triples whose values every
// read phase re-verifies, and a small edge chain for /traverse.
func (b *bench) prepare() error {
	triples := make([]map[string]string, 0, numSentinels+numChain)
	for i := 0; i < numSentinels; i++ {
		triples = append(triples, map[string]string{
			"s": fmt.Sprintf("<urn:bench:sentinel:%d>", i),
			"p": "<urn:bench:p>",
			"o": sentinelValue(i),
		})
	}
	for i := 0; i < numChain; i++ {
		triples = append(triples, map[string]string{
			"s": fmt.Sprintf("<urn:bench:n%d>", i),
			"p": "<urn:bench:edge>",
			"o": fmt.Sprintf("<urn:bench:n%d>", i+1),
		})
	}
	// Join fodder for the burst phase: two all-to-all 30-wide layers, so
	// the burst's 2-hop join expands to 27k intermediate bindings and
	// each query is slow enough that a synchronized burst overflows the
	// admission queue instead of draining through it.
	for layer := 0; layer < 2; layer++ {
		for i := 0; i < 30; i++ {
			for j := 0; j < 30; j++ {
				triples = append(triples, map[string]string{
					"s": fmt.Sprintf("<urn:bench:j%d:%d>", layer, i),
					"p": "<urn:bench:join>",
					"o": fmt.Sprintf("<urn:bench:j%d:%d>", layer+1, j),
				})
			}
		}
	}
	// Join-shape fodder for the steady-state join mix: a selective
	// 3-pattern chain (one "target"-typed leaf among 40) and a star hub
	// with two 12-wide spoke fans — the shapes the cost planner reorders,
	// so the serving path exercises statistics and plan caching under
	// concurrent writes.
	for i := 0; i < 40; i++ {
		typ := `"noise"`
		if i == 20 {
			typ = `"target"`
		}
		triples = append(triples,
			map[string]string{"s": fmt.Sprintf("<urn:bench:cr%d>", i), "p": "<urn:bench:cp1>", "o": fmt.Sprintf("<urn:bench:cm%d>", i)},
			map[string]string{"s": fmt.Sprintf("<urn:bench:cm%d>", i), "p": "<urn:bench:cp2>", "o": fmt.Sprintf("<urn:bench:cl%d>", i)},
			map[string]string{"s": fmt.Sprintf("<urn:bench:cl%d>", i), "p": "<urn:bench:ctype>", "o": typ},
		)
	}
	for i := 0; i < 12; i++ {
		triples = append(triples,
			map[string]string{"s": "<urn:bench:hub>", "p": "<urn:bench:hp1>", "o": fmt.Sprintf("<urn:bench:ha%d>", i)},
			map[string]string{"s": "<urn:bench:hub>", "p": "<urn:bench:hp2>", "o": fmt.Sprintf("<urn:bench:hb%d>", i)},
		)
	}
	triples = append(triples, map[string]string{"s": "<urn:bench:hub>", "p": "<urn:bench:ctype>", "o": `"hub"`})
	body := map[string]any{"model": b.cfg.model, "create_model": true, "triples": triples}
	// The seed insert must land; under chaos the first attempts may hit
	// injected WAL faults, so retry through the degraded episodes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, respBody, _, err := b.do("POST", "/insert", body, "")
		if err == nil && status == 200 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seed insert never landed (last status %d, err %v, body %s)", status, err, respBody)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func sentinelValue(i int) string { return fmt.Sprintf("%q", fmt.Sprintf("sval-%d", i)) }

// do issues one request and returns (status, body, latency). The
// response's X-Trace-Id (empty when the server traces nothing) lands in
// b.lastTrace bookkeeping via record.
func (b *bench) do(method, path string, body any, tenant string) (int, []byte, time.Duration, error) {
	status, data, _, lat, err := b.doTraced(method, path, body, tenant)
	return status, data, lat, err
}

// doTraced is do plus the response's X-Trace-Id.
func (b *bench) doTraced(method, path string, body any, tenant string) (int, []byte, string, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		bb, err := json.Marshal(body)
		if err != nil {
			return 0, nil, "", 0, err
		}
		rd = bytes.NewReader(bb)
	}
	req, err := http.NewRequest(method, b.cfg.base+path, rd)
	if err != nil {
		return 0, nil, "", 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	t0 := time.Now()
	resp, err := b.client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		return 0, nil, "", lat, err
	}
	defer resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, nil, traceID, time.Since(t0), err
	}
	return resp.StatusCode, data, traceID, time.Since(t0), nil
}

// slowSample is one of the run's slowest requests, with the trace ID an
// operator needs to pull its span tree from /debug/traces.
type slowSample struct {
	Endpoint  string  `json:"endpoint"`
	Status    int     `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
	TraceID   string  `json:"trace_id,omitempty"`
	lat       time.Duration
}

// record books one completed request into the tallies.
func (b *bench) record(endpoint string, status int, bodyBytes []byte, lat time.Duration, err error) {
	b.recordTraced(endpoint, status, bodyBytes, "", lat, err)
}

// recordTraced is record plus slowest-request bookkeeping: the ten
// slowest requests keep their trace IDs for the final report.
func (b *bench) recordTraced(endpoint string, status int, bodyBytes []byte, traceID string, lat time.Duration, err error) {
	b.requests.Add(1)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			b.hung.Add(1) // the server let a request exceed the hang budget
		} else {
			b.netErrs.Add(1)
		}
		return
	}
	b.mu.Lock()
	b.statuses[status]++
	if status != 200 {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(bodyBytes, &env) == nil && env.Error.Code != "" {
			b.codes[env.Error.Code]++
		}
	}
	b.latencies[endpoint] = append(b.latencies[endpoint], lat)
	b.slowest = append(b.slowest, slowSample{
		Endpoint: endpoint, Status: status, TraceID: traceID,
		LatencyMS: float64(lat.Microseconds()) / 1000, lat: lat,
	})
	if len(b.slowest) > 10 {
		sort.Slice(b.slowest, func(i, j int) bool { return b.slowest[i].lat > b.slowest[j].lat })
		b.slowest = b.slowest[:10]
	}
	b.mu.Unlock()
}

// verifySentinel checks one sentinel read for corruption.
func (b *bench) verifySentinel(i int, status int, body []byte) {
	if status != 200 {
		return // rejected (degraded/admission) — not a corruption
	}
	var resp struct {
		Triples []struct {
			O string `json:"o"`
		} `json:"triples"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Triples) == 0 {
		b.corrupt.Add(1)
		return
	}
	for _, t := range resp.Triples {
		if t.O != sentinelValue(i) {
			b.corrupt.Add(1)
			return
		}
	}
}

// steadyState drives the mixed workload: sentinel finds (verified),
// pattern queries, traversals, and inserts that keep tripping the WAL
// fault injector.
func (b *bench) steadyState(stdout io.Writer) {
	fmt.Fprintf(stdout, "steady state: %d connections for %s\n", b.cfg.conns, b.cfg.duration)
	stopAt := time.Now().Add(b.cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < b.cfg.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			tenant := fmt.Sprintf("t%d", w%8)
			seq := 0
			for time.Now().Before(stopAt) {
				seq++
				switch r := rng.Float64(); {
				case r < 0.55: // verified sentinel read
					i := rng.Intn(numSentinels)
					// Name the model explicitly: against an external
					// rdfserve the default model is not ours.
					status, body, tid, lat, err := b.doTraced("GET",
						fmt.Sprintf("/find?model=%s&s=%%3Curn%%3Abench%%3Asentinel%%3A%d%%3E",
							url.QueryEscape(b.cfg.model), i), nil, tenant)
					b.recordTraced("find", status, body, tid, lat, err)
					if err == nil {
						b.verifySentinel(i, status, body)
					}
				case r < 0.72: // pattern query
					status, body, tid, lat, err := b.doTraced("POST", "/query", map[string]any{
						"query": "(?s <urn:bench:p> ?o)", "limit": 100,
						"models": []string{b.cfg.model},
					}, tenant)
					b.recordTraced("query", status, body, tid, lat, err)
				case r < 0.80: // join-heavy query (selective chain / star)
					q := `(?x <urn:bench:cp1> ?y) (?y <urn:bench:cp2> ?z) (?z <urn:bench:ctype> "target")`
					if seq%2 == 0 {
						q = `(?h <urn:bench:ctype> "hub") (?h <urn:bench:hp1> ?a) (?h <urn:bench:hp2> ?b)`
					}
					status, body, tid, lat, err := b.doTraced("POST", "/query", map[string]any{
						"query": q, "limit": 200,
						"models": []string{b.cfg.model},
					}, tenant)
					b.recordTraced("query", status, body, tid, lat, err)
				case r < 0.90: // graph traversal
					status, body, tid, lat, err := b.doTraced("POST", "/traverse", map[string]any{
						"op": "shortest_path", "source": "<urn:bench:n0>",
						"target": fmt.Sprintf("<urn:bench:n%d>", numChain),
						"models": []string{b.cfg.model},
					}, tenant)
					b.recordTraced("traverse", status, body, tid, lat, err)
				default: // write — the chaos trigger
					status, body, tid, lat, err := b.doTraced("POST", "/insert", map[string]any{
						"model": b.cfg.model,
						"triples": []map[string]string{{
							"s": fmt.Sprintf("<urn:bench:w%d:%d>", w, seq),
							"p": "<urn:bench:wp>",
							"o": fmt.Sprintf("%q", fmt.Sprintf("v%d", seq)),
						}},
					}, tenant)
					b.recordTraced("insert", status, body, tid, lat, err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// burstPhase fires a synchronized burst of heavy queries sized past the
// admission capacity: the overflow MUST come back as typed 429/503,
// and nothing may hang.
func (b *bench) burstPhase(stdout io.Writer) {
	if b.srv != nil {
		fmt.Fprintf(stdout, "burst: %d simultaneous heavy queries (capacity %d weight units)\n",
			b.cfg.burst, b.cfg.inflight)
	} else {
		fmt.Fprintf(stdout, "burst: %d simultaneous heavy queries\n", b.cfg.burst)
	}
	start := make(chan struct{})
	var warm sync.WaitGroup
	var wg sync.WaitGroup
	var ok, rejected int64
	for i := 0; i < b.cfg.burst; i++ {
		wg.Add(1)
		warm.Add(1)
		go func() {
			defer wg.Done()
			// Pre-establish this goroutine's connection so the burst
			// arrives simultaneously instead of spread across dials.
			b.do("GET", "/healthz", nil, "")
			warm.Done()
			<-start
			status, body, tid, lat, err := b.doTraced("POST", "/query", map[string]any{
				"query":    "(?a <urn:bench:join> ?b) (?b <urn:bench:join> ?c)",
				"order_by": []string{"a", "c"}, "limit": 10000,
				"models": []string{b.cfg.model},
			}, "")
			b.recordTraced("query", status, body, tid, lat, err)
			switch {
			case err == nil && status == 200:
				atomic.AddInt64(&ok, 1)
			case err == nil && (status == 429 || status == 503 || status == 507):
				// 507 joins the typed-rejection family: under disk-pressure
				// chaos the burst can land while the store is Degraded(disk).
				atomic.AddInt64(&rejected, 1)
			}
		}()
	}
	warm.Wait()
	close(start)
	wg.Wait()
	b.burstOK, b.burstRejected = ok, rejected
	fmt.Fprintf(stdout, "burst: %d served, %d rejected with typed 429/503\n", ok, rejected)
}

// tracePhase verifies trace retention end to end (self-serve only, runs
// before drain closes the server): the chaos run's slow and errored
// requests must have left at least one retained trace in /debug/traces,
// and a retained trace must be retrievable by its ID.
func (b *bench) tracePhase(stdout io.Writer) error {
	status, body, _, err := b.do("GET", "/debug/traces?limit=5", nil, "")
	if err != nil || status != 200 {
		return fmt.Errorf("trace check: GET /debug/traces: status %d, err %v", status, err)
	}
	var list struct {
		Retained int `json:"retained"`
		Traces   []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("trace check: decoding list: %w", err)
	}
	tr := &traceReport{Retained: list.Retained}
	b.traceResult = tr
	if list.Retained == 0 || len(list.Traces) == 0 {
		return errors.New("trace check: chaos run retained no traces — tail sampling never kept a slow/errored request")
	}
	id := list.Traces[0].ID
	status, body, _, err = b.do("GET", "/debug/traces/"+id, nil, "")
	tr.LookupStatus = status
	if err != nil || status != 200 {
		return fmt.Errorf("trace check: GET /debug/traces/%s: status %d, err %v", id, status, err)
	}
	var td struct {
		ID    string            `json:"id"`
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(body, &td); err != nil || td.ID != id || len(td.Spans) == 0 {
		return fmt.Errorf("trace check: trace %s lookup returned id=%q spans=%d (err %v)", id, td.ID, len(td.Spans), err)
	}
	tr.VerifiedID = id
	fmt.Fprintf(stdout, "traces: %d retained, %s retrievable by ID (%d spans)\n", list.Retained, id, len(td.Spans))
	return nil
}

// drainPhase shuts the in-process server down while load is still
// running and verifies every in-flight request terminates promptly.
func (b *bench) drainPhase(stdout io.Writer) error {
	fmt.Fprintln(stdout, "drain: shutting down under load")
	var dr drainReport
	stop := make(chan struct{})
	var drainStarted atomic.Bool
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				outstanding.Add(1)
				status, body, lat, err := b.do("GET",
					fmt.Sprintf("/find?s=%%3Curn%%3Abench%%3Asentinel%%3A%d%%3E", w%numSentinels), nil, "")
				outstanding.Add(-1)
				if err != nil && drainStarted.Load() {
					// The listener is closing connections; a dial or
					// reuse failure here is the expected end of this
					// worker, not a server fault.
					return
				}
				b.record("find", status, body, lat, err)
				if err == nil && status == 503 {
					var env struct {
						Error struct {
							Code string `json:"code"`
						} `json:"error"`
					}
					if json.Unmarshal(body, &env) == nil && env.Error.Code == "shutting_down" {
						atomic.AddInt64(&dr.Rejected503, 1)
						return // the server is draining; this worker is done
					}
				}
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond) // let the workers get in flight
	dr.InflightAtDrain = outstanding.Load()

	t0 := time.Now()
	drainStarted.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Shutdown(sctx)
	dr.DrainMS = time.Since(t0).Milliseconds()
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(45 * time.Second):
		dr.Hung = outstanding.Load()
	}
	dr.Completed = dr.InflightAtDrain - dr.Hung
	b.drainResult = &dr
	fmt.Fprintf(stdout, "drain: %d in flight at shutdown, drained in %dms, %d hung\n",
		dr.InflightAtDrain, dr.DrainMS, dr.Hung)
	if err != nil {
		return fmt.Errorf("shutdown under load: %w", err)
	}
	if dr.Hung > 0 {
		return fmt.Errorf("%d requests hung through shutdown", dr.Hung)
	}
	return nil
}

// ---- reporting ----

type endpointStats struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

type report struct {
	Bench       string                   `json:"bench"`
	Base        string                   `json:"base"`
	Conns       int                      `json:"conns"`
	DurationS   float64                  `json:"duration_s"`
	Requests    int64                    `json:"requests"`
	Endpoints   map[string]endpointStats `json:"endpoints"`
	Statuses    map[string]int64         `json:"statuses"`
	ErrorCodes  map[string]int64         `json:"error_codes"`
	BurstOK     int64                    `json:"burst_served"`
	BurstReject int64                    `json:"burst_rejected"`
	Corrupt     int64                    `json:"corrupt_reads"`
	Hung        int64                    `json:"hung_requests"`
	NetErrs     int64                    `json:"transport_errors"`
	InjectedWAL int                      `json:"injected_wal_write_failures"`
	Slowest     []slowSample             `json:"slowest_requests,omitempty"`
	Traces      *traceReport             `json:"traces,omitempty"`
	Drain       *drainReport             `json:"drain,omitempty"`
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func (b *bench) report(stdout io.Writer) error {
	rep := report{
		Bench:       "server_chaos",
		Base:        b.cfg.base,
		Conns:       b.cfg.conns,
		DurationS:   b.cfg.duration.Seconds(),
		Requests:    b.requests.Load(),
		Endpoints:   map[string]endpointStats{},
		Statuses:    map[string]int64{},
		ErrorCodes:  b.codes,
		BurstOK:     b.burstOK,
		BurstReject: b.burstRejected,
		Corrupt:     b.corrupt.Load(),
		Hung:        b.hung.Load(),
		NetErrs:     b.netErrs.Load(),
		Traces:      b.traceResult,
		Drain:       b.drainResult,
	}
	sort.Slice(b.slowest, func(i, j int) bool { return b.slowest[i].lat > b.slowest[j].lat })
	rep.Slowest = b.slowest
	if b.injectedFailures != nil {
		rep.InjectedWAL, _ = b.injectedFailures()
	}
	for st, n := range b.statuses {
		rep.Statuses[fmt.Sprintf("%d", st)] = n
	}
	for ep, lats := range b.latencies {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.Endpoints[ep] = endpointStats{
			Count: len(lats),
			P50MS: float64(percentile(lats, 0.50).Microseconds()) / 1000,
			P99MS: float64(percentile(lats, 0.99).Microseconds()) / 1000,
			MaxMS: float64(percentile(lats, 1.0).Microseconds()) / 1000,
		}
	}

	fmt.Fprintf(stdout, "\n%-10s %10s %10s %10s %10s\n", "endpoint", "count", "p50 ms", "p99 ms", "max ms")
	eps := make([]string, 0, len(rep.Endpoints))
	for ep := range rep.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		s := rep.Endpoints[ep]
		fmt.Fprintf(stdout, "%-10s %10d %10.2f %10.2f %10.2f\n", ep, s.Count, s.P50MS, s.P99MS, s.MaxMS)
	}
	fmt.Fprintf(stdout, "statuses: %v\nerror codes: %v\n", rep.Statuses, rep.ErrorCodes)
	fmt.Fprintf(stdout, "requests %d, corrupt reads %d, hung %d, transport errors %d, injected WAL faults %d\n",
		rep.Requests, rep.Corrupt, rep.Hung, rep.NetErrs, rep.InjectedWAL)
	if len(rep.Slowest) > 0 {
		fmt.Fprintf(stdout, "\nslowest requests (trace IDs fetchable from %s/debug/traces/{id} while the server runs):\n", rep.Base)
		for _, s := range rep.Slowest {
			id := s.TraceID
			if id == "" {
				id = "-" // server ran without tracing, or the trace was not sampled
			}
			fmt.Fprintf(stdout, "  %-10s %4d %10.2fms  %s\n", s.Endpoint, s.Status, s.LatencyMS, id)
		}
	}

	if b.cfg.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(b.cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", b.cfg.jsonPath)
	}

	if rep.Corrupt > 0 {
		return fmt.Errorf("CORRUPT READS: %d sentinel reads returned wrong data", rep.Corrupt)
	}
	if rep.Hung > 0 {
		return fmt.Errorf("%d requests exceeded the hang budget", rep.Hung)
	}
	if b.cfg.burst > int(b.cfg.inflight) && rep.BurstReject == 0 && b.cfg.base == "" {
		return errors.New("burst exceeded capacity but nothing was rejected — admission control is not engaging")
	}
	fmt.Fprintln(stdout, "PASS: zero corrupt reads, zero hung requests")
	return nil
}
