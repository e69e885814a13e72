package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// The serving drill: rdfserve's own run, on a fault-injected WAL, under a
// mixed multi-tenant load, then a synchronized burst far above admission
// capacity, then a drain while load is still running. The robustness
// contract it asserts: no sentinel read ever returns wrong data, no
// request hangs, the burst is shed with typed rejections, every non-200
// response carries a typed error code (never a 500), the injected faults
// really fired, a retained trace can be fetched by its ID, and run
// returns nil once its context is cancelled.

const (
	numSentinels = 64
	numChain     = 16
	drillModel   = "drill"
	// hangBudget is the client-side bound on one request: the server's
	// -max-timeout (30 s) plus slack. A request past it counts as hung.
	hangBudget = 45 * time.Second
)

func TestServeDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("serving drill skipped in -short mode")
	}
	cells := []struct {
		name         string
		conns, burst int
		flags        []string
		snapshot     bool // name a -snapshot path; without one it lives in the WAL directory
	}{
		// make server-smoke: transient WAL write failures under 200
		// connections; 96 joins of weight 4 against 16 units.
		{name: "write_faults", conns: 200, burst: 96,
			flags: []string{"-max-inflight", "16", "-chaos-wal-write-rate", "0.02"}},
		// make chaos-disk: injected ENOSPC on tiny rotating segments with
		// soft-watermark checkpoints; 64 joins against 32 units.
		{name: "enospc", conns: 32, burst: 64, snapshot: true,
			flags: []string{"-max-inflight", "32", "-wal-segment-bytes", "4096",
				"-wal-soft-bytes", "65536", "-chaos-wal-enospc-rate", "0.01"}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			// Recovery from a fault re-baselines into the snapshot: the
			// default one inside the WAL directory, or the one -snapshot
			// names. The short queue makes a burst of the cell's size
			// overflow capacity plus queue at once, so the rejection does
			// not depend on how fast the joins run.
			args := append([]string{"-addr", "127.0.0.1:0", "-model", drillModel,
				"-wal-dir", filepath.Join(dir, "wal.d"),
				"-max-queue", "32", "-queue-wait", "200ms"}, c.flags...)
			if c.snapshot {
				args = append(args, "-snapshot", filepath.Join(dir, "store.snap"))
			}
			d := startDrill(t, args, c.conns+c.burst+64)
			d.seed(t)
			d.steadyState(c.conns, 3*time.Second)
			d.waitHealthy(t)
			d.burstPhase(c.burst)
			d.checkTraces(t)
			d.checkMetrics(t)
			d.drain(t)
			d.verdicts(t)
		})
	}
}

// drill is one running rdfserve and the tallies of the load against it.
type drill struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan struct{} // closed when run returns
	runErr error
	stdout *stdoutLog

	mu       sync.Mutex
	statuses map[int]int64
	codes    map[string]int64
	untyped  []string // non-200 bodies without an error code

	requests, corrupt, hung, netErrs atomic.Int64
	burstRejected                    int64
}

// stdoutLog collects run's stdout and hands the address of its
// "serving on http://ADDR/ ..." line to addr, parsed the way the
// benchmark's launcher parses it.
type stdoutLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func (w *stdoutLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if rest, ok := strings.CutPrefix(string(p), "serving on "); ok {
		w.addr <- strings.TrimSuffix(strings.Fields(rest)[0], "/")
	}
	return len(p), nil
}

func (w *stdoutLog) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDrill runs rdfserve's run with args and returns once it serves.
func startDrill(t *testing.T, args []string, conns int) *drill {
	ctx, cancel := context.WithCancel(context.Background())
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}
	d := &drill{
		client:   &http.Client{Timeout: hangBudget, Transport: tr},
		cancel:   cancel,
		done:     make(chan struct{}),
		stdout:   &stdoutLog{addr: make(chan string, 1)},
		statuses: map[int]int64{},
		codes:    map[string]int64{},
	}
	go func() {
		d.runErr = run(ctx, args, d.stdout)
		close(d.done)
	}()
	t.Cleanup(func() {
		cancel()
		<-d.done
		tr.CloseIdleConnections()
	})
	select {
	case addr := <-d.stdout.addr:
		d.base = addr
	case <-d.done:
		t.Fatalf("run %v returned before serving: %v\n%s", args, d.runErr, d.stdout)
	case <-time.After(30 * time.Second):
		t.Fatalf("run %v printed no serving line:\n%s", args, d.stdout)
	}
	return d
}

// do issues one request and returns its status and body.
func (d *drill) do(method, path string, body any, tenant string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get fetches an admin page that must answer 200.
func (d *drill) get(t *testing.T, path string) []byte {
	t.Helper()
	status, body, err := d.do("GET", path, nil, "")
	if err != nil || status != 200 {
		t.Fatalf("GET %s: status %d, err %v: %s", path, status, err, body)
	}
	return body
}

// record books one request of the load into the tallies.
func (d *drill) record(status int, body []byte, err error) {
	d.requests.Add(1)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			d.hung.Add(1)
		} else {
			d.netErrs.Add(1)
		}
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.statuses[status]++
	if status == 200 {
		return
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		d.codes[env.Error.Code]++
	} else if len(d.untyped) < 5 {
		d.untyped = append(d.untyped, fmt.Sprintf("%d %.200s", status, body))
	}
}

func sentinelValue(i int) string { return fmt.Sprintf("%q", fmt.Sprintf("sval-%d", i)) }

// sentinelPath finds sentinel i by subject in the default model.
func sentinelPath(i int) string {
	return fmt.Sprintf("/find?s=%%3Curn%%3Abench%%3Asentinel%%3A%d%%3E", i)
}

func triple(s, p, o string) map[string]string { return map[string]string{"s": s, "p": p, "o": o} }

// seed inserts the sentinels every read phase re-verifies, an edge chain
// for /traverse, two all-to-all 30-wide layers whose 2-hop join (27 k
// bindings) makes each burst query slow, and a selective chain and a
// star hub for the steady-state joins. The faults are armed from the
// start, so the insert retries through Degraded episodes.
func (d *drill) seed(t *testing.T) {
	var ts []map[string]string
	for i := 0; i < numSentinels; i++ {
		ts = append(ts, triple(fmt.Sprintf("<urn:bench:sentinel:%d>", i), "<urn:bench:p>", sentinelValue(i)))
	}
	for i := 0; i < numChain; i++ {
		ts = append(ts, triple(fmt.Sprintf("<urn:bench:n%d>", i), "<urn:bench:edge>", fmt.Sprintf("<urn:bench:n%d>", i+1)))
	}
	for layer := 0; layer < 2; layer++ {
		for i := 0; i < 30; i++ {
			for j := 0; j < 30; j++ {
				ts = append(ts, triple(fmt.Sprintf("<urn:bench:j%d:%d>", layer, i), "<urn:bench:join>",
					fmt.Sprintf("<urn:bench:j%d:%d>", layer+1, j)))
			}
		}
	}
	for i := 0; i < 40; i++ {
		typ := `"noise"`
		if i == 20 {
			typ = `"target"`
		}
		ts = append(ts,
			triple(fmt.Sprintf("<urn:bench:cr%d>", i), "<urn:bench:cp1>", fmt.Sprintf("<urn:bench:cm%d>", i)),
			triple(fmt.Sprintf("<urn:bench:cm%d>", i), "<urn:bench:cp2>", fmt.Sprintf("<urn:bench:cl%d>", i)),
			triple(fmt.Sprintf("<urn:bench:cl%d>", i), "<urn:bench:ctype>", typ))
	}
	for i := 0; i < 12; i++ {
		ts = append(ts,
			triple("<urn:bench:hub>", "<urn:bench:hp1>", fmt.Sprintf("<urn:bench:ha%d>", i)),
			triple("<urn:bench:hub>", "<urn:bench:hp2>", fmt.Sprintf("<urn:bench:hb%d>", i)))
	}
	ts = append(ts, triple("<urn:bench:hub>", "<urn:bench:ctype>", `"hub"`))
	body := map[string]any{"model": drillModel, "create_model": true, "triples": ts}
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, resp, err := d.do("POST", "/insert", body, "")
		if err == nil && status == 200 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed insert never landed: status %d, err %v: %s", status, err, resp)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// steadyRequest draws one request of the steady-state mix: 55 % verified
// sentinel finds (sentinel is the sentinel's index, -1 for the rest),
// 17 % one-pattern queries, 8 % selective-chain and star joins, 10 %
// shortest-path traversals and 10 % one-triple inserts, the writes that
// trip the fault injector.
func steadyRequest(rng *rand.Rand, w, seq int) (method, path string, body any, sentinel int) {
	models := []string{drillModel}
	switch r := rng.Float64(); {
	case r < 0.55:
		i := rng.Intn(numSentinels)
		return "GET", sentinelPath(i), nil, i
	case r < 0.72:
		return "POST", "/query", map[string]any{"query": "(?s <urn:bench:p> ?o)", "limit": 100, "models": models}, -1
	case r < 0.80:
		q := `(?x <urn:bench:cp1> ?y) (?y <urn:bench:cp2> ?z) (?z <urn:bench:ctype> "target")`
		if seq%2 == 0 {
			q = `(?h <urn:bench:ctype> "hub") (?h <urn:bench:hp1> ?a) (?h <urn:bench:hp2> ?b)`
		}
		return "POST", "/query", map[string]any{"query": q, "limit": 200, "models": models}, -1
	case r < 0.90:
		return "POST", "/traverse", map[string]any{"op": "shortest_path", "source": "<urn:bench:n0>",
			"target": fmt.Sprintf("<urn:bench:n%d>", numChain), "models": models}, -1
	default:
		return "POST", "/insert", map[string]any{"model": drillModel, "triples": []map[string]string{
			triple(fmt.Sprintf("<urn:bench:w%d:%d>", w, seq), "<urn:bench:wp>", fmt.Sprintf(`"v%d"`, seq))}}, -1
	}
}

// verifySentinel counts a 200 sentinel read that lacks the sentinel's
// value, or returns another, as corrupt. A rejection is not corruption.
func (d *drill) verifySentinel(i, status int, body []byte) {
	if status != 200 {
		return
	}
	var resp struct {
		Triples []struct {
			O string `json:"o"`
		} `json:"triples"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Triples) == 0 {
		d.corrupt.Add(1)
		return
	}
	for _, tr := range resp.Triples {
		if tr.O != sentinelValue(i) {
			d.corrupt.Add(1)
			return
		}
	}
}

// steadyState drives the mix from conns connections, eight tenants.
func (d *drill) steadyState(conns int, dur time.Duration) {
	stopAt := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			tenant := fmt.Sprintf("t%d", w%8)
			for seq := 1; time.Now().Before(stopAt); seq++ {
				method, path, body, sentinel := steadyRequest(rng, w, seq)
				status, data, err := d.do(method, path, body, tenant)
				d.record(status, data, err)
				if err == nil && sentinel >= 0 {
					d.verifySentinel(sentinel, status, data)
				}
			}
		}(w)
	}
	wg.Wait()
}

// waitHealthy waits out the recovery of the steady state's last fault,
// so the burst meets admission control and not the health gate.
func (d *drill) waitHealthy(t *testing.T) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body, err := d.do("GET", "/healthz", nil, "")
		if err == nil && status == 200 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never returned to Healthy: status %d, err %v: %s", status, err, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// burstPhase fires n heavy joins at once, each over a connection it
// opened beforehand so they arrive together.
func (d *drill) burstPhase(n int) {
	start := make(chan struct{})
	var warm, wg sync.WaitGroup
	var rejected atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		warm.Add(1)
		go func() {
			defer wg.Done()
			d.do("GET", "/healthz", nil, "")
			warm.Done()
			<-start
			status, body, err := d.do("POST", "/query", map[string]any{
				"query":    "(?a <urn:bench:join> ?b) (?b <urn:bench:join> ?c)",
				"order_by": []string{"a", "c"}, "limit": 10000, "models": []string{drillModel},
			}, "")
			d.record(status, body, err)
			if err == nil && (status == 429 || status == 503 || status == 507) {
				rejected.Add(1)
			}
		}()
	}
	warm.Wait()
	close(start)
	wg.Wait()
	d.burstRejected = rejected.Load()
}

// checkTraces fetches the newest retained trace by its ID. Rejections
// and faults are always retained, so the run must have kept some.
func (d *drill) checkTraces(t *testing.T) {
	var list struct {
		Retained int `json:"retained"`
		Traces   []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(d.get(t, "/debug/traces?limit=5"), &list); err != nil {
		t.Fatalf("decoding the trace list: %v", err)
	}
	if list.Retained == 0 || len(list.Traces) == 0 {
		t.Fatalf("no trace retained after the burst")
	}
	id := list.Traces[0].ID
	var td struct {
		ID    string            `json:"id"`
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(d.get(t, "/debug/traces/"+id), &td); err != nil || td.ID != id || len(td.Spans) == 0 {
		t.Fatalf("trace %s fetched as id %q with %d spans (err %v)", id, td.ID, len(td.Spans), err)
	}
}

// checkMetrics reads the run's own exposition: the injected faults must
// have degraded the store, and admission must have counted rejections.
func (d *drill) checkMetrics(t *testing.T) {
	exp, err := obs.ParseExposition(bytes.NewReader(d.get(t, "/debug/metrics")))
	if err != nil {
		t.Fatalf("parsing /debug/metrics: %v", err)
	}
	var degraded, rejected float64
	for _, s := range exp.Samples {
		switch {
		case s.Name == "supervise_degraded_total":
			degraded += s.Value
		case strings.HasPrefix(s.Name, "server_rejected_") && strings.HasSuffix(s.Name, "_total"):
			rejected += s.Value
		}
	}
	t.Logf("metrics: supervise_degraded_total %g, server_rejected_*_total %g", degraded, rejected)
	if degraded == 0 {
		t.Errorf("no injected fault degraded the store (supervise_degraded_total 0)")
	}
	if rejected == 0 {
		t.Errorf("admission counted no rejection (server_rejected_*_total 0)")
	}
}

// drain cancels run's context while 64 readers are in flight: run must
// return nil, and every reader must end within the hang budget.
func (d *drill) drain(t *testing.T) {
	var draining atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				status, body, err := d.do("GET", sentinelPath(i), nil, "")
				d.record(status, body, err)
				if err == nil {
					d.verifySentinel(i, status, body)
				}
				// A closed connection or a shutting_down answer ends the reader.
				if (err != nil && draining.Load()) || (status == 503 && bytes.Contains(body, []byte(`"shutting_down"`))) {
					return
				}
			}
		}(w % numSentinels)
	}
	time.Sleep(200 * time.Millisecond)
	draining.Store(true)
	d.cancel()
	select {
	case <-d.done:
	case <-time.After(hangBudget):
		t.Fatalf("run did not return within %s of cancel", hangBudget)
	}
	if d.runErr != nil {
		t.Errorf("run returned %v after cancel", d.runErr)
	}
	wg.Wait() // the client bounds each request; one past it is booked as hung
}

// verdicts logs the run's tallies and fails on any broken promise.
func (d *drill) verdicts(t *testing.T) {
	t.Logf("requests %d, statuses %v, error codes %v, burst rejected %d, transport errors %d",
		d.requests.Load(), d.statuses, d.codes, d.burstRejected, d.netErrs.Load())
	if n := d.corrupt.Load(); n > 0 {
		t.Errorf("%d sentinel reads returned wrong data", n)
	}
	if n := d.hung.Load(); n > 0 {
		t.Errorf("%d requests hung past %s", n, hangBudget)
	}
	if d.burstRejected == 0 {
		t.Errorf("the burst exceeded admission capacity but nothing was rejected")
	}
	if n := d.statuses[http.StatusInternalServerError]; n > 0 {
		t.Errorf("%d responses were 500", n)
	}
	if len(d.untyped) > 0 {
		t.Errorf("non-200 responses without a typed error code, e.g. %q", d.untyped)
	}
}
