package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdfterm"
)

// testStore loads a tiny model: a chain a→b→c plus a literal, enough to
// exercise every endpoint.
func testStore(t testing.TB) *core.Store {
	t.Helper()
	s := core.New()
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	u := func(n string) rdfterm.Term { return rdfterm.NewURI("http://x#" + n) }
	batch := []core.BatchTriple{
		{Subject: u("a"), Predicate: u("p"), Object: u("b")},
		{Subject: u("b"), Predicate: u("p"), Object: u("c")},
		{Subject: u("a"), Predicate: u("name"), Object: rdfterm.NewLiteral("alice")},
	}
	if _, err := s.InsertBatchCtx(context.Background(), "m", batch); err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer builds a server over testStore with optional config
// tweaks applied before New.
func newTestServer(t testing.TB, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Backend:       StoreBackend{S: testStore(t)},
		DefaultModels: []string{"m"},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one request through the handler and returns the recorder.
func do(t testing.TB, h http.Handler, method, target string, body any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, target, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// errCode decodes the typed error envelope.
func errCode(t testing.TB, rr *httptest.ResponseRecorder) string {
	t.Helper()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatalf("error envelope: %v (body %q)", err, rr.Body.String())
	}
	return env.Error.Code
}

func wantStatus(t testing.TB, rr *httptest.ResponseRecorder, status int) {
	t.Helper()
	if rr.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", rr.Code, status, rr.Body.String())
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rr := do(t, s.Handler(), "POST", "/query", map[string]any{
		"query": "(?s <http://x#p> ?o)", "order_by": []string{"s"},
	}, nil)
	wantStatus(t, rr, 200)
	var resp queryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || len(resp.Rows) != 2 {
		t.Fatalf("count = %d rows = %d, want 2/2", resp.Count, len(resp.Rows))
	}
	if resp.Rows[0][0] != "<http://x#a>" {
		t.Fatalf("first subject = %q, want <http://x#a>", resp.Rows[0][0])
	}
	if resp.Truncated {
		t.Fatal("unexpected truncation")
	}
}

func TestQueryTrace(t *testing.T) {
	s := newTestServer(t, nil)
	rr := do(t, s.Handler(), "POST", "/query", map[string]any{
		"query": "(?s <http://x#p> ?o)", "trace": true,
	}, nil)
	wantStatus(t, rr, 200)
	var resp queryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || len(resp.Trace.Stages) != 1 {
		t.Fatalf("trace = %+v, want 1 stage", resp.Trace)
	}
	// One planner: no planner key, and every executed stage carries its
	// estimate.
	var raw struct {
		Trace struct {
			Planner *string
			Stages  []struct {
				EstRows *float64 `json:"est_rows"`
			}
		}
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Trace.Planner != nil || len(raw.Trace.Stages) != 1 || raw.Trace.Stages[0].EstRows == nil {
		t.Fatalf("trace = %s, want no planner and est_rows on every stage", rr.Body.String())
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"bad syntax", map[string]any{"query": "(?s"}, 400, CodeBadRequest},
		{"empty", map[string]any{}, 400, CodeBadRequest},
		{"unknown field", map[string]any{"query": "(?s ?p ?o)", "nope": 1}, 400, CodeBadRequest},
		{"unknown model", map[string]any{"query": "(?s ?p ?o)", "models": []string{"ghost"}}, 404, CodeUnknownModel},
	} {
		rr := do(t, s.Handler(), "POST", "/query", tc.body, nil)
		if rr.Code != tc.status || errCode(t, rr) != tc.code {
			t.Fatalf("%s: status %d code %q, want %d %q (body %s)",
				tc.name, rr.Code, errCode(t, rr), tc.status, tc.code, rr.Body.String())
		}
	}
}

func TestQueryNoDefaultModels(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.DefaultModels = nil })
	rr := do(t, s.Handler(), "POST", "/query", map[string]any{"query": "(?s ?p ?o)"}, nil)
	wantStatus(t, rr, 400)
}

func TestFindEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rr := do(t, s.Handler(), "GET", "/find?s=%3Chttp%3A%2F%2Fx%23a%3E", nil, nil)
	wantStatus(t, rr, 200)
	var resp findResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 {
		t.Fatalf("count = %d, want 2 (body %s)", resp.Count, rr.Body.String())
	}
	// Bad term syntax is the client's problem.
	rr = do(t, s.Handler(), "GET", "/find?s=%3Cnot", nil, nil)
	wantStatus(t, rr, 400)
}

func TestTraverseEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rr := do(t, s.Handler(), "POST", "/traverse", map[string]any{
		"op": "shortest_path", "source": "<http://x#a>", "target": "<http://x#c>",
	}, nil)
	wantStatus(t, rr, 200)
	var resp traverseResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Found || len(resp.Path) != 3 {
		t.Fatalf("found = %v path = %v, want a 3-node path", resp.Found, resp.Path)
	}

	rr = do(t, s.Handler(), "POST", "/traverse", map[string]any{
		"op": "reachable", "source": "<http://x#a>",
	}, nil)
	wantStatus(t, rr, 200)
	resp = traverseResponse{}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Count < 2 {
		t.Fatalf("reachable = %+v, want at least b and c", resp)
	}

	// No path between disconnected nodes is found:false, not an error.
	rr = do(t, s.Handler(), "POST", "/traverse", map[string]any{
		"op": "shortest_path", "source": "<http://x#c>", "target": "<http://x#a>",
	}, nil)
	wantStatus(t, rr, 200)
	resp = traverseResponse{}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Found {
		t.Fatal("reverse path reported found on a directed chain")
	}

	rr = do(t, s.Handler(), "POST", "/traverse", map[string]any{
		"op": "warp", "source": "<http://x#a>",
	}, nil)
	wantStatus(t, rr, 400)

	// A source that is no node of the scoped models is a bad request for
	// every op: a node only another model uses, and a term interned only
	// as a predicate.
	st := s.cfg.Backend.Store()
	if _, err := st.CreateRDFModel("other", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertTerms("other", rdfterm.NewURI("http://x#z"), rdfterm.NewURI("http://x#q"), rdfterm.NewURI("http://x#a")); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"<http://x#z>", "<http://x#p>"} {
		for _, op := range []string{"shortest_path", "reachable", "within_cost", "nearest"} {
			rr = do(t, s.Handler(), "POST", "/traverse", map[string]any{
				"models": []string{"m"}, "op": op, "source": src, "target": "<http://x#c>", "max_cost": 5,
			}, nil)
			if rr.Code != 400 {
				t.Errorf("%s from %s: status %d, want 400: %s", op, src, rr.Code, rr.Body.String())
			}
		}
	}
}

func TestInsertEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rr := do(t, s.Handler(), "POST", "/insert", map[string]any{
		"model": "m",
		"triples": []map[string]string{
			{"s": "<http://x#c>", "p": "<http://x#p>", "o": "<http://x#d>"},
		},
	}, nil)
	wantStatus(t, rr, 200)
	var resp insertResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != 1 {
		t.Fatalf("inserted = %d, want 1", resp.Inserted)
	}
	// The write is visible to the read surface.
	rr = do(t, s.Handler(), "GET", "/find?s=%3Chttp%3A%2F%2Fx%23c%3E", nil, nil)
	wantStatus(t, rr, 200)
	if !strings.Contains(rr.Body.String(), "http://x#d") {
		t.Fatalf("inserted triple not visible: %s", rr.Body.String())
	}
}

func TestInsertBatchCap(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBatch = 2 })
	triples := make([]map[string]string, 3)
	for i := range triples {
		triples[i] = map[string]string{
			"s": fmt.Sprintf("<http://x#s%d>", i), "p": "<http://x#p>", "o": "<http://x#o>",
		}
	}
	rr := do(t, s.Handler(), "POST", "/insert", map[string]any{"model": "m", "triples": triples}, nil)
	wantStatus(t, rr, 413)
	if errCode(t, rr) != CodeBudget {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeBudget)
	}
}

func TestRowLimitTruncates(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxRows = 1 })
	rr := do(t, s.Handler(), "POST", "/query", map[string]any{"query": "(?s ?p ?o)"}, nil)
	wantStatus(t, rr, 200)
	var resp queryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || !resp.Truncated {
		t.Fatalf("count = %d truncated = %v, want 1/true", resp.Count, resp.Truncated)
	}
	// A client limit above the server cap clamps silently.
	rr = do(t, s.Handler(), "POST", "/query", map[string]any{"query": "(?s ?p ?o)", "limit": 50}, nil)
	var resp2 queryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Count != 1 {
		t.Fatalf("clamped count = %d, want 1", resp2.Count)
	}
}

func TestBindingsBudget(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBindings = 1 })
	rr := do(t, s.Handler(), "POST", "/query", map[string]any{
		"query": "(?s <http://x#p> ?o) (?o <http://x#p> ?x)",
	}, nil)
	wantStatus(t, rr, 413)
	if errCode(t, rr) != CodeBudget {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeBudget)
	}
}

func TestResultByteBudget(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxResultBytes = 16 })
	rr := do(t, s.Handler(), "POST", "/query", map[string]any{"query": "(?s ?p ?o)"}, nil)
	wantStatus(t, rr, 413)
	if errCode(t, rr) != CodeBudget {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeBudget)
	}
}

func TestBadTimeout(t *testing.T) {
	s := newTestServer(t, nil)
	for _, q := range []string{"timeout=banana", "timeout=-1s", "timeout=0"} {
		rr := do(t, s.Handler(), "POST", "/query?"+q, map[string]any{"query": "(?s ?p ?o)"}, nil)
		wantStatus(t, rr, 400)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInflight = 1; c.MaxQueue = -1 })
	release, err := s.lim.TryAcquire("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rr := do(t, s.Handler(), "GET", "/find", nil, nil)
	wantStatus(t, rr, 429)
	if errCode(t, rr) != CodeQueueFull {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeQueueFull)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestAdmissionWaitTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInflight = 1; c.QueueWait = 20 * time.Millisecond })
	release, err := s.lim.TryAcquire("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rr := do(t, s.Handler(), "GET", "/find", nil, nil)
	wantStatus(t, rr, 429)
	if errCode(t, rr) != CodeWaitTimeout {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeWaitTimeout)
	}
}

func TestAdmissionTenantLimit(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.TenantCap = 1 })
	release, err := s.lim.TryAcquire("noisy", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rr := do(t, s.Handler(), "GET", "/find", nil, map[string]string{"X-Tenant": "noisy"})
	wantStatus(t, rr, 429)
	if errCode(t, rr) != CodeTenantLimit {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeTenantLimit)
	}
	// Another tenant is unaffected.
	rr = do(t, s.Handler(), "GET", "/find", nil, map[string]string{"X-Tenant": "quiet"})
	wantStatus(t, rr, 200)
}

func TestIndexAndNotFound(t *testing.T) {
	s := newTestServer(t, nil)
	rr := do(t, s.Handler(), "GET", "/", nil, nil)
	wantStatus(t, rr, 200)
	rr = do(t, s.Handler(), "GET", "/nope", nil, nil)
	wantStatus(t, rr, 404)
}

func TestHealthzAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, func(c *Config) { c.Registry = reg })
	rr := do(t, s.Handler(), "GET", "/healthz", nil, nil)
	wantStatus(t, rr, 200)

	// One admitted request, then the server series show up on the admin
	// metrics surface.
	do(t, s.Handler(), "POST", "/query", map[string]any{"query": "(?s ?p ?o)"}, nil)
	rr = do(t, s.Handler(), "GET", "/debug/metrics", nil, nil)
	wantStatus(t, rr, 200)
	for _, series := range []string{"server_admitted_total", "server_responses_2xx_total", "server_query_seconds"} {
		if !strings.Contains(rr.Body.String(), series) {
			t.Fatalf("metrics output missing %s", series)
		}
	}
}

// testEndpointMux mounts a white-box endpoint through the full
// middleware chain next to the real routes.
func testEndpointMux(s *Server, name string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("POST /"+name, s.wrap(endpoint{name: name, weight: 1, handle: h}))
	return mux
}

func TestPanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, func(c *Config) { c.Registry = reg })
	h := testEndpointMux(s, "boom", func(context.Context, http.ResponseWriter, *http.Request) error {
		panic("kaboom")
	})
	rr := do(t, h, "POST", "/boom", nil, nil)
	wantStatus(t, rr, 500)
	if errCode(t, rr) != CodeInternal {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeInternal)
	}
	// The server survives and keeps serving.
	rr = do(t, h, "POST", "/query", map[string]any{"query": "(?s ?p ?o)"}, nil)
	wantStatus(t, rr, 200)
	rr = do(t, h, "GET", "/debug/metrics", nil, nil)
	if !strings.Contains(rr.Body.String(), "server_panics_recovered_total 1") {
		t.Fatal("recovered panic not counted")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	s := newTestServer(t, nil)
	h := testEndpointMux(s, "sleep", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		<-ctx.Done()
		return ctx.Err()
	})
	start := time.Now()
	rr := do(t, h, "POST", "/sleep?timeout=30ms", nil, nil)
	wantStatus(t, rr, 504)
	if errCode(t, rr) != CodeDeadline {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeDeadline)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("deadline did not bound the request")
	}
}

func TestInsertDeadlineBeforeMutate(t *testing.T) {
	s := newTestServer(t, nil)
	rr := do(t, s.Handler(), "POST", "/insert?timeout=1ns", map[string]any{
		"model": "m",
		"triples": []map[string]string{
			{"s": "<http://x#z>", "p": "<http://x#p>", "o": "<http://x#z2>"},
		},
	}, nil)
	wantStatus(t, rr, 504)
}

func TestShutdownDrains(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.DrainGrace = 30 * time.Millisecond })
	h := testEndpointMux(s, "sleep", func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		<-ctx.Done()
		return ctx.Err()
	})
	ts := httptest.NewUnstartedServer(h)
	ts.Config.BaseContext = func(net.Listener) context.Context { return s.baseCtx }
	ts.Start()
	defer ts.Close()

	// An in-flight request waiting on its context is cancelled by drain
	// and answered with 503 shutting_down, within the grace window.
	type result struct {
		status int
		code   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/sleep", "application/json", nil)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		json.Unmarshal(body, &env)
		done <- result{status: resp.StatusCode, code: env.Error.Code}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var sdErr error
	go func() { defer wg.Done(); sdErr = s.Shutdown(sctx) }()

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("in-flight request failed transport-level: %v", r.err)
		}
		if r.status != 503 || r.code != CodeShuttingDown {
			t.Fatalf("drained request = %d %q, want 503 %q", r.status, r.code, CodeShuttingDown)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request hung through shutdown")
	}

	// New requests are rejected while draining.
	rr := do(t, h, "POST", "/query", map[string]any{"query": "(?s ?p ?o)"}, nil)
	wantStatus(t, rr, 503)
	if errCode(t, rr) != CodeShuttingDown {
		t.Fatalf("code = %q, want %q", errCode(t, rr), CodeShuttingDown)
	}
	if got := rr.Header().Get("Retry-After"); got == "" {
		t.Fatal("shutting_down without Retry-After")
	}
	rr = do(t, h, "GET", "/healthz", nil, nil)
	wantStatus(t, rr, 503)

	wg.Wait()
	if sdErr != nil && !strings.Contains(sdErr.Error(), "closed") {
		t.Fatalf("shutdown: %v", sdErr)
	}
}

// TestShutdownBeforeServe: a Shutdown that lands before Serve has
// registered its http.Server (a signal during start-up) must still stop
// Serve, which returns at once instead of serving forever.
func TestShutdownBeforeServe(t *testing.T) {
	s := newTestServer(t, nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve after Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		ln.Close()
		t.Fatal("Serve kept serving after Shutdown")
	}
}
