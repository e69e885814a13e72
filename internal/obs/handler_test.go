package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("demo_ops_total", "operations served").Add(42)
	r.Gauge("demo_depth", "queue depth").Set(7)
	h := r.Histogram("demo_latency_seconds", "op latency", DurationBuckets)
	h.Observe(0.002)
	h.Observe(0.3)
	r.Events().Emit("demo", "started", map[string]string{"pid": "1"})
	r.Events().Emit("demo", "tick", nil)
	return r
}

// TestHandlerMetricsGolden scrapes /metrics and re-parses it with the
// same strict parser CI uses — the golden property is "parseable and
// complete", not byte-for-byte output.
func TestHandlerMetricsGolden(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testRegistry(), nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want 0.0.4 exposition", ct)
	}
	exp, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition unparseable: %v", err)
	}
	if exp.Types["demo_ops_total"] != "counter" ||
		exp.Types["demo_depth"] != "gauge" ||
		exp.Types["demo_latency_seconds"] != "histogram" {
		t.Fatalf("families missing or mistyped: %v", exp.Types)
	}
	var gotCounter bool
	for _, s := range exp.Samples {
		if s.Name == "demo_ops_total" && s.Value == 42 {
			gotCounter = true
		}
	}
	if !gotCounter {
		t.Fatal("demo_ops_total 42 not in exposition")
	}
}

func TestHandlerHealthz(t *testing.T) {
	state := Health{Healthy: true, State: "Healthy"}
	srv := httptest.NewServer(NewHandler(nil, func() Health { return state }))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthy /healthz: %s", resp.Status)
	}

	// Force a Degraded state: 503 plus a JSON body carrying the reason.
	state = Health{
		Healthy: false, State: "Degraded", Reason: "wal: sync failed",
		Detail: map[string]any{"recoveries": 2},
	}
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("degraded /healthz: %s, want 503", resp.Status)
	}
	var got Health
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Healthy || got.State != "Degraded" || got.Reason == "" {
		t.Fatalf("degraded payload = %+v", got)
	}
}

func TestHandlerEvents(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testRegistry(), nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Name != "started" || events[1].Name != "tick" {
		t.Fatalf("events = %+v", events)
	}

	resp, err = srv.Client().Get(srv.URL + "/events?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events = nil
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "tick" {
		t.Fatalf("?n=1 events = %+v", events)
	}
}

// A nil registry must still serve an empty-but-valid admin surface: the
// CLIs pass nil when -admin is set without any instrumented subsystem.
func TestHandlerNilRegistry(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := ParseExposition(resp.Body); err != nil {
		t.Fatalf("empty exposition unparseable: %v", err)
	}

	resp, err = srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("/events on nil registry must be a JSON array: %v", err)
	}
	if events == nil || len(events) != 0 {
		t.Fatalf("events = %v, want []", events)
	}
}

func TestHandlerPprofIndex(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: %s", resp.Status)
	}
}
