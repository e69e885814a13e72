package supervise

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdfterm"
)

// TestTransitionsRouteToEventLog: every state change lands in the obs
// event log with structured fields (state, rootCause, attempt), and the
// supervisor series track the fault lifecycle.
func TestTransitionsRouteToEventLog(t *testing.T) {
	reg := obs.NewRegistry()
	sv, fo, _, _ := openTestSupervisor(t, func(cfg *Config) {
		cfg.Obs = reg
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Trip a transient durability fault; the next attempt heals it.
	fo.current().FailWrites(1)
	if err := insert(sv, "m", "x:s", "x:p", "x:o"); err == nil {
		t.Fatal("mutation against broken WAL succeeded")
	}
	waitState(t, sv, Healthy, 2*time.Second)

	events := reg.Events().Snapshot()
	var sawDegraded, sawRecovered bool
	for _, ev := range events {
		if ev.Scope != "supervise" || ev.Name != "transition" {
			continue
		}
		for _, k := range []string{"from", "to", "state", "attempt"} {
			if ev.Fields[k] == "" {
				t.Fatalf("transition event missing field %q: %+v", k, ev.Fields)
			}
		}
		switch {
		case ev.Fields["to"] == "Degraded" && ev.Fields["from"] == "Healthy":
			sawDegraded = true
			if ev.Fields["rootCause"] == "" {
				t.Fatalf("Healthy→Degraded event has no rootCause: %+v", ev.Fields)
			}
		case ev.Fields["to"] == "Healthy":
			sawRecovered = true
			// The recovery event still names the fault it recovered from.
			if ev.Fields["rootCause"] == "" {
				t.Fatalf("→Healthy event has no rootCause: %+v", ev.Fields)
			}
		}
	}
	if !sawDegraded || !sawRecovered {
		t.Fatalf("event log missing degrade/recover transitions: %+v", events)
	}

	snap := reg.Snapshot()
	if c, ok := snap.Counter("supervise_degraded_total"); !ok || c.Value < 1 {
		t.Fatalf("supervise_degraded_total = %+v", c)
	}
	if c, ok := snap.Counter("supervise_recovery_attempts_total"); !ok || c.Value < 1 {
		t.Fatalf("supervise_recovery_attempts_total = %+v", c)
	}
	if c, ok := snap.Counter("supervise_recoveries_total"); !ok || c.Value < 1 {
		t.Fatalf("supervise_recoveries_total = %+v", c)
	}
	if g, ok := snap.Gauge("supervise_state"); !ok || g.Value != int64(Healthy) {
		t.Fatalf("supervise_state = %+v, want Healthy", g)
	}
}

// TestAdminEndpointEndToEnd wires one registry through every subsystem
// — WAL, store, supervisor — serves it over the admin handler, and
// asserts a parseable exposition with at least 20 families spanning
// all three prefixes, and a /healthz that
// flips to 503 once the store is forced out of Healthy.
func TestAdminEndpointEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	sv, fo, _, _ := openTestSupervisor(t, func(cfg *Config) {
		cfg.Obs = reg
		cfg.Backoff.Initial = time.Hour // first failed attempt parks in Degraded
	})
	sv.Store().SetMetrics(core.NewMetrics(reg))

	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := rdfterm.ParseSubject("x:s", testAliases())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := rdfterm.ParsePredicate("x:p", testAliases())
	if err != nil {
		t.Fatal(err)
	}
	obj, err := rdfterm.ParseObject("x:o", testAliases())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.InsertBatch("m", []core.BatchTriple{{Subject: sub, Predicate: pred, Object: obj}}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.NewHandler(reg, func() obs.Health { return sv.Healthz() }))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	if exp.Families() < 20 {
		t.Fatalf("exposition has %d families, want >= 20", exp.Families())
	}
	for _, prefix := range []string{"wal_", "core_", "supervise_"} {
		if !exp.HasPrefix(prefix) {
			t.Fatalf("exposition missing %s* series (families: %v)", prefix, exp.Types)
		}
	}

	// Healthy first.
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthy /healthz: %s", resp.Status)
	}

	// Force a fault and keep recovery from healing it (reopen refused,
	// hour-long backoff): the supervisor parks in Degraded.
	fo.refuseNext(1000)
	fo.current().FailWrites(1000)
	if err := insert(sv, "m", "x:s2", "x:p", "x:o2"); err == nil {
		t.Fatal("mutation against broken WAL succeeded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := sv.State(); st == Degraded {
			break
		}
		time.Sleep(time.Millisecond)
	}

	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("degraded /healthz: %s, want 503", resp.Status)
	}
	var h obs.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Healthy || h.State == "Healthy" || h.Reason == "" {
		t.Fatalf("degraded payload = %+v", h)
	}
}
