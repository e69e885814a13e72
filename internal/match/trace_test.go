package match

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestTraceThreePatternJoin pins the EXPLAIN contract on the chain
// store: plan order starts from the selective type probe, stages appear
// in execution order, and candidate/binding counts reflect the data.
func TestTraceThreePatternJoin(t *testing.T) {
	s := chainStore(t, 100)
	var tr Trace
	rs, err := MatchContext(context.Background(), s, threeJoinQuery, Options{
		Models: []string{"g"}, Aliases: govAliases(), Trace: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("join returned %d rows", rs.Len())
	}
	// Pattern 2 (?z gov:type "target") is 2-bound and must run first.
	if len(tr.PlanOrder) != 3 || tr.PlanOrder[0] != 2 {
		t.Fatalf("PlanOrder = %v, want [2 ...]", tr.PlanOrder)
	}
	if len(tr.Stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(tr.Stages))
	}
	first := tr.Stages[0]
	if first.Index != 2 || first.InBindings != 1 || first.Candidates != 1 || first.OutBindings != 1 {
		t.Fatalf("first stage = %+v, want index 2, in=1, candidates=1, out=1", first)
	}
	for i, st := range tr.Stages {
		if st.Pattern == "" {
			t.Fatalf("stage %d has empty pattern text", i)
		}
		if st.Duration < 0 {
			t.Fatalf("stage %d has negative duration", i)
		}
	}
	if tr.Rows != 1 || tr.Total <= 0 || tr.Query != threeJoinQuery {
		t.Fatalf("trace summary = rows %d total %v query %q", tr.Rows, tr.Total, tr.Query)
	}

	var sb strings.Builder
	tr.Format(&sb)
	out := sb.String()
	// The cost planner starts from the selective type probe, then chains
	// through the connected patterns: 2 -> 1 -> 0.
	for _, want := range []string{"plan: 2 -> 1 -> 0\n", "stage 1: #2", "candidates=1", "est=", "total "} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

// TestMatchMetricsAndSlowQuery: an instrumented query populates the
// match_* series, and a query over the (zero-effective) threshold lands
// in the event log with structured fields.
func TestMatchMetricsAndSlowQuery(t *testing.T) {
	s := chainStore(t, 50)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	_, err := MatchContext(context.Background(), s, threeJoinQuery, Options{
		Models: []string{"g"}, Aliases: govAliases(),
		Metrics: met, SlowQuery: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if c, ok := snap.Counter("match_queries_total"); !ok || c.Value != 1 {
		t.Fatalf("match_queries_total = %+v", c)
	}
	if c, ok := snap.Counter("match_slow_queries_total"); !ok || c.Value != 1 {
		t.Fatalf("match_slow_queries_total = %+v", c)
	}
	if h, ok := snap.Histogram("match_stage_seconds"); !ok || h.Count != 3 {
		t.Fatalf("match_stage_seconds count = %+v", h)
	}
	if h, ok := snap.Histogram("match_stage_candidates"); !ok || h.Count != 3 {
		t.Fatalf("match_stage_candidates count = %+v", h)
	}
	events := reg.Events().Snapshot()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1 slow_query", len(events))
	}
	ev := events[0]
	if ev.Scope != "match" || ev.Name != "slow_query" {
		t.Fatalf("event = %+v", ev)
	}
	for _, k := range []string{"query", "plan", "stages", "rows", "total"} {
		if ev.Fields[k] == "" {
			t.Fatalf("slow_query event missing field %q: %+v", k, ev.Fields)
		}
	}
	if ev.Fields["plan"] != "2,1,0" {
		t.Fatalf("slow_query plan = %q, want 2,1,0", ev.Fields["plan"])
	}
	if _, ok := ev.Fields["planner"]; ok {
		t.Fatalf("slow_query event carries a planner field: %+v", ev.Fields)
	}
	if !strings.Contains(ev.Fields["stages"], " est=") {
		t.Fatalf("slow_query stages lack estimates: %q", ev.Fields["stages"])
	}
}

// TestUntracedMatchUnchanged: a plain Match (no trace, no metrics, no
// threshold) must behave exactly as before — this is the disabled path
// the overhead benchmark compares against.
func TestUntracedMatchUnchanged(t *testing.T) {
	s := chainStore(t, 20)
	rs, err := MatchContext(context.Background(), s, threeJoinQuery, Options{Models: []string{"g"}, Aliases: govAliases()})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
}

// BenchmarkThreePatternJoinTraced is the enabled-path counterpart of
// BenchmarkThreePatternJoin: comparing the two quantifies the cost of
// per-stage timing plus metrics on the join hot path.
func BenchmarkThreePatternJoinTraced(b *testing.B) {
	s := chainStore(b, 1000)
	met := NewMetrics(obs.NewRegistry())
	var tr Trace
	opts := Options{Models: []string{"g"}, Aliases: govAliases(), Trace: &tr, Metrics: met}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := MatchContext(context.Background(), s, threeJoinQuery, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatalf("join returned %d rows", rs.Len())
		}
	}
}

// BenchmarkThreePatternJoinNilTracer is the disabled-path tracing
// benchmark: MatchContext through a context that carries no span (the
// nil-Tracer wiring — StartRoot on a nil Tracer yields a nil Span and
// WithSpan drops it). Every span hook on the join hot path must reduce
// to a one-branch nil check, so this must track
// BenchmarkThreePatternJoin within noise.
func BenchmarkThreePatternJoinNilTracer(b *testing.B) {
	s := chainStore(b, 1000)
	var tr *trace.Tracer // nil: tracing disabled
	ctx := trace.WithSpan(context.Background(), tr.StartRoot("bench"))
	opts := Options{Models: []string{"g"}, Aliases: govAliases()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := MatchContext(ctx, s, threeJoinQuery, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatalf("join returned %d rows", rs.Len())
		}
	}
}
