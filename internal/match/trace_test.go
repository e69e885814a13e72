package match

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

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
	if tr.Rows != 1 || tr.Total <= 0 {
		t.Fatalf("trace totals = rows %d total %v", tr.Rows, tr.Total)
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

// TestTraceSpanProjection pins the span half of the Trace's two
// projections: a query run under a retained root span leaves one
// match.query child carrying the plan and row count, and under it one
// match.stage child per executed stage whose in/candidates/out/est
// attributes equal the same run's Trace.Stages.
func TestTraceSpanProjection(t *testing.T) {
	s := chainStore(t, 100)
	tracer := trace.New(trace.Config{SlowThreshold: time.Hour, SampleRate: 1, Capacity: 1})
	root := tracer.StartRoot("test.query")
	var tr Trace
	_, err := MatchContext(trace.WithSpan(context.Background(), root), s, threeJoinQuery, Options{
		Models: []string{"g"}, Aliases: govAliases(), Trace: &tr,
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	td, ok := tracer.Get(root.TraceID())
	if !ok {
		t.Fatal("sample-rate-1 trace was not retained")
	}
	var queries []trace.SpanData
	for _, sd := range td.Spans {
		if sd.Parent == root.SpanID() {
			queries = append(queries, sd)
		}
	}
	if len(queries) != 1 || queries[0].Name != "match.query" {
		t.Fatalf("root's children = %+v, want one match.query", queries)
	}
	q := queries[0]
	if q.Attrs["plan"] != "2,1,0" || q.Attrs["rows"] != strconv.Itoa(tr.Rows) {
		t.Fatalf("match.query attrs = %v, want plan 2,1,0 and rows %d", q.Attrs, tr.Rows)
	}
	stages := map[string]trace.SpanData{}
	for _, sd := range td.Spans {
		if sd.Parent == q.ID {
			stages[sd.Name] = sd
		}
	}
	if len(stages) != len(tr.Stages) || len(tr.Stages) != 3 {
		t.Fatalf("%d stage spans for %d traced stages, want 3 of each: %v", len(stages), len(tr.Stages), stages)
	}
	for i, st := range tr.Stages {
		name := fmt.Sprintf("match.stage %d: #%d", i+1, st.Index)
		sd, ok := stages[name]
		if !ok {
			t.Fatalf("no span %q among %v", name, stages)
		}
		want := map[string]string{
			"pattern":    st.Pattern,
			"in":         strconv.Itoa(st.InBindings),
			"candidates": strconv.Itoa(st.Candidates),
			"out":        strconv.Itoa(st.OutBindings),
			"est":        formatEst(st.EstRows),
		}
		for k, v := range want {
			if sd.Attrs[k] != v {
				t.Errorf("%s: attr %s = %q, want %q (Trace.Stages[%d] = %+v)", name, k, sd.Attrs[k], v, i, st)
			}
		}
		if sd.Duration != st.Duration {
			t.Errorf("%s: duration %v, want %v", name, sd.Duration, st.Duration)
		}
	}
}

// TestUntracedMatchUnchanged: a plain Match (no trace, no span) must
// behave exactly as before — this is the disabled path
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
// per-stage timing on the join hot path.
func BenchmarkThreePatternJoinTraced(b *testing.B) {
	s := chainStore(b, 1000)
	var tr Trace
	opts := Options{Models: []string{"g"}, Aliases: govAliases(), Trace: &tr}
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
