package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// always retains everything it finishes: sampling at 1 keeps even
// fast, clean traces.
func alwaysTracer() *Tracer {
	return New(Config{SlowThreshold: time.Hour, SampleRate: 1})
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	if sp != nil {
		t.Fatalf("nil tracer returned a span")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("nil tracer polluted the context")
	}
	if tr.StartRoot("bg") != nil {
		t.Fatalf("nil tracer StartRoot returned a span")
	}
	if got := tr.Len(); got != 0 {
		t.Fatalf("nil tracer Len = %d", got)
	}
	if _, ok := tr.Get("deadbeef"); ok {
		t.Fatalf("nil tracer Get succeeded")
	}
	if tr.Snapshot() != nil {
		t.Fatalf("nil tracer Snapshot non-nil")
	}

	// Every span method must be callable on nil.
	var s *Span
	s.SetAttr("k", "v")
	s.SetInt("n", 1)
	s.SetError(errors.New("boom"))
	s.Force()
	s.AddCompleted("pre", time.Time{}, time.Second, nil, false)
	if s.Child("c") != nil {
		t.Fatalf("nil span Child returned a span")
	}
	if s.TraceID() != "" || s.SpanID() != "" || s.Traceparent() != "" {
		t.Fatalf("nil span leaked identifiers")
	}
	s.End()
}

func TestTailSamplingRetainsSlowErrorForced(t *testing.T) {
	tr := New(Config{SlowThreshold: 10 * time.Millisecond, SampleRate: 0})

	// Fast, clean, unforced: dropped.
	fast := tr.StartRoot("fast")
	fast.End()
	if tr.Len() != 0 {
		t.Fatalf("fast clean trace retained")
	}

	// Slow: retained with ReasonSlow.
	slow := tr.StartRoot("slow")
	time.Sleep(15 * time.Millisecond)
	slow.End()
	td, ok := tr.Get(slow.TraceID())
	if !ok || td.Reason != ReasonSlow {
		t.Fatalf("slow trace: ok=%v reason=%q", ok, td.Reason)
	}

	// Errored: retained with ReasonError, Error set.
	bad := tr.StartRoot("bad")
	bad.SetError(errors.New("boom"))
	bad.End()
	td, ok = tr.Get(bad.TraceID())
	if !ok || td.Reason != ReasonError || !td.Error {
		t.Fatalf("errored trace: ok=%v reason=%q error=%v", ok, td.Reason, td.Error)
	}
	if td.Spans[0].Attrs["error"] != "boom" {
		t.Fatalf("error message not recorded: %v", td.Spans[0].Attrs)
	}

	// Forced: retained with ReasonForced even though fast and clean.
	forced := tr.StartRoot("forced")
	forced.Force()
	forced.End()
	if td, ok = tr.Get(forced.TraceID()); !ok || td.Reason != ReasonForced {
		t.Fatalf("forced trace: ok=%v reason=%q", ok, td.Reason)
	}
}

func TestProbabilisticSampling(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour, SampleRate: 1})
	s := tr.StartRoot("sampled")
	s.End()
	td, ok := tr.Get(s.TraceID())
	if !ok || td.Reason != ReasonSampled {
		t.Fatalf("rate-1 sampling: ok=%v reason=%q", ok, td.Reason)
	}

	tr0 := New(Config{SlowThreshold: time.Hour, SampleRate: 0})
	for i := 0; i < 100; i++ {
		s := tr0.StartRoot("never")
		s.End()
	}
	if tr0.Len() != 0 {
		t.Fatalf("rate-0 sampling retained %d traces", tr0.Len())
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := alwaysTracer()
	ctx, root := tr.Start(context.Background(), "request")
	root.SetAttr("tenant", "acme")

	ctx2, child := tr.Start(ctx, "phase")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child changed trace ID")
	}
	grand := FromContext(ctx2).Child("leaf")
	grand.SetInt("rows", 42)
	grand.End()
	child.End()
	root.AddCompleted("pre-measured", root.start, 3*time.Millisecond,
		map[string]string{"k": "v"}, false)
	root.End()

	td, ok := tr.Get(root.TraceID())
	if !ok {
		t.Fatalf("trace not retained")
	}
	if td.Root != "request" || len(td.Spans) != 4 {
		t.Fatalf("root=%q spans=%d, want request/4", td.Root, len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	if byName["request"].Parent != "" {
		t.Fatalf("root has a parent")
	}
	if byName["phase"].Parent != byName["request"].ID {
		t.Fatalf("phase not parented to request")
	}
	if byName["leaf"].Parent != byName["phase"].ID {
		t.Fatalf("leaf not parented to phase")
	}
	if byName["pre-measured"].Parent != byName["request"].ID {
		t.Fatalf("AddCompleted not parented to its span")
	}
	if byName["leaf"].Attrs["rows"] != "42" {
		t.Fatalf("SetInt lost: %v", byName["leaf"].Attrs)
	}
	if got := td.RootAttr("tenant"); got != "acme" {
		t.Fatalf("RootAttr tenant = %q", got)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := alwaysTracer()
	s := tr.StartRoot("once")
	s.End()
	s.End()
	if tr.Len() != 1 {
		t.Fatalf("double End stored %d traces", tr.Len())
	}
	td, _ := tr.Get(s.TraceID())
	if len(td.Spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(td.Spans))
	}
}

func TestMaxSpansTruncates(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour, SampleRate: 1, MaxSpans: 4})
	root := tr.StartRoot("big")
	for i := 0; i < 10; i++ {
		c := root.Child(fmt.Sprintf("c%d", i))
		c.End()
	}
	root.End()
	td, ok := tr.Get(root.TraceID())
	if !ok {
		t.Fatalf("trace not retained")
	}
	if !td.Truncated {
		t.Fatalf("trace not marked truncated")
	}
	if len(td.Spans) > 4 {
		t.Fatalf("span budget not enforced: %d spans", len(td.Spans))
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour, SampleRate: 1, Capacity: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		s := tr.StartRoot(fmt.Sprintf("t%d", i))
		s.End()
		ids = append(ids, s.TraceID())
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	for _, old := range ids[:2] {
		if _, ok := tr.Get(old); ok {
			t.Fatalf("evicted trace %s still retrievable", old)
		}
	}
	for _, cur := range ids[2:] {
		if _, ok := tr.Get(cur); !ok {
			t.Fatalf("recent trace %s lost", cur)
		}
	}
	snap := tr.Snapshot()
	if len(snap) != 3 || snap[0].Root != "t4" || snap[2].Root != "t2" {
		t.Fatalf("snapshot not newest-first: %+v", snap)
	}
}

func TestStartRemoteContinuesTraceparent(t *testing.T) {
	tr := alwaysTracer()
	const inID = "4bf92f3577b34da6a3ce929d0e0e4736"
	in := "00-" + inID + "-00f067aa0ba902b7-01"
	ctx, sp := tr.StartRemote(context.Background(), "request", in)
	if sp.TraceID() != inID {
		t.Fatalf("remote trace ID not reused: %s", sp.TraceID())
	}
	if FromContext(ctx) != sp {
		t.Fatalf("context does not carry the span")
	}
	out := sp.Traceparent()
	gotID, gotSpan, ok := ParseTraceparent(out)
	if !ok || gotID != inID || gotSpan != sp.SpanID() {
		t.Fatalf("outgoing traceparent %q does not round-trip", out)
	}
	sp.End()
	td, _ := tr.Get(inID)
	if td.RootAttr("remote_parent") != "00f067aa0ba902b7" {
		t.Fatalf("remote parent not recorded: %v", td.Spans)
	}

	// Malformed header: fresh trace, no error.
	_, sp2 := tr.StartRemote(context.Background(), "request", "garbage")
	if sp2.TraceID() == "" || sp2.TraceID() == inID {
		t.Fatalf("malformed traceparent mishandled: %q", sp2.TraceID())
	}
	sp2.End()
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0eXYZW-00f067aa0ba902b7-01", // non-hex
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase (spec: lowercase only)
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := alwaysTracer()
	root := tr.StartRoot("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child(fmt.Sprintf("worker-%d", i))
			c.SetInt("i", int64(i))
			if i%3 == 0 {
				c.SetError(errors.New("flake"))
			}
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	td, ok := tr.Get(root.TraceID())
	if !ok {
		t.Fatalf("trace not retained")
	}
	if len(td.Spans) != 17 {
		t.Fatalf("spans = %d, want 17", len(td.Spans))
	}
	if !td.Error || td.Reason != ReasonError {
		t.Fatalf("child error did not mark the trace: error=%v reason=%q", td.Error, td.Reason)
	}
}

func TestWriteTreeRenders(t *testing.T) {
	tr := alwaysTracer()
	root := tr.StartRoot("request")
	c := root.Child("match.query")
	c.SetAttr("planner", "cost")
	c.End()
	root.End()
	td, _ := tr.Get(root.TraceID())
	var b strings.Builder
	WriteTree(&b, td)
	out := b.String()
	for _, want := range []string{root.TraceID(), "request", "match.query", "planner=cost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	// Child renders deeper than root.
	rootLine := strings.Index(out, "\n  request")
	childLine := strings.Index(out, "\n    match.query")
	if rootLine < 0 || childLine < 0 || childLine < rootLine {
		t.Fatalf("tree indentation wrong:\n%s", out)
	}
}
