package reify

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// genMixedInput builds a corpus with plain triples, repeated statements,
// complete reification quads, assertions about them, and an incomplete
// quad — everything the loader's three passes handle.
func genMixedInput(n int) string {
	var b strings.Builder
	const rdfNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<http://s/%d> <http://p/%d> \"v%d\" .\n", i%53, i%11, i)
		if i%10 == 3 { // repeat → cost bump
			fmt.Fprintf(&b, "<http://s/%d> <http://p/%d> \"v%d\" .\n", i%53, i%11, i)
		}
		if i%25 == 7 { // complete quad + assertion about it
			r := fmt.Sprintf("_:q%d", i)
			fmt.Fprintf(&b, "%s <%stype> <%sStatement> .\n", r, rdfNS, rdfNS)
			fmt.Fprintf(&b, "%s <%ssubject> <http://s/%d> .\n", r, rdfNS, i%53)
			fmt.Fprintf(&b, "%s <%spredicate> <http://p/%d> .\n", r, rdfNS, i%11)
			fmt.Fprintf(&b, "%s <%sobject> \"v%d\" .\n", r, rdfNS, i)
			fmt.Fprintf(&b, "<http://agent/%d> <http://said> %s .\n", i, r)
		}
	}
	// One incomplete quad (missing rdf:object).
	fmt.Fprintf(&b, "_:bad <%stype> <%sStatement> .\n", rdfNS, rdfNS)
	fmt.Fprintf(&b, "_:bad <%ssubject> <http://s/1> .\n", rdfNS)
	return b.String()
}

// TestLoadFastPathEquivalence: parallel parsing + batched inserts must
// produce the same stats and the same store state as the serial
// per-triple path.
func TestLoadFastPathEquivalence(t *testing.T) {
	input := genMixedInput(400)

	slowLoader, slow := newLoader(t, DropIncomplete)
	slowStats, err := slowLoader.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}

	fastLoader, fast := newLoader(t, DropIncomplete)
	fastLoader.Workers = 4
	fastLoader.BatchSize = 64
	fastStats, err := fastLoader.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}

	if slowStats != fastStats {
		t.Fatalf("stats diverge:\nslow %+v\nfast %+v", slowStats, fastStats)
	}
	var a, b bytes.Buffer
	if err := slow.Save(&a, 0); err != nil {
		t.Fatal(err)
	}
	if err := fast.Save(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("fast-path store state differs from serial store state")
	}
	if errs := fast.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestLoadFastPathAllWorkers: Workers < 0 (GOMAXPROCS) also works.
func TestLoadFastPathAllWorkers(t *testing.T) {
	l, s := newLoader(t, DropIncomplete)
	l.Workers = -1
	l.BatchSize = 32
	stats, err := l.Load(strings.NewReader(quadInput))
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuadsFolded != 1 || stats.AssertionsRewritten != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if n, _ := s.NumTriples("m"); n != 3 {
		t.Fatalf("stored triples = %d, want 3", n)
	}
}

// TestLoadFastPathBatchContextUpgrade: a batched pass-3 insert must
// still upgrade an implied base statement inserted during folding.
func TestLoadFastPathBatchContextUpgrade(t *testing.T) {
	const rdfNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	// Quad only — base triple NOT asserted → implied (CONTEXT=I).
	input := fmt.Sprintf(`
_:r <%stype> <%sStatement> .
_:r <%ssubject> <http://s> .
_:r <%spredicate> <http://p> .
_:r <%sobject> <http://o> .
`, rdfNS, rdfNS, rdfNS, rdfNS, rdfNS)
	l, s := newLoader(t, DropIncomplete)
	l.BatchSize = 16
	if _, err := l.Load(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	ts, ok, _ := s.IsTriple("m", "http://s", "http://p", "http://o", nil)
	if !ok {
		t.Fatal("base triple missing")
	}
	info, _ := s.LinkInfo(ts.TID)
	if info.Context != core.ContextIndirect {
		t.Fatalf("CONTEXT = %s, want I (implied)", info.Context)
	}
	// Load the direct assertion through the batched path: I → D.
	if _, err := l.Load(strings.NewReader("<http://s> <http://p> <http://o> .\n")); err != nil {
		t.Fatal(err)
	}
	info, _ = s.LinkInfo(ts.TID)
	if info.Context != core.ContextDirect {
		t.Fatalf("CONTEXT = %s, want D after direct assertion", info.Context)
	}
}
