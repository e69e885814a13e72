package reify

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ntriples"

	"repro/internal/core"
	"repro/internal/rdfterm"
)

func newLoader(t *testing.T, policy IncompletePolicy) (*Loader, *core.Store) {
	t.Helper()
	s := core.New()
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	return &Loader{Store: s, Model: "m", Policy: policy}, s
}

const quadInput = `
<http://gov/files> <http://gov/terrorSuspect> <http://id/JohnDoe> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#subject> <http://gov/files> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#predicate> <http://gov/terrorSuspect> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#object> <http://id/JohnDoe> .
<http://gov/MI5> <http://gov/source> _:r1 .
`

func TestLoadFoldsCompleteQuad(t *testing.T) {
	l, s := newLoader(t, DropIncomplete)
	stats, err := l.Load(strings.NewReader(quadInput))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Read != 6 {
		t.Fatalf("Read = %d", stats.Read)
	}
	if stats.QuadsFolded != 1 {
		t.Fatalf("QuadsFolded = %d", stats.QuadsFolded)
	}
	if stats.AssertionsRewritten != 1 {
		t.Fatalf("AssertionsRewritten = %d", stats.AssertionsRewritten)
	}
	// Store contents: base triple + reification row + assertion = 3 rows
	// (vs 6 input lines — the quad collapsed to one row).
	n, _ := s.NumTriples("m")
	if n != 3 {
		t.Fatalf("stored triples = %d, want 3", n)
	}
	// The base triple is reified and CONTEXT=D (it was asserted directly).
	ts, ok, _ := s.IsTriple("m", "http://gov/files", "http://gov/terrorSuspect", "http://id/JohnDoe", nil)
	if !ok {
		t.Fatal("base triple missing")
	}
	if reified, _ := s.IsReifiedByID("m", ts.TID); !reified {
		t.Fatal("base triple not reified")
	}
	info, _ := s.LinkInfo(ts.TID)
	if info.Context != core.ContextDirect {
		t.Fatalf("CONTEXT = %s, want D", info.Context)
	}
	// The MI5 assertion points at the DBUri.
	asserts, _ := s.Assertions("m", ts.TID)
	if len(asserts) != 1 || asserts[0].Subject.Value != "http://gov/MI5" {
		t.Fatalf("assertions = %v", asserts)
	}
}

func TestLoadImpliedBase(t *testing.T) {
	// Quad without the base triple asserted directly: base gets CONTEXT=I.
	input := strings.ReplaceAll(quadInput, "<http://gov/files> <http://gov/terrorSuspect> <http://id/JohnDoe> .\n", "")
	l, s := newLoader(t, DropIncomplete)
	stats, err := l.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuadsFolded != 1 {
		t.Fatalf("QuadsFolded = %d", stats.QuadsFolded)
	}
	ts, ok, _ := s.IsTriple("m", "http://gov/files", "http://gov/terrorSuspect", "http://id/JohnDoe", nil)
	if !ok {
		t.Fatal("implied base missing")
	}
	info, _ := s.LinkInfo(ts.TID)
	if info.Context != core.ContextIndirect {
		t.Fatalf("CONTEXT = %s, want I", info.Context)
	}
}

func TestLoadIncompleteDrop(t *testing.T) {
	input := `
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#subject> <http://gov/files> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#predicate> <http://gov/p> .
<http://a> <http://p> <http://b> .
`
	l, s := newLoader(t, DropIncomplete)
	stats, err := l.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incomplete != 1 {
		t.Fatalf("Incomplete = %d", stats.Incomplete)
	}
	n, _ := s.NumTriples("m")
	if n != 1 { // only <a p b>
		t.Fatalf("stored = %d, want 1", n)
	}
}

func TestLoadIncompleteInsert(t *testing.T) {
	input := `
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#subject> <http://gov/files> .
<http://a> <http://p> <http://b> .
`
	l, s := newLoader(t, InsertIncomplete)
	stats, err := l.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incomplete != 1 {
		t.Fatalf("Incomplete = %d", stats.Incomplete)
	}
	n, _ := s.NumTriples("m")
	if n != 2 { // partial quad row stored verbatim
		t.Fatalf("stored = %d, want 2", n)
	}
}

func TestLoadIncompleteReport(t *testing.T) {
	input := `
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#subject> <http://gov/files> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement> .
`
	var report strings.Builder
	l, s := newLoader(t, ReportIncomplete)
	l.Report = &report
	stats, err := l.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	_ = stats
	if n, _ := s.NumTriples("m"); n != 0 {
		t.Fatalf("stored = %d, want 0", n)
	}
	if !strings.Contains(report.String(), "rdf-syntax-ns#subject") {
		t.Fatalf("report = %q", report.String())
	}
}

func TestLoadKeepOriginalURIs(t *testing.T) {
	l, s := newLoader(t, DropIncomplete)
	l.KeepOriginalURIs = true
	if _, err := l.Load(strings.NewReader(quadInput)); err != nil {
		t.Fatal(err)
	}
	orig := rdfterm.NewURI(OrigResourceProperty)
	found, err := s.Find(context.Background(), "m", core.Pattern{Predicate: &orig})
	if err != nil || len(found) != 1 {
		t.Fatalf("origResource rows = %d, %v", len(found), err)
	}
	sub, _ := found[0].GetSubject()
	if _, ok := core.ParseDBUri(sub); !ok {
		t.Fatalf("origResource subject = %q", sub)
	}
}

func TestLoadURIQuadResource(t *testing.T) {
	// Quad resource as URI (not blank node).
	input := `
<http://reif/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement> .
<http://reif/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#subject> <http://s> .
<http://reif/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#predicate> <http://p> .
<http://reif/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#object> "lit" .
`
	l, s := newLoader(t, DropIncomplete)
	stats, err := l.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuadsFolded != 1 {
		t.Fatalf("QuadsFolded = %d", stats.QuadsFolded)
	}
	if got, _ := s.IsReified("m", "http://s", "http://p", `"lit"`, nil); !got {
		t.Fatal("literal-object quad not reified")
	}
}

func TestLoadPlainTriplesOnly(t *testing.T) {
	input := `
<http://a> <http://p> <http://b> .
<http://a> <http://p> "x" .
`
	l, s := newLoader(t, DropIncomplete)
	stats, err := l.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuadsFolded != 0 || stats.Inserted != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if n, _ := s.NumTriples("m"); n != 2 {
		t.Fatalf("stored = %d", n)
	}
}

func TestLoaderValidation(t *testing.T) {
	l := &Loader{}
	if _, err := l.Load(strings.NewReader("")); err == nil {
		t.Fatal("empty loader accepted")
	}
	l2, _ := newLoader(t, DropIncomplete)
	if _, err := l2.Load(strings.NewReader("garbage line\n")); err == nil {
		t.Fatal("parse error not propagated")
	}
}

// rdf:type with non-Statement object is NOT a quad member.
func TestTypeTripleNotQuad(t *testing.T) {
	input := `
<http://x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://some/Class> .
`
	l, s := newLoader(t, DropIncomplete)
	stats, err := l.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuadsFolded != 0 || stats.Incomplete != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if n, _ := s.NumTriples("m"); n != 1 {
		t.Fatalf("stored = %d", n)
	}
}

func TestLoadTriplesParsedBatch(t *testing.T) {
	l, s := newLoader(t, DropIncomplete)
	triples, err := ntriples.NewReader(strings.NewReader(quadInput)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := l.LoadTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Read != 6 || stats.QuadsFolded != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if n, _ := s.NumTriples("m"); n != 3 {
		t.Fatalf("stored = %d", n)
	}
}
