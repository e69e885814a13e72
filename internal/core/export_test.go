package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ntriples"
)

func TestExportModelRoundTrip(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	s.NewTripleS("m", "gov:a", "gov:q", `"lit with \"quotes\""`, a)
	s.NewTripleS("m", "_:x", "gov:p", `"25"^^xsd:int`, a)

	var buf strings.Builder
	if err := s.ExportModel(context.Background(), "m", &buf, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := ntriples.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("exported %d triples, want 3", len(back))
	}
	// Re-import into a fresh store and compare counts + one lookup.
	s2 := newStoreWithModel(t, "m")
	for _, tr := range back {
		if _, err := s2.InsertTerms("m", tr.Subject, tr.Predicate, tr.Object); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s2.NumTriples("m"); n != 3 {
		t.Fatalf("reimported %d triples", n)
	}
	if _, ok, _ := s2.IsTriple("m", "gov:a", "gov:p", "gov:b", a); !ok {
		t.Fatal("triple lost in round trip")
	}
}

func TestExportModelExpandReification(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	base, _ := s.NewTripleS("m", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	if _, err := s.AssertAboutTriple("m", "gov:MI5", "gov:source", base.TID, a); err != nil {
		t.Fatal(err)
	}
	// Store now has 3 rows: base, reification, assertion.
	var buf strings.Builder
	if err := s.ExportModel(context.Background(), "m", &buf, ExportOptions{ExpandReification: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "/ORADB/") {
		t.Fatalf("expanded export leaked DBUris:\n%s", out)
	}
	back, err := ntriples.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// base + 4 quad rows + rewritten assertion = 6.
	if len(back) != 6 {
		t.Fatalf("expanded export has %d triples, want 6:\n%s", len(back), out)
	}
	// Reload through the folding loader: should collapse back to 3 rows.
	s2 := newStoreWithModel(t, "m")
	// (use the quad members directly; reify.Loader lives above core, so
	// emulate its effect via InsertTerms + Reify on the found base)
	for _, tr := range back {
		// skip quad rows, reinsert others
		switch tr.Predicate.Value {
		case "http://www.w3.org/1999/02/22-rdf-syntax-ns#subject",
			"http://www.w3.org/1999/02/22-rdf-syntax-ns#predicate",
			"http://www.w3.org/1999/02/22-rdf-syntax-ns#object":
			continue
		}
		if tr.Object.Value == "http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement" {
			continue
		}
		if _, err := s2.InsertTerms("m", tr.Subject, tr.Predicate, tr.Object); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s2.NumTriples("m"); n != 2 { // base + assertion (reif dropped here)
		t.Fatalf("reloaded rows = %d", n)
	}
}

func TestExportMissingModel(t *testing.T) {
	s := New()
	if err := s.ExportModel(context.Background(), "ghost", &strings.Builder{}, ExportOptions{}); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestModelStatistics(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	base, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	s.NewTripleS("m", "gov:a", "rdf:type", "gov:Thing", a)
	s.Reify("m", base.TID)
	s.AssertImplied("m", "gov:N", "gov:said", "gov:x", "gov:y2", "gov:z", a)

	stats, err := s.ModelStatistics("m")
	if err != nil {
		t.Fatal(err)
	}
	// Rows: base, rdf:type, reify(base), implied base, reify(implied),
	// assertion = 6.
	if stats.Triples != 6 {
		t.Fatalf("Triples = %d, want 6", stats.Triples)
	}
	if stats.Reified != 2 {
		t.Fatalf("Reified = %d, want 2", stats.Reified)
	}
	if stats.Indirect != 1 {
		t.Fatalf("Indirect = %d, want 1", stats.Indirect)
	}
	if stats.Direct != 5 {
		t.Fatalf("Direct = %d, want 5", stats.Direct)
	}
	if stats.ByLinkType["RDF_TYPE"] != 3 { // user rdf:type + 2 reification rows
		t.Fatalf("RDF_TYPE count = %d", stats.ByLinkType["RDF_TYPE"])
	}
	if stats.ByLinkType["STANDARD"] != 3 {
		t.Fatalf("STANDARD count = %d (%v)", stats.ByLinkType["STANDARD"], stats.ByLinkType)
	}
	if _, err := s.ModelStatistics("ghost"); err == nil {
		t.Fatal("missing model accepted")
	}
}
