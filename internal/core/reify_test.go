package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rdfterm"
)

func TestDBUriRoundTrip(t *testing.T) {
	uri := DBUri(2051)
	if uri != "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=2051]" {
		t.Fatalf("DBUri = %q", uri)
	}
	id, ok := ParseDBUri(uri)
	if !ok || id != 2051 {
		t.Fatalf("ParseDBUri = %d, %v", id, ok)
	}
	for _, bad := range []string{
		"", "http://x", "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=]",
		"/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=abc]",
		"/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=12", // no suffix
		"/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=-5]",
	} {
		if _, ok := ParseDBUri(bad); ok {
			t.Errorf("ParseDBUri(%q) accepted", bad)
		}
	}
}

// TestReifyFigure7 reproduces Figure 7: reifying triple 2051 stores the
// single triple <DBUri, rdf:type, rdf:Statement>, and the assertion
// <gov:MI5, gov:source, R> hangs off the DBUri.
func TestReifyFigure7(t *testing.T) {
	s := newStoreWithModel(t, "cia")
	a := govAliases()
	base, err := s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := s.NumTriples("cia")

	reif, err := s.Reify("cia", base.TID)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := s.NumTriples("cia")
	if after != before+1 {
		t.Fatalf("reification added %d triples, want exactly 1", after-before)
	}
	tr, _ := reif.GetTriple()
	if tr.Subject.Value != DBUri(base.TID) {
		t.Errorf("reification subject = %v", tr.Subject)
	}
	if tr.Property.Value != rdfterm.RDFType || tr.Object.Value != rdfterm.RDFStatement {
		t.Errorf("reification triple = %v", tr)
	}
	info, _ := s.LinkInfo(reif.TID)
	if !info.ReifLink {
		t.Error("REIF_LINK != Y on reification row")
	}

	// Assertion about the reified triple.
	if _, err := s.AssertAboutTriple("cia", "gov:MI5", "gov:source", base.TID, a); err != nil {
		t.Fatal(err)
	}
	asserts, err := s.Assertions("cia", base.TID)
	if err != nil || len(asserts) != 1 {
		t.Fatalf("Assertions = %v, %v", asserts, err)
	}
	if asserts[0].Subject.Value != "http://www.us.gov#MI5" {
		t.Errorf("assertion subject = %v", asserts[0].Subject)
	}
	// The assertion row also carries REIF_LINK=Y (its object is a DBUri).
	assertTS, ok, _ := s.IsTriple("cia", "gov:MI5", "gov:source", DBUri(base.TID), a)
	if !ok {
		t.Fatal("assertion triple not found via IsTriple")
	}
	info, _ = s.LinkInfo(assertTS.TID)
	if !info.ReifLink {
		t.Error("REIF_LINK != Y on assertion row")
	}
}

func TestIsReified(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	base, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	s.NewTripleS("m", "gov:c", "gov:p", "gov:d", a)

	got, err := s.IsReified("m", "gov:a", "gov:p", "gov:b", a)
	if err != nil || got {
		t.Fatalf("IsReified before reify = %v, %v", got, err)
	}
	if _, err := s.Reify("m", base.TID); err != nil {
		t.Fatal(err)
	}
	got, err = s.IsReified("m", "gov:a", "gov:p", "gov:b", a)
	if err != nil || !got {
		t.Fatalf("IsReified after reify = %v, %v", got, err)
	}
	// Non-reified triple stays false.
	got, _ = s.IsReified("m", "gov:c", "gov:p", "gov:d", a)
	if got {
		t.Fatal("non-reified triple reported reified")
	}
	// Absent triple is false, not an error.
	got, err = s.IsReified("m", "gov:x", "gov:p", "gov:y", a)
	if err != nil || got {
		t.Fatalf("IsReified of absent triple = %v, %v", got, err)
	}
	if ok, _ := s.IsReifiedByID("m", base.TID); !ok {
		t.Fatal("IsReifiedByID false")
	}
}

func TestReifyIdempotent(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	base, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	r1, err := s.Reify("m", base.TID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Reify("m", base.TID)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TID != r2.TID {
		t.Fatal("double reify created two rows")
	}
	if n, _ := s.ReifiedCount("m"); n != 1 {
		t.Fatalf("ReifiedCount = %d", n)
	}
}

func TestReifyMissingTriple(t *testing.T) {
	s := newStoreWithModel(t, "m")
	if _, err := s.Reify("m", 424242); !errors.Is(err, ErrNoSuchTriple) {
		t.Fatalf("Reify missing = %v", err)
	}
	if _, err := s.AssertAboutTriple("m", "gov:X", "gov:says", 424242, govAliases()); !errors.Is(err, ErrNoSuchTriple) {
		t.Fatalf("AssertAboutTriple missing = %v", err)
	}
	if _, err := s.Reify("nope", 1); !errors.Is(err, ErrNoSuchModel) {
		t.Fatalf("Reify missing model = %v", err)
	}
}

// TestAssertDirectTriple covers §5.1: asserting about a direct triple
// leaves its CONTEXT = D.
func TestAssertDirectTriple(t *testing.T) {
	s := newStoreWithModel(t, "cia")
	a := govAliases()
	base, _ := s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	if _, err := s.AssertAboutTriple("cia", "gov:MI5", "gov:source", base.TID, a); err != nil {
		t.Fatal(err)
	}
	info, _ := s.LinkInfo(base.TID)
	if info.Context != ContextDirect {
		t.Errorf("direct triple CONTEXT = %s", info.Context)
	}
}

// TestAssertImplied covers §5.2: the Interpol example — the base triple is
// created as an indirect statement (CONTEXT=I) and upgrades to D when
// later inserted as fact.
func TestAssertImplied(t *testing.T) {
	s := newStoreWithModel(t, "cia")
	a := govAliases()
	if _, err := s.AssertImplied("cia", "gov:Interpol", "gov:source",
		"gov:files", "gov:terrorSuspect", "id:JohnDoeJr", a); err != nil {
		t.Fatal(err)
	}
	base, ok, err := s.IsTriple("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoeJr", a)
	if err != nil || !ok {
		t.Fatalf("implied base triple missing: %v", err)
	}
	info, _ := s.LinkInfo(base.TID)
	if info.Context != ContextIndirect {
		t.Fatalf("implied base CONTEXT = %s, want I", info.Context)
	}
	// It is reified and asserted about.
	if ok, _ := s.IsReifiedByID("cia", base.TID); !ok {
		t.Fatal("implied base not reified")
	}
	asserts, _ := s.Assertions("cia", base.TID)
	if len(asserts) != 1 || asserts[0].Subject.Value != "http://www.us.gov#Interpol" {
		t.Fatalf("assertions = %v", asserts)
	}
	// Later direct insert upgrades I → D (§5.2 note).
	if _, err := s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoeJr", a); err != nil {
		t.Fatal(err)
	}
	info, _ = s.LinkInfo(base.TID)
	if info.Context != ContextDirect {
		t.Fatalf("CONTEXT after direct insert = %s, want D", info.Context)
	}
}

// TestAssertImpliedExistingFact: when the base triple already exists as a
// fact, AssertImplied must not downgrade its context.
func TestAssertImpliedExistingFact(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	base, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	if _, err := s.AssertImplied("m", "gov:N", "gov:said", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}
	info, _ := s.LinkInfo(base.TID)
	if info.Context != ContextDirect {
		t.Fatalf("CONTEXT downgraded to %s", info.Context)
	}
}

// TestReificationStorageRatio checks §7.3: the streamlined scheme stores
// one new triple per reification — 25% of the four-triple quad.
func TestReificationStorageRatio(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	const n = 40
	var tids []int64
	for i := 0; i < n; i++ {
		ts, err := s.NewTripleS("m", "gov:s"+itoa(i), "gov:p", "gov:o"+itoa(i), a)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, ts.TID)
	}
	before, _ := s.NumTriples("m")
	for _, tid := range tids {
		if _, err := s.Reify("m", tid); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := s.NumTriples("m")
	oracleRows := after - before
	quadRows := 4 * n
	if oracleRows != n {
		t.Fatalf("streamlined reification stored %d rows for %d reifications", oracleRows, n)
	}
	if ratio := float64(oracleRows) / float64(quadRows); ratio != 0.25 {
		t.Fatalf("storage ratio = %v, want 0.25", ratio)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestResolveDBUri(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	base, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	tr, err := s.ResolveDBUri(DBUri(base.TID))
	if err != nil || tr.Subject.Value != "http://www.us.gov#a" {
		t.Fatalf("ResolveDBUri = %v, %v", tr, err)
	}
	if _, err := s.ResolveDBUri("http://not-a-dburi"); err == nil {
		t.Fatal("bad DBUri resolved")
	}
	if _, err := s.ResolveDBUri(DBUri(999999)); !errors.Is(err, ErrNoSuchTriple) {
		t.Fatalf("dangling DBUri = %v", err)
	}
}

func TestReifiedStatementSurvivesInGetters(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	base, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	reif, _ := s.Reify("m", base.TID)
	sub, err := reif.GetSubject()
	if err != nil || !strings.HasPrefix(sub, "/ORADB/") {
		t.Fatalf("reification GetSubject = %q, %v", sub, err)
	}
	// The DBUri subject resolves back to the base triple.
	got, err := s.ResolveDBUri(sub)
	if err != nil || got.Object.Value != "http://www.us.gov#b" {
		t.Fatalf("resolve = %v, %v", got, err)
	}
}

func TestInsertImpliedDirectly(t *testing.T) {
	s := newStoreWithModel(t, "m")
	ts, err := s.InsertImplied("m",
		rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), rdfterm.NewURI("http://o"))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := s.LinkInfo(ts.TID)
	if info.Context != ContextIndirect {
		t.Fatalf("CONTEXT = %s", info.Context)
	}
	// Existing fact keeps its context.
	fact, _ := s.InsertTerms("m", rdfterm.NewURI("http://s2"), rdfterm.NewURI("http://p"), rdfterm.NewURI("http://o"))
	again, err := s.InsertImplied("m", rdfterm.NewURI("http://s2"), rdfterm.NewURI("http://p"), rdfterm.NewURI("http://o"))
	if err != nil || again.TID != fact.TID {
		t.Fatalf("implied reinsert = %v, %v", again, err)
	}
	info, _ = s.LinkInfo(fact.TID)
	if info.Context != ContextDirect {
		t.Fatalf("fact downgraded to %s", info.Context)
	}
}
