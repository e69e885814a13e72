package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdfterm"
)

func govAliases() *rdfterm.AliasSet {
	return rdfterm.Default().With(
		rdfterm.Alias{Prefix: "gov", Namespace: "http://www.us.gov#"},
		rdfterm.Alias{Prefix: "id", Namespace: "http://www.us.id#"},
	)
}

func newStoreWithModel(t *testing.T, models ...string) *Store {
	t.Helper()
	s := New()
	for _, m := range models {
		if _, err := s.CreateRDFModel(m, m+"data", "triple"); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCreateModel(t *testing.T) {
	s := New()
	id, err := s.CreateRDFModel("cia", "ciadata", "triple")
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 { // first model ID in the paper's examples (Figure 6)
		t.Errorf("first model ID = %d, want 7", id)
	}
	got, err := s.GetModelID("cia")
	if err != nil || got != id {
		t.Fatalf("GetModelID = %d, %v", got, err)
	}
	if _, err := s.CreateRDFModel("cia", "x", "y"); !errors.Is(err, ErrDuplicateModel) {
		t.Fatalf("duplicate model: %v", err)
	}
	if _, err := s.GetModelID("nsa"); !errors.Is(err, ErrNoSuchModel) {
		t.Fatalf("missing model: %v", err)
	}
	if _, err := s.CreateRDFModel("", "x", "y"); err == nil {
		t.Fatal("empty model name accepted")
	}
	if names, err := s.ModelNames(); err != nil || len(names) != 1 || names[0] != "cia" {
		t.Fatalf("ModelNames = %v, %v", names, err)
	}
	if _, err := s.ModelView("cia"); err != nil {
		t.Fatalf("model view missing: %v", err)
	}
}

func TestInsertTripleBasics(t *testing.T) {
	s := newStoreWithModel(t, "cia")
	a := govAliases()
	ts, err := s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	if err != nil {
		t.Fatal(err)
	}
	if ts.TID != 2051 { // first LINK_ID in the paper's examples
		t.Errorf("first LINK_ID = %d, want 2051", ts.TID)
	}
	if ts.SID != 1068 { // first VALUE_ID in the paper's examples
		t.Errorf("first VALUE_ID = %d, want 1068", ts.SID)
	}
	tr, err := ts.GetTriple()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Subject.Value != "http://www.us.gov#files" {
		t.Errorf("subject = %v", tr.Subject)
	}
	sub, _ := ts.GetSubject()
	prop, _ := ts.GetProperty()
	obj, _ := ts.GetObject()
	if sub != "http://www.us.gov#files" || prop != "http://www.us.gov#terrorSuspect" || obj != "http://www.us.id#JohnDoe" {
		t.Errorf("member functions = %q %q %q", sub, prop, obj)
	}
	n, _ := s.NumTriples("cia")
	if n != 1 {
		t.Errorf("NumTriples = %d", n)
	}
	if _, err := s.NewTripleS("nope", "gov:a", "gov:b", "c", a); !errors.Is(err, ErrNoSuchModel) {
		t.Fatalf("insert into missing model: %v", err)
	}
}

// TestFigure3GraphShape verifies the node-reuse/link-per-triple structure
// of Figure 3: three triples S1-P1-O1, S1-P2-O2, S2-P2-O2 yield 4 nodes
// and 3 links; P's are not nodes.
func TestFigure3GraphShape(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := rdfterm.NewAliasSet(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"})
	for _, tr := range [][3]string{
		{"x:S1", "x:P1", "x:O1"},
		{"x:S1", "x:P2", "x:O2"},
		{"x:S2", "x:P2", "x:O2"},
	} {
		if _, err := s.NewTripleS("m", tr[0], tr[1], tr[2], a); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.NumTriples("m"); got != 3 {
		t.Errorf("links = %d, want 3", got)
	}
	if got := s.NumNodes(); got != 4 { // S1 S2 O1 O2
		t.Errorf("nodes = %d, want 4", got)
	}
	if got := s.NumValues(); got != 6 { // S1 S2 O1 O2 P1 P2
		t.Errorf("values = %d, want 6", got)
	}
}

// TestFigure6SharedIDs reproduces the Figure 2/6 scenario: the repeated
// triple across CIA/DHS/FBI shares value IDs but gets distinct link IDs.
func TestFigure6SharedIDs(t *testing.T) {
	s := newStoreWithModel(t, "cia", "dhs", "fbi")
	a := govAliases()
	cia1, err := s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	if err != nil {
		t.Fatal(err)
	}
	cia2, _ := s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JaneDoe", a)
	dhs1, _ := s.NewTripleS("dhs", "id:JimDoe", "gov:terrorAction", "bombing", a)
	dhs2, _ := s.NewTripleS("dhs", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	fbi1, _ := s.NewTripleS("fbi", "id:JohnDoe", "gov:enteredCountry", "June-20-2000", a)
	fbi2, _ := s.NewTripleS("fbi", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)

	// The repeated triple shares S/P/O value IDs across all three models
	// (paper: "each member of the IC will have the same subject ID,
	// predicate ID, and object ID for the repeated triple").
	for _, ts := range []TripleS{dhs2, fbi2} {
		if ts.SID != cia1.SID || ts.PID != cia1.PID || ts.OID != cia1.OID {
			t.Errorf("value IDs not shared: %v vs %v", ts, cia1)
		}
	}
	// But every model stores its own link (new link per triple insert).
	ids := map[int64]bool{}
	for _, ts := range []TripleS{cia1, cia2, dhs1, dhs2, fbi1, fbi2} {
		if ids[ts.TID] {
			t.Errorf("duplicate LINK_ID %d across models", ts.TID)
		}
		ids[ts.TID] = true
	}
	// Model IDs differ.
	if cia1.MID == dhs2.MID || dhs2.MID == fbi2.MID {
		t.Error("model IDs not distinct")
	}
	// Figure 6's concrete IDs: subject 1068, predicate 1070, object 1069?
	// The paper lists (1068, 1070, 1069); our interning order is subject,
	// predicate, object → (1068, 1069, 1070). Only stability matters.
	if cia1.SID != 1068 {
		t.Errorf("subject VALUE_ID = %d, want 1068", cia1.SID)
	}
}

func TestDuplicateInsertBumpsCost(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	first, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	second, err := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	if err != nil {
		t.Fatal(err)
	}
	if second.TID != first.TID {
		t.Fatalf("duplicate insert created new link %d != %d", second.TID, first.TID)
	}
	info, _ := s.LinkInfo(first.TID)
	if info.Cost != 2 {
		t.Errorf("COST = %d, want 2", info.Cost)
	}
	if n, _ := s.NumTriples("m"); n != 1 {
		t.Errorf("NumTriples = %d, want 1", n)
	}
}

func TestDeleteTripleCostAndNodeCleanup(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a) // COST=2
	s.NewTripleS("m", "gov:a", "gov:p2", "gov:c", a)

	// First delete just decrements COST.
	if err := s.DeleteTriple("m", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.NumTriples("m"); n != 2 {
		t.Fatalf("NumTriples after cost decrement = %d", n)
	}
	// Second delete removes the link; node b becomes orphaned, node a
	// stays (still used by the second triple).
	if err := s.DeleteTriple("m", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.NumTriples("m"); n != 1 {
		t.Fatalf("NumTriples after delete = %d", n)
	}
	if s.NumNodes() != 2 { // a and c
		t.Errorf("nodes after delete = %d, want 2", s.NumNodes())
	}
	if err := s.DeleteTriple("m", "gov:a", "gov:p", "gov:b", a); !errors.Is(err, ErrNoSuchTriple) {
		t.Fatalf("delete of absent triple: %v", err)
	}
	// Values are never removed (shared across models).
	if s.NumValues() < 5 {
		t.Errorf("values = %d", s.NumValues())
	}
}

func TestIsTriple(t *testing.T) {
	s := newStoreWithModel(t, "m", "other")
	a := govAliases()
	want, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	got, ok, err := s.IsTriple("m", "gov:a", "gov:p", "gov:b", a)
	if err != nil || !ok || got.TID != want.TID {
		t.Fatalf("IsTriple = %v, %v, %v", got, ok, err)
	}
	// Same triple, different model: not present (model scoping).
	if _, ok, _ := s.IsTriple("other", "gov:a", "gov:p", "gov:b", a); ok {
		t.Fatal("triple leaked across models")
	}
	if _, ok, _ := s.IsTriple("m", "gov:a", "gov:p", "gov:zzz", a); ok {
		t.Fatal("absent triple found")
	}
}

func TestBlankNodeModelScoping(t *testing.T) {
	s := newStoreWithModel(t, "m1", "m2")
	a := govAliases()
	t1, _ := s.NewTripleS("m1", "_:b1", "gov:p", "gov:x", a)
	t2, _ := s.NewTripleS("m1", "_:b1", "gov:q", "gov:y", a)
	t3, _ := s.NewTripleS("m2", "_:b1", "gov:p", "gov:x", a)
	if t1.SID != t2.SID {
		t.Error("same blank label in one model must share a node")
	}
	if t1.SID == t3.SID {
		t.Error("same blank label in different models must not share a node")
	}
	sub, _ := t1.GetSubject()
	if !strings.HasPrefix(sub, "_:") {
		t.Errorf("blank subject text = %q", sub)
	}
	// IsTriple resolves the user label through rdf_blank_node$.
	if _, ok, _ := s.IsTriple("m1", "_:b1", "gov:p", "gov:x", a); !ok {
		t.Error("IsTriple failed to resolve blank label")
	}
	if _, ok, _ := s.IsTriple("m2", "_:b2", "gov:p", "gov:x", a); ok {
		t.Error("unknown blank label matched")
	}
}

func TestLongLiteralStorage(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	long := strings.Repeat("s", rdfterm.LongLiteralThreshold+500)
	ts, err := s.InsertTerms("m", rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), rdfterm.NewLiteral(long))
	if err != nil {
		t.Fatal(err)
	}
	// GET_OBJECT returns the full text (the CLOB behaviour).
	obj, err := ts.GetObject()
	if err != nil || obj != long {
		t.Fatalf("GetObject len = %d, want %d (err %v)", len(obj), len(long), err)
	}
	term, _ := s.GetValue(ts.OID)
	if term.ValueType() != rdfterm.VTPlainLong {
		t.Errorf("value type = %s, want PLL", term.ValueType())
	}
	// Long values participate in dedup: same long literal interns once.
	ts2, _ := s.InsertTerms("m", rdfterm.NewURI("http://s2"), rdfterm.NewURI("http://p"), rdfterm.NewLiteral(long))
	if ts2.OID != ts.OID {
		t.Error("long literal interned twice")
	}
	_ = a
}

func TestCanonicalObjectMatching(t *testing.T) {
	s := newStoreWithModel(t, "m")
	// Store "1"^^xsd:int; then "01"^^xsd:int should be the SAME triple
	// (canonical object matching via CANON_END_NODE_ID).
	one := rdfterm.NewTypedLiteral("1", rdfterm.XSDInt)
	paddedOne := rdfterm.NewTypedLiteral("01", rdfterm.XSDInt)
	sub, prop := rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p")
	t1, err := s.InsertTerms("m", sub, prop, one)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.InsertTerms("m", sub, prop, paddedOne)
	if err != nil {
		t.Fatal(err)
	}
	if t2.TID != t1.TID {
		t.Errorf("canonically equal objects stored as different triples")
	}
	// IsTripleTerms matches either lexical form.
	if _, ok, _ := s.IsTripleTerms("m", sub, prop, paddedOne); !ok {
		t.Error("IsTriple failed on canonically equal form")
	}
	// A canonically different value is a different triple.
	t3, _ := s.InsertTerms("m", sub, prop, rdfterm.NewTypedLiteral("2", rdfterm.XSDInt))
	if t3.TID == t1.TID {
		t.Error("different values unified")
	}
	info, _ := s.LinkInfo(t1.TID)
	if info.CanonEndID != info.EndNodeID {
		// "1" is already canonical, so CANON == END here.
		t.Errorf("canon id %d != end id %d for canonical input", info.CanonEndID, info.EndNodeID)
	}
}

func TestLinkTypes(t *testing.T) {
	s := newStoreWithModel(t, "m")
	cases := []struct {
		prop string
		want string
	}{
		{rdfterm.RDFType, "RDF_TYPE"},
		{rdfterm.MembershipProperty(3), "RDF_MEMBER"},
		{rdfterm.RDFSubject, "RDF_*"},
		{"http://example.org/p", "STANDARD"},
	}
	for i, c := range cases {
		ts, err := s.InsertTerms("m",
			rdfterm.NewURI(fmt.Sprintf("http://s%d", i)),
			rdfterm.NewURI(c.prop),
			rdfterm.NewURI("http://o"))
		if err != nil {
			t.Fatal(err)
		}
		info, _ := s.LinkInfo(ts.TID)
		if info.LinkType != c.want {
			t.Errorf("LINK_TYPE(%s) = %s, want %s", c.prop, info.LinkType, c.want)
		}
		if info.Context != ContextDirect {
			t.Errorf("CONTEXT = %s, want D", info.Context)
		}
	}
}

func TestModelViewShowsOnlyModelRows(t *testing.T) {
	s := newStoreWithModel(t, "m1", "m2")
	a := govAliases()
	s.NewTripleS("m1", "gov:a", "gov:p", "gov:b", a)
	s.NewTripleS("m1", "gov:a", "gov:p", "gov:c", a)
	s.NewTripleS("m2", "gov:a", "gov:p", "gov:d", a)
	v, err := s.ModelView("m1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("m1 view rows = %d, want 2", v.Len())
	}
}

func TestDropRDFModel(t *testing.T) {
	s := newStoreWithModel(t, "m1", "m2")
	a := govAliases()
	s.NewTripleS("m1", "gov:a", "gov:p", "gov:b", a)
	s.NewTripleS("m1", "_:x", "gov:p", "gov:c", a)
	shared, _ := s.NewTripleS("m2", "gov:a", "gov:p", "gov:b", a)
	if err := s.DropRDFModel("m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetModelID("m1"); !errors.Is(err, ErrNoSuchModel) {
		t.Fatalf("model survived drop: %v", err)
	}
	// m2's copy is intact, including shared nodes.
	tr, err := shared.GetTriple()
	if err != nil || tr.Subject.Value != "http://www.us.gov#a" {
		t.Fatalf("m2 triple damaged: %v %v", tr, err)
	}
	if _, ok, _ := s.IsTriple("m2", "gov:a", "gov:p", "gov:b", a); !ok {
		t.Fatal("m2 triple lost")
	}
	// Node c was only in m1; it must be gone. Nodes a,b survive via m2.
	if s.NumNodes() != 2 {
		t.Errorf("nodes after drop = %d, want 2", s.NumNodes())
	}
	if err := s.DropRDFModel("m1"); !errors.Is(err, ErrNoSuchModel) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestGetTripleByIDAndErrors(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	ts, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	tr, err := s.GetTripleByID(ts.TID)
	if err != nil || tr.Property.Value != "http://www.us.gov#p" {
		t.Fatalf("GetTripleByID = %v, %v", tr, err)
	}
	if _, err := s.GetTripleByID(999999); !errors.Is(err, ErrNoSuchTriple) {
		t.Fatalf("missing link: %v", err)
	}
	if _, err := s.GetValue(999999); !errors.Is(err, ErrNoSuchValue) {
		t.Fatalf("missing value: %v", err)
	}
	var zero TripleS
	if _, err := zero.GetTriple(); err == nil {
		t.Fatal("zero TripleS GetTriple succeeded")
	}
	if _, err := zero.GetSubject(); err == nil {
		t.Fatal("zero TripleS GetSubject succeeded")
	}
}

func TestFind(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	s.NewTripleS("m", "gov:s1", "gov:p1", "gov:o1", a)
	s.NewTripleS("m", "gov:s1", "gov:p2", "gov:o2", a)
	s.NewTripleS("m", "gov:s2", "gov:p2", "gov:o2", a)
	s.NewTripleS("m", "gov:s2", "gov:p2", `"lit"`, a)

	sub := rdfterm.NewURI("http://www.us.gov#s1")
	prop := rdfterm.NewURI("http://www.us.gov#p2")
	obj := rdfterm.NewURI("http://www.us.gov#o2")
	lit := rdfterm.NewLiteral("lit")

	cases := []struct {
		pat  Pattern
		want int
	}{
		{Pattern{}, 4},
		{Pattern{Subject: &sub}, 2},
		{Pattern{Predicate: &prop}, 3},
		{Pattern{Object: &obj}, 2},
		{Pattern{Object: &lit}, 1},
		{Pattern{Subject: &sub, Predicate: &prop}, 1},
		{Pattern{Subject: &sub, Predicate: &prop, Object: &obj}, 1},
		{Pattern{Predicate: &prop, Object: &obj}, 2},
		{Pattern{Subject: P(rdfterm.NewURI("http://nope"))}, 0},
	}
	for i, c := range cases {
		got, err := s.Find(context.Background(), "m", c.pat)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Errorf("case %d: Find returned %d, want %d", i, len(got), c.want)
		}
	}
	if _, err := s.Find(context.Background(), "nope", Pattern{}); !errors.Is(err, ErrNoSuchModel) {
		t.Fatalf("Find on missing model: %v", err)
	}
}

func TestFindModels(t *testing.T) {
	s := newStoreWithModel(t, "cia", "dhs")
	a := govAliases()
	s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	s.NewTripleS("dhs", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	prop := rdfterm.NewURI("http://www.us.gov#terrorSuspect")
	all, err := s.FindModelsCtx(context.Background(), []string{"cia", "dhs"}, Pattern{Predicate: &prop})
	if err != nil || len(all) != 2 {
		t.Fatalf("FindModelsCtx = %d, %v", len(all), err)
	}
}

func TestPredicateMustBeURI(t *testing.T) {
	s := newStoreWithModel(t, "m")
	_, err := s.InsertTerms("m", rdfterm.NewURI("http://s"), rdfterm.NewLiteral("p"), rdfterm.NewURI("http://o"))
	if err == nil {
		t.Fatal("literal predicate accepted")
	}
}

func TestReconstructTripleS(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	ts, _ := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	re := s.ReconstructTripleS(ts.TID, ts.MID, ts.SID, ts.PID, ts.OID)
	sub, err := re.GetSubject()
	if err != nil || sub != "http://www.us.gov#a" {
		t.Fatalf("reconstructed GetSubject = %q, %v", sub, err)
	}
	if re.IsZero() {
		t.Fatal("reconstructed TripleS is zero")
	}
}

func TestValueRow(t *testing.T) {
	s := newStoreWithModel(t, "m")
	ts, err := s.InsertTerms("m",
		rdfterm.NewURI("http://s"),
		rdfterm.NewURI("http://p"),
		rdfterm.NewLangLiteral("bonjour", "fr"))
	if err != nil {
		t.Fatal(err)
	}
	term, err := s.GetValue(ts.OID)
	if err != nil {
		t.Fatal(err)
	}
	if term.Language != "fr" || term.Value != "bonjour" {
		t.Errorf("lang literal round trip = %v", term)
	}
	typed, _ := s.InsertTerms("m",
		rdfterm.NewURI("http://s"),
		rdfterm.NewURI("http://p2"),
		rdfterm.NewTypedLiteral("2000-06-20", rdfterm.XSDDate))
	term, _ = s.GetValue(typed.OID)
	if term.Datatype != rdfterm.XSDDate {
		t.Errorf("typed literal round trip = %v", term)
	}
}

func TestTripleString(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	ts, _ := s.NewTripleS("m", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	tr, _ := ts.GetTriple()
	if got := tr.String(); !strings.Contains(got, "terrorSuspect") {
		t.Errorf("Triple.String = %q", got)
	}
	if got := ts.String(); !strings.HasPrefix(got, "SDO_RDF_TRIPLE_S (") {
		t.Errorf("TripleS.String = %q", got)
	}
}

// The store's COST column doubles as the NDM link cost; check totals are
// visible through reldb directly (Experiment I's flat query path).
func TestFlatTableAccess(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	links := s.Database().MustTable(TableLink)
	if links.Len() != 1 {
		t.Fatalf("rdf_link$ rows = %d", links.Len())
	}
	values := s.Database().MustTable(TableValue)
	if values.Len() != 3 {
		t.Fatalf("rdf_value$ rows = %d", values.Len())
	}
}
