package experiments

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdfterm"
)

func st(s, p, o string) Statement {
	var obj rdfterm.Term
	if strings.HasPrefix(o, "lit:") {
		obj = rdfterm.NewLiteral(o[4:])
	} else {
		obj = rdfterm.NewURI(o)
	}
	return Statement{
		Subject:   rdfterm.NewURI(s),
		Predicate: rdfterm.NewURI(p),
		Object:    obj,
	}
}

func TestEncodeDecodeTerm(t *testing.T) {
	terms := []rdfterm.Term{
		rdfterm.NewURI("http://a"),
		rdfterm.NewBlank("b1"),
		rdfterm.NewLiteral("plain"),
		rdfterm.NewLiteral("with :: colons"),
		rdfterm.NewLangLiteral("hi", "en"),
		rdfterm.NewTypedLiteral("5", rdfterm.XSDInt),
	}
	for _, in := range terms {
		out, err := decodeTerm(encodeTerm(in))
		if err != nil || !out.Equal(in) {
			t.Errorf("round trip %v -> %v (%v)", in, out, err)
		}
	}
	for _, bad := range []string{"", "Xv::x", "Lv::only-two::parts"} {
		if _, err := decodeTerm(bad); err == nil {
			t.Errorf("decodeTerm(%q) accepted", bad)
		}
	}
}

// Property: encode is injective over distinct terms.
func TestQuickEncodeInjective(t *testing.T) {
	f := func(a, b string, langA bool) bool {
		ta := rdfterm.NewLiteral(a)
		tb := rdfterm.NewLiteral(b)
		if langA {
			ta = rdfterm.NewLangLiteral(a, "en")
		}
		if ta.Equal(tb) {
			return encodeTerm(ta) == encodeTerm(tb)
		}
		return encodeTerm(ta) != encodeTerm(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJena2AddFind(t *testing.T) {
	j := NewJena2Store()
	if err := j.CreateModel("m"); err != nil {
		t.Fatal(err)
	}
	if err := j.CreateModel("m"); err == nil {
		t.Fatal("duplicate model accepted")
	}
	stmts := []Statement{
		st("http://s1", "http://p1", "http://o1"),
		st("http://s1", "http://p2", "lit:value"),
		st("http://s2", "http://p2", "http://o1"),
	}
	for _, s := range stmts {
		if err := j.Add("m", s); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := j.Len("m"); n != 3 {
		t.Fatalf("Len = %d", n)
	}
	sub := rdfterm.NewURI("http://s1")
	got, err := j.Find("m", &sub, nil, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("Find(s1) = %d, %v", len(got), err)
	}
	pred := rdfterm.NewURI("http://p2")
	got, _ = j.Find("m", nil, &pred, nil)
	if len(got) != 2 {
		t.Fatalf("Find(p2) = %d", len(got))
	}
	obj := rdfterm.NewLiteral("value")
	got, _ = j.Find("m", nil, nil, &obj)
	if len(got) != 1 {
		t.Fatalf("Find(obj) = %d", len(got))
	}
	got, _ = j.Find("m", nil, nil, nil)
	if len(got) != 3 {
		t.Fatalf("Find(all) = %d", len(got))
	}
	ok, _ := j.Contains("m", stmts[0])
	if !ok {
		t.Fatal("Contains false for stored statement")
	}
	ok, _ = j.Contains("m", st("http://s9", "http://p1", "http://o1"))
	if ok {
		t.Fatal("Contains true for absent statement")
	}
	if _, err := j.Find("ghost", nil, nil, nil); err == nil {
		t.Fatal("missing model accepted")
	}
	if err := j.Add("m", Statement{Subject: sub, Predicate: rdfterm.NewLiteral("x"), Object: sub}); err == nil {
		t.Fatal("literal predicate accepted")
	}
}

func TestJena2Reification(t *testing.T) {
	j := NewJena2Store()
	j.CreateModel("m")
	base := st("http://s", "http://p", "http://o")
	j.Add("m", base)
	ok, _ := j.IsReified("m", base)
	if ok {
		t.Fatal("IsReified before Reify")
	}
	uri1, err := j.Reify("m", base)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ = j.IsReified("m", base)
	if !ok {
		t.Fatal("IsReified false after Reify")
	}
	// Idempotent: same statement yields the same URI, one row.
	uri2, _ := j.Reify("m", base)
	if uri1 != uri2 {
		t.Fatalf("re-reify changed URI: %q vs %q", uri1, uri2)
	}
	if n, _ := j.ReifiedCount("m"); n != 1 {
		t.Fatalf("ReifiedCount = %d", n)
	}
	// Property-class row is one row per reification (Jena2's optimized
	// scheme), not four.
	other := st("http://s2", "http://p", "http://o")
	j.Add("m", other)
	j.Reify("m", other)
	if n, _ := j.ReifiedCount("m"); n != 2 {
		t.Fatalf("ReifiedCount = %d", n)
	}
}

func TestJena2PropertyTable(t *testing.T) {
	j := NewJena2Store()
	j.CreateModel("m")
	dcTitle := "http://purl.org/dc/elements/1.1/title"
	if err := j.CreatePropertyTable("m", dcTitle); err != nil {
		t.Fatal(err)
	}
	if err := j.CreatePropertyTable("m", dcTitle); err == nil {
		t.Fatal("duplicate property table accepted")
	}
	j.Add("m", st("http://doc1", dcTitle, "lit:Title One"))
	j.Add("m", st("http://doc1", "http://other", "lit:x"))
	j.Add("m", st("http://doc2", dcTitle, "lit:Title Two"))

	// Finds see property-table rows.
	sub := rdfterm.NewURI("http://doc1")
	got, err := j.Find("m", &sub, nil, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("Find(doc1) = %d, %v", len(got), err)
	}
	pred := rdfterm.NewURI(dcTitle)
	got, _ = j.Find("m", nil, &pred, nil)
	if len(got) != 2 {
		t.Fatalf("Find(dc:title) = %d", len(got))
	}
	for _, s := range got {
		if s.Predicate.Value != dcTitle {
			t.Errorf("wrong predicate %v", s.Predicate)
		}
	}
	obj := rdfterm.NewLiteral("Title Two")
	got, _ = j.Find("m", nil, nil, &obj)
	if len(got) != 1 || got[0].Subject.Value != "http://doc2" {
		t.Fatalf("Find(obj) = %v", got)
	}
	if n, _ := j.Len("m"); n != 3 {
		t.Fatalf("Len with property table = %d", n)
	}
}

func TestJena1AddFind(t *testing.T) {
	j := NewJena1Store()
	stmts := []Statement{
		st("http://s1", "http://p1", "http://o1"),
		st("http://s1", "http://p2", "lit:v"),
		st("http://s2", "http://p2", "lit:v"),
	}
	for _, s := range stmts {
		if err := j.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d", j.Len())
	}
	// Normalization: "lit:v" stored once, URIs s1/p1/p2/o1/s2 stored once.
	res, lits := j.ValueCounts()
	if res != 5 || lits != 1 {
		t.Fatalf("ValueCounts = (%d,%d), want (5,1)", res, lits)
	}
	sub := rdfterm.NewURI("http://s1")
	got, err := j.Find(&sub, nil, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("Find(s1) = %d, %v", len(got), err)
	}
	// Full statement lookup.
	got, _ = j.Find(&stmts[1].Subject, &stmts[1].Predicate, &stmts[1].Object)
	if len(got) != 1 || !got[0].Object.Equal(rdfterm.NewLiteral("v")) {
		t.Fatalf("exact find = %v", got)
	}
	// Absent value short-circuits.
	ghost := rdfterm.NewURI("http://ghost")
	got, _ = j.Find(&ghost, nil, nil)
	if len(got) != 0 {
		t.Fatalf("ghost find = %v", got)
	}
	obj := rdfterm.NewLiteral("v")
	got, _ = j.Find(nil, nil, &obj)
	if len(got) != 2 {
		t.Fatalf("Find(obj lit) = %d", len(got))
	}
	// A URI with the same text as a literal does not collide.
	uriObj := rdfterm.NewURI("v")
	got, _ = j.Find(nil, nil, &uriObj)
	if len(got) != 0 {
		t.Fatalf("URI/literal collision: %v", got)
	}
}

// TestJena1Jena2Agree cross-checks both baselines return the same result
// sets for the same data.
func TestJena1Jena2Agree(t *testing.T) {
	j1 := NewJena1Store()
	j2 := NewJena2Store()
	j2.CreateModel("m")
	stmts := []Statement{
		st("http://a", "http://p", "http://b"),
		st("http://a", "http://q", "lit:1"),
		st("http://b", "http://p", "http://c"),
		st("http://c", "http://p", "lit:1"),
	}
	for _, s := range stmts {
		if err := j1.Add(s); err != nil {
			t.Fatal(err)
		}
		if err := j2.Add("m", s); err != nil {
			t.Fatal(err)
		}
	}
	queries := []struct{ sub, pred, obj *rdfterm.Term }{
		{sub: termPtr(rdfterm.NewURI("http://a"))},
		{pred: termPtr(rdfterm.NewURI("http://p"))},
		{obj: termPtr(rdfterm.NewLiteral("1"))},
		{},
	}
	for qi, q := range queries {
		r1, err := j1.Find(q.sub, q.pred, q.obj)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := j2.Find("m", q.sub, q.pred, q.obj)
		if err != nil {
			t.Fatal(err)
		}
		if canon(r1) != canon(r2) {
			t.Errorf("query %d: jena1 %v != jena2 %v", qi, r1, r2)
		}
	}
}

func termPtr(t rdfterm.Term) *rdfterm.Term { return &t }

func canon(sts []Statement) string {
	var parts []string
	for _, s := range sts {
		parts = append(parts, encodeTerm(s.Subject)+"|"+encodeTerm(s.Predicate)+"|"+encodeTerm(s.Object))
	}
	strSort(parts)
	return strings.Join(parts, ";")
}

func strSort(s []string) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k] < s[k-1]; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
}

func TestQuadReifier(t *testing.T) {
	j := NewJena2Store()
	j.CreateModel("m")
	q := NewQuadReifier(j, "m")
	base := st("http://s", "http://p", "http://o")
	j.Add("m", base)
	before, _ := j.Len("m")

	ok, _ := q.IsReified(base)
	if ok {
		t.Fatal("IsReified before Reify")
	}
	r, err := q.Reify(base)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := j.Len("m")
	if after-before != 4 {
		t.Fatalf("quad reification stored %d rows, want 4", after-before)
	}
	if r.Kind != rdfterm.URI {
		t.Fatalf("reification resource = %v", r)
	}
	ok, err = q.IsReified(base)
	if err != nil || !ok {
		t.Fatalf("IsReified = %v, %v", ok, err)
	}
	// A statement sharing only the subject is not reified.
	ok, _ = q.IsReified(st("http://s", "http://p", "http://other"))
	if ok {
		t.Fatal("partial quad matched")
	}
	ok, _ = q.IsReified(st("http://s", "http://p2", "http://o"))
	if ok {
		t.Fatal("partial quad matched on predicate")
	}
	if q.StoredTriples() != 4 {
		t.Fatalf("StoredTriples = %d", q.StoredTriples())
	}
}
