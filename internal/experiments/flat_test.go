package experiments

import (
	"context"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// TestFlatQueryMatchesMemberFunctions asserts the Experiment I equivalence
// at the correctness level: the three-way join over the storage tables,
// the member-function path and the unindexed scan return identical rows.
func TestFlatQueryMatchesMemberFunctions(t *testing.T) {
	s := core.New()
	if _, err := s.CreateRDFModel("m", "app", "triple"); err != nil {
		t.Fatal(err)
	}
	a := rdfterm.Default().With(rdfterm.Alias{Prefix: "gov", Namespace: "http://www.us.gov#"})
	at, err := core.CreateApplicationTable(reldb.NewDatabase("APP"), s, "app",
		reldb.Column{Name: "ID", Kind: reldb.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][3]string{
		{"gov:p1", "gov:seeAlso", "gov:x1"},
		{"gov:p1", "gov:seeAlso", "gov:x2"},
		{"gov:p1", "gov:mass", `"42"^^xsd:int`},
		{"gov:p1", "gov:label", `"a protein"`},
		{"gov:p2", "gov:seeAlso", "gov:x1"},
	}
	for i, r := range rows {
		if _, err := at.InsertTriple([]reldb.Value{reldb.Int(int64(i))}, "m", r[0], r[1], r[2], a); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := at.CreateSubjectIndex("sub")
	if err != nil {
		t.Fatal(err)
	}
	subject := "http://www.us.gov#p1"

	member, err := at.QueryBySubject(idx, subject)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := FlatQueryBySubject(s, "m", subject)
	if err != nil {
		t.Fatal(err)
	}
	unindexed, err := UnindexedQueryBySubject(at, subject)
	if err != nil {
		t.Fatal(err)
	}
	var bySubText []core.Triple
	found, err := s.Find(context.Background(), "m", core.Pattern{Subject: core.P(rdfterm.NewURI(subject))})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range found {
		tr, err := ts.GetTriple()
		if err != nil {
			t.Fatal(err)
		}
		bySubText = append(bySubText, tr)
	}
	canon := func(ts []core.Triple) []string {
		out := make([]string, len(ts))
		for i, tr := range ts {
			out[i] = tr.String()
		}
		sort.Strings(out)
		return out
	}
	want := canon(member)
	if len(want) != 4 {
		t.Fatalf("member rows = %d", len(want))
	}
	for name, got := range map[string][]core.Triple{
		"flat": flat, "unindexed": unindexed, "find by subject": bySubText,
	} {
		g := canon(got)
		if len(g) != len(want) {
			t.Fatalf("%s rows = %d, want %d", name, len(g), len(want))
		}
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("%s row %d = %s, want %s", name, i, g[i], want[i])
			}
		}
	}
	// Unknown subject: all paths return empty.
	flat, _ = FlatQueryBySubject(s, "m", "http://nope")
	if len(flat) != 0 {
		t.Fatalf("flat unknown subject rows = %d", len(flat))
	}
	if _, err := FlatQueryBySubject(s, "ghost", subject); err == nil {
		t.Fatal("missing model accepted")
	}
}
