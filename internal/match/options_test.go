package match

import (
	"context"
	"testing"

	"repro/internal/core"
)

func TestMatchDistinct(t *testing.T) {
	s := icStore(t)
	// Without DISTINCT: JohnDoe appears 3× (once per model).
	rs, err := MatchContext(context.Background(), s, `(gov:files gov:terrorSuspect ?name)`, Options{
		Models:  []string{"cia", "dhs", "fbi"},
		Aliases: govAliases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 4 {
		t.Fatalf("plain rows = %d", rs.Len())
	}
	rs, err = MatchContext(context.Background(), s, `(gov:files gov:terrorSuspect ?name)`, Options{
		Models:   []string{"cia", "dhs", "fbi"},
		Aliases:  govAliases(),
		Distinct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 { // JohnDoe, JaneDoe
		t.Fatalf("distinct rows = %d", rs.Len())
	}
}

func TestMatchOrderBy(t *testing.T) {
	s := icStore(t)
	rs, err := MatchContext(context.Background(), s, `(gov:files gov:terrorSuspect ?name)`, Options{
		Models:   []string{"cia", "dhs", "fbi"},
		Aliases:  govAliases(),
		Distinct: true,
		OrderBy:  []string{"name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("rows = %d", rs.Len())
	}
	first, _ := rs.Get(0, "name")
	second, _ := rs.Get(1, "name")
	if first.Value >= second.Value {
		t.Fatalf("not ordered: %q then %q", first.Value, second.Value)
	}
}

func TestMatchOrderByMultipleVars(t *testing.T) {
	s := icStore(t)
	rs, err := MatchContext(context.Background(), s, `(?s ?p ?o)`, Options{
		Models:  []string{"cia", "dhs", "fbi"},
		OrderBy: []string{"s", "p", "o"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < rs.Len(); i++ {
		prev, cur := rs.Rows[i-1], rs.Rows[i]
		cmp := 0
		for c := 0; c < 3 && cmp == 0; c++ {
			cmp = prev[c].Compare(cur[c])
		}
		if cmp > 0 {
			t.Fatalf("row %d out of order", i)
		}
	}
}

func TestMatchOrderByUnknownVar(t *testing.T) {
	s := icStore(t)
	if _, err := MatchContext(context.Background(), s, `(?s ?p ?o)`, Options{
		Models:  []string{"cia"},
		OrderBy: []string{"ghost"},
	}); err == nil {
		t.Fatal("unknown ORDER BY variable accepted")
	}
}

func TestMatchDistinctWithFilter(t *testing.T) {
	s := icStore(t)
	rs, err := MatchContext(context.Background(), s, `(gov:files gov:terrorSuspect ?name)`, Options{
		Models:   []string{"cia", "dhs", "fbi"},
		Aliases:  govAliases(),
		Distinct: true,
		Filter:   `LIKE(?name, "%JohnDoe")`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
}

// TestMatchJoinThroughBlankNodes: a variable bound to a blank node (its
// internal label) must work as a constraint in later patterns — the
// container pattern of §2 (members hang off a generated blank node).
func TestMatchJoinThroughBlankNodes(t *testing.T) {
	s := core.New()
	s.CreateRDFModel("m", "", "")
	a := govAliases()
	// _:bag rdf:type rdf:Bag ; rdf:_1 gov:member1 ; rdf:_2 gov:member2.
	s.NewTripleS("m", "_:bag", "rdf:type", "rdf:Bag", a)
	s.NewTripleS("m", "_:bag", "rdf:_1", "gov:member1", a)
	s.NewTripleS("m", "_:bag", "rdf:_2", "gov:member2", a)
	s.NewTripleS("m", "gov:notbag", "rdf:_1", "gov:other", a)

	rs, err := MatchContext(context.Background(), s, `(?c rdf:type rdf:Bag) (?c rdf:_1 ?first)`, Options{
		Models: []string{"m"}, Aliases: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d, want 1", rs.Len())
	}
	first, _ := rs.Get(0, "first")
	if first.Value != "http://www.us.gov#member1" {
		t.Fatalf("?first = %v", first)
	}
}
