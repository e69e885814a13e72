package inference

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdfterm"
)

func govAliases() []rdfterm.Alias {
	return []rdfterm.Alias{
		{Prefix: "gov", Namespace: "http://www.us.gov#"},
		{Prefix: "id", Namespace: "http://www.us.id#"},
	}
}

func aliasSet() *rdfterm.AliasSet {
	return rdfterm.Default().With(govAliases()...)
}

func icStore(t *testing.T) *core.Store {
	t.Helper()
	s := core.New()
	a := aliasSet()
	for _, m := range []string{"cia", "dhs", "fbi"} {
		if _, err := s.CreateRDFModel(m, m+"data", "triple"); err != nil {
			t.Fatal(err)
		}
	}
	ins := func(m, sub, p, o string) {
		t.Helper()
		if _, err := s.NewTripleS(m, sub, p, o, a); err != nil {
			t.Fatal(err)
		}
	}
	ins("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe")
	ins("cia", "gov:files", "gov:terrorSuspect", "id:JaneDoe")
	ins("dhs", "id:JimDoe", "gov:terrorAction", "bombing")
	ins("dhs", "gov:files", "gov:terrorSuspect", "id:JohnDoe")
	ins("fbi", "id:JohnDoe", "gov:enteredCountry", "June-20-2000")
	ins("fbi", "gov:files", "gov:terrorSuspect", "id:JohnDoe")
	return s
}

func TestCreateRulebaseAndRules(t *testing.T) {
	s := core.New()
	c := NewCatalog(s)
	rb, err := c.CreateRulebase("intel_rb")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Name() != "intel_rb" {
		t.Fatalf("Name = %q", rb.Name())
	}
	if _, err := c.CreateRulebase("intel_rb"); err == nil {
		t.Fatal("duplicate rulebase accepted")
	}
	if _, err := c.CreateRulebase(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.Rulebase(RDFSRulebaseName); err != nil {
		t.Fatal("built-in RDFS rulebase missing")
	}
	if _, err := c.Rulebase("nope"); !errors.Is(err, ErrNoSuchRulebase) {
		t.Fatalf("missing rulebase: %v", err)
	}
	err = c.AddRule("intel_rb", Rule{
		Name:       "intel_rule",
		Antecedent: `(?x gov:terrorAction "bombing")`,
		Consequent: `(gov:files gov:terrorSuspect ?x)`,
		Aliases:    govAliases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rb.Rules()); got != 1 {
		t.Fatalf("rules = %d", got)
	}
	// Bad rules rejected eagerly.
	bad := []Rule{
		{Name: "", Antecedent: "(?x ?p ?y)", Consequent: "(?x ?p ?y)"},
		{Name: "r", Antecedent: "garbage", Consequent: "(?x ?p ?y)"},
		{Name: "r", Antecedent: "(?x ?p ?y)", Consequent: "garbage"},
		{Name: "r", Antecedent: "(?x ?p ?y)", Consequent: "(?x ?p ?y) (?x ?p ?y)"},
		{Name: "r", Antecedent: "(?x ?p ?y)", Consequent: "(?x ?p ?y)", Filter: "?x >< 2"},
	}
	for i, r := range bad {
		if err := c.AddRule("intel_rb", r); err == nil {
			t.Errorf("bad rule %d accepted", i)
		}
	}
	if err := c.AddRule("missing_rb", Rule{Name: "r", Antecedent: "(?x ?p ?y)", Consequent: "(?x ?p ?y)"}); err == nil {
		t.Error("rule on missing rulebase accepted")
	}
}

// TestFigure8Inference reproduces the paper's Figure 8 end-to-end: the
// intel_rule makes JimDoe a suspect; the query over all three models plus
// the rules index returns JohnDoe, JaneDoe, and JimDoe.
func TestFigure8Inference(t *testing.T) {
	s := icStore(t)
	c := NewCatalog(s)
	if _, err := c.CreateRulebase("intel_rb"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRule("intel_rb", Rule{
		Name:       "intel_rule",
		Antecedent: `(?x gov:terrorAction "bombing")`,
		Consequent: `(gov:files gov:terrorSuspect ?x)`,
		Aliases:    govAliases(),
	}); err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateRulesIndex(context.Background(), "rdfs_rix_intel",
		[]string{"cia", "dhs", "fbi"},
		[]string{RDFSRulebaseName, "intel_rb"})
	if err != nil {
		t.Fatal(err)
	}
	if ix.InferredCount() == 0 {
		t.Fatal("no triples inferred")
	}
	rs, err := match.MatchContext(context.Background(), s, `(gov:files gov:terrorSuspect ?name)`, match.Options{
		Models:    []string{"cia", "dhs", "fbi"},
		Rulebases: []string{RDFSRulebaseName, "intel_rb"},
		Resolver:  c,
		Aliases:   aliasSet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i := 0; i < rs.Len(); i++ {
		v, _ := rs.Get(i, "name")
		names[v.Value] = true
	}
	for _, want := range []string{
		"http://www.us.id#JohnDoe",
		"http://www.us.id#JaneDoe",
		"http://www.us.id#JimDoe", // inferred!
	} {
		if !names[want] {
			t.Errorf("missing %s in %v", want, names)
		}
	}
	// JimDoe's suspect triple is inferred, not asserted in any base model.
	a := aliasSet()
	for _, m := range []string{"cia", "dhs", "fbi"} {
		if _, ok, _ := s.IsTriple(m, "gov:files", "gov:terrorSuspect", "id:JimDoe", a); ok {
			t.Errorf("inferred triple leaked into base model %s", m)
		}
	}
	if _, ok, _ := s.IsTriple(ix.IndexModel(), "gov:files", "gov:terrorSuspect", "id:JimDoe", a); !ok {
		t.Error("inferred triple missing from index model")
	}
}

func TestRulesIndexScopeResolution(t *testing.T) {
	s := icStore(t)
	c := NewCatalog(s)
	if _, err := c.CreateRulesIndex(context.Background(), "ix1", []string{"cia"}, []string{RDFSRulebaseName}); err != nil {
		t.Fatal(err)
	}
	// Exact scope resolves regardless of argument order.
	if _, err := c.ResolveIndex([]string{"cia"}, []string{"RDFS"}); err != nil {
		t.Fatal(err)
	}
	// Different scope does not resolve.
	if _, err := c.ResolveIndex([]string{"cia", "dhs"}, []string{"RDFS"}); !errors.Is(err, ErrNoRulesIndex) {
		t.Fatalf("wrong scope resolved: %v", err)
	}
	// Duplicate index name rejected; missing rulebase rejected.
	if _, err := c.CreateRulesIndex(context.Background(), "ix1", []string{"cia"}, nil); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, err := c.CreateRulesIndex(context.Background(), "ix2", []string{"cia"}, []string{"ghost"}); !errors.Is(err, ErrNoSuchRulebase) {
		t.Errorf("ghost rulebase: %v", err)
	}
	if _, err := c.CreateRulesIndex(context.Background(), "ix3", nil, nil); err == nil {
		t.Error("no models accepted")
	}
	if _, err := c.CreateRulesIndex(context.Background(), "", []string{"cia"}, nil); err == nil {
		t.Error("empty name accepted")
	}
}

func TestRDFSSubClassReasoning(t *testing.T) {
	s := core.New()
	s.CreateRDFModel("onto", "", "")
	ex := []rdfterm.Alias{{Prefix: "ex", Namespace: "http://ex#"}}
	a := rdfterm.Default().With(ex...)
	ins := func(sub, p, o string) {
		t.Helper()
		if _, err := s.NewTripleS("onto", sub, p, o, a); err != nil {
			t.Fatal(err)
		}
	}
	// Class hierarchy: Dog ⊂ Mammal ⊂ Animal; rex is a Dog.
	ins("ex:Dog", "rdfs:subClassOf", "ex:Mammal")
	ins("ex:Mammal", "rdfs:subClassOf", "ex:Animal")
	ins("ex:rex", "rdf:type", "ex:Dog")
	// Property hierarchy: hasPet ⊂ likes; domain/range.
	ins("ex:hasPet", "rdfs:subPropertyOf", "ex:likes")
	ins("ex:hasPet", "rdfs:domain", "ex:Person")
	ins("ex:hasPet", "rdfs:range", "ex:Animal")
	ins("ex:alice", "ex:hasPet", "ex:rex")

	c := NewCatalog(s)
	if _, err := c.CreateRulesIndex(context.Background(), "onto_ix", []string{"onto"}, []string{RDFSRulebaseName}); err != nil {
		t.Fatal(err)
	}
	q := func(query string) int {
		t.Helper()
		rs, err := match.MatchContext(context.Background(), s, query, match.Options{
			Models:    []string{"onto"},
			Rulebases: []string{RDFSRulebaseName},
			Resolver:  c,
			Aliases:   a,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs.Len()
	}
	// rdfs9+rdfs11: rex is a Mammal and an Animal.
	if n := q(`(ex:rex rdf:type ex:Mammal)`); n != 1 {
		t.Errorf("rex Mammal rows = %d", n)
	}
	if n := q(`(ex:rex rdf:type ex:Animal)`); n != 1 {
		t.Errorf("rex Animal rows = %d", n)
	}
	// rdfs11: Dog ⊂ Animal.
	if n := q(`(ex:Dog rdfs:subClassOf ex:Animal)`); n != 1 {
		t.Errorf("Dog subClassOf Animal rows = %d", n)
	}
	// rdfs7: alice likes rex.
	if n := q(`(ex:alice ex:likes ex:rex)`); n != 1 {
		t.Errorf("alice likes rex rows = %d", n)
	}
	// rdfs2: alice is a Person (domain).
	if n := q(`(ex:alice rdf:type ex:Person)`); n != 1 {
		t.Errorf("alice Person rows = %d", n)
	}
	// rdfs3: rex is an Animal (range) — already covered; check via range.
	if n := q(`(ex:rex rdf:type ex:Animal)`); n != 1 {
		t.Errorf("rex Animal (range) rows = %d", n)
	}
	// rdf1: hasPet is a Property.
	if n := q(`(ex:hasPet rdf:type rdf:Property)`); n != 1 {
		t.Errorf("hasPet Property rows = %d", n)
	}
	// Non-entailed facts stay absent.
	if n := q(`(ex:rex rdf:type ex:Person)`); n != 0 {
		t.Errorf("rex Person rows = %d, want 0", n)
	}
}

func TestRuleWithFilter(t *testing.T) {
	s := core.New()
	s.CreateRDFModel("m", "", "")
	ex := []rdfterm.Alias{{Prefix: "ex", Namespace: "http://ex#"}}
	a := rdfterm.Default().With(ex...)
	s.NewTripleS("m", "ex:a", "ex:score", `"90"^^xsd:int`, a)
	s.NewTripleS("m", "ex:b", "ex:score", `"40"^^xsd:int`, a)
	c := NewCatalog(s)
	c.CreateRulebase("grade")
	if err := c.AddRule("grade", Rule{
		Name:       "pass",
		Antecedent: `(?x ex:score ?s)`,
		Filter:     `?s >= 50`,
		Consequent: `(?x ex:status ex:passed)`,
		Aliases:    ex,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRulesIndex(context.Background(), "gix", []string{"m"}, []string{"grade"}); err != nil {
		t.Fatal(err)
	}
	rs, err := match.MatchContext(context.Background(), s, `(?x ex:status ex:passed)`, match.Options{
		Models: []string{"m"}, Rulebases: []string{"grade"}, Resolver: c, Aliases: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("passed rows = %d, want 1", rs.Len())
	}
	x, _ := rs.Get(0, "x")
	if x.Value != "http://ex#a" {
		t.Errorf("?x = %v", x)
	}
}

func TestTransitiveClosureConvergence(t *testing.T) {
	// A chain a1 ⊂ a2 ⊂ … ⊂ a12 must fully close under rdfs11.
	s := core.New()
	s.CreateRDFModel("chain", "", "")
	a := rdfterm.Default()
	for i := 0; i < 12; i++ {
		sub := "http://c#a" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		obj := "http://c#a" + string(rune('0'+(i+1)/10)) + string(rune('0'+(i+1)%10))
		if _, err := s.NewTripleS("chain", sub, "rdfs:subClassOf", obj, a); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCatalog(s)
	if _, err := c.CreateRulesIndex(context.Background(), "cix", []string{"chain"}, []string{RDFSRulebaseName}); err != nil {
		t.Fatal(err)
	}
	rs, err := match.MatchContext(context.Background(), s, `(<http://c#a00> rdfs:subClassOf <http://c#a12>)`, match.Options{
		Models: []string{"chain"}, Rulebases: []string{RDFSRulebaseName}, Resolver: c, Aliases: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("closure rows = %d, want 1", rs.Len())
	}
}

func TestDropAndRebuildRulesIndex(t *testing.T) {
	s := icStore(t)
	c := NewCatalog(s)
	c.CreateRulebase("intel_rb")
	c.AddRule("intel_rb", Rule{
		Name:       "intel_rule",
		Antecedent: `(?x gov:terrorAction "bombing")`,
		Consequent: `(gov:files gov:terrorSuspect ?x)`,
		Aliases:    govAliases(),
	})
	ix, err := c.CreateRulesIndex(context.Background(), "rix", []string{"dhs"}, []string{"intel_rb"})
	if err != nil {
		t.Fatal(err)
	}
	if ix.InferredCount() != 1 {
		t.Fatalf("inferred = %d, want 1 (JimDoe)", ix.InferredCount())
	}
	// New base data requires Rebuild to show up.
	a := aliasSet()
	s.NewTripleS("dhs", "id:NewGuy", "gov:terrorAction", "bombing", a)
	if err := c.Rebuild(context.Background(), "rix"); err != nil {
		t.Fatal(err)
	}
	rs, err := match.MatchContext(context.Background(), s, `(gov:files gov:terrorSuspect ?x)`, match.Options{
		Models: []string{"dhs"}, Rulebases: []string{"intel_rb"}, Resolver: c, Aliases: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 { // JohnDoe (base) + JimDoe + NewGuy (inferred)
		t.Fatalf("rows after rebuild = %d, want 3", rs.Len())
	}
	if err := c.DropRulesIndex("rix"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResolveIndex([]string{"dhs"}, []string{"intel_rb"}); !errors.Is(err, ErrNoRulesIndex) {
		t.Fatalf("resolve after drop: %v", err)
	}
	if err := c.DropRulesIndex("rix"); !errors.Is(err, ErrNoRulesIndex) {
		t.Fatalf("double drop: %v", err)
	}
	if err := c.Rebuild(context.Background(), "rix"); !errors.Is(err, ErrNoRulesIndex) {
		t.Fatalf("rebuild after drop: %v", err)
	}
}

// Soundness property: everything inferred by the rules index is derivable
// — spot-check that the index contains no triples about entities never
// mentioned in the rules or data.
func TestInferenceNoGarbage(t *testing.T) {
	s := icStore(t)
	c := NewCatalog(s)
	ix, err := c.CreateRulesIndex(context.Background(), "g", []string{"cia"}, []string{RDFSRulebaseName})
	if err != nil {
		t.Fatal(err)
	}
	found, err := s.Find(context.Background(), ix.IndexModel(), core.Pattern{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range found {
		tr, _ := ts.GetTriple()
		// Only rdf1/rdfs6-style derivations are possible from cia's data:
		// every derived triple must mention gov:terrorSuspect or RDF/RDFS
		// vocabulary.
		ok := tr.Subject.Value == "http://www.us.gov#terrorSuspect" ||
			tr.Property.Value == rdfterm.RDFSSubPropertyOf ||
			tr.Property.Value == rdfterm.RDFType
		if !ok {
			t.Errorf("unexpected inferred triple %v", tr)
		}
	}
}
