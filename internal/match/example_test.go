package match_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/match"
	"repro/internal/rdfterm"
)

// Example reproduces the Figure 8 inference query: the intel_rb rulebase
// makes anyone who performed a "bombing" a terror suspect, a rules index
// precomputes the entailment, and SDO_RDF_MATCH reads base + inferred
// triples across all three agency models.
func Example() {
	store := core.New()
	gov := []rdfterm.Alias{
		{Prefix: "gov", Namespace: "http://www.us.gov#"},
		{Prefix: "id", Namespace: "http://www.us.id#"},
	}
	aliases := rdfterm.Default().With(gov...)
	for _, m := range []string{"cia", "dhs", "fbi"} {
		if _, err := store.CreateRDFModel(m, "", ""); err != nil {
			log.Fatal(err)
		}
	}
	store.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", aliases)
	store.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JaneDoe", aliases)
	store.NewTripleS("dhs", "id:JimDoe", "gov:terrorAction", "bombing", aliases)

	cat := inference.NewCatalog(store)
	cat.CreateRulebase("intel_rb")
	cat.AddRule("intel_rb", inference.Rule{
		Name:       "intel_rule",
		Antecedent: `(?x gov:terrorAction "bombing")`,
		Consequent: `(gov:files gov:terrorSuspect ?x)`,
		Aliases:    gov,
	})
	if _, err := cat.CreateRulesIndex(context.Background(), "rdfs_rix_intel",
		[]string{"cia", "dhs", "fbi"},
		[]string{inference.RDFSRulebaseName, "intel_rb"}); err != nil {
		log.Fatal(err)
	}

	rs, err := match.MatchContext(context.Background(), store, `(gov:files gov:terrorSuspect ?name)`, match.Options{
		Models:    []string{"cia", "dhs", "fbi"},
		Rulebases: []string{inference.RDFSRulebaseName, "intel_rb"},
		Resolver:  cat,
		Aliases:   aliases,
		Distinct:  true,
		OrderBy:   []string{"name"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < rs.Len(); i++ {
		name, _ := rs.Get(i, "name")
		fmt.Println(aliases.Compact(name.Value))
	}
	// Output:
	// id:JaneDoe
	// id:JimDoe
	// id:JohnDoe
}

// Example_filter shows the filter argument of SDO_RDF_MATCH.
func Example_filter() {
	store := core.New()
	store.CreateRDFModel("m", "", "")
	a := rdfterm.Default().With(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"})
	store.NewTripleS("m", "x:alice", "x:age", `"31"^^xsd:int`, a)
	store.NewTripleS("m", "x:bob", "x:age", `"17"^^xsd:int`, a)

	rs, _ := match.MatchContext(context.Background(), store, `(?who x:age ?age)`, match.Options{
		Models:  []string{"m"},
		Aliases: a,
		Filter:  `?age >= 18`,
	})
	for i := 0; i < rs.Len(); i++ {
		fmt.Println(rs.Strings(i)[0])
	}
	// Output:
	// http://x#alice
}
