// Quickstart walks the paper's §4.3 application recipe end to end:
//
//  1. create an application table with an SDO_RDF_TRIPLE_S column,
//  2. create an RDF model,
//  3. insert triples through the object constructor,
//  4. read them back through the member functions, and
//  5. query with SDO_RDF_MATCH.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

func main() {
	// The central schema: one universe for all RDF data (§1).
	store := core.New()

	// Namespace aliases; the paper's examples use gov: and id: prefixes.
	aliases := rdfterm.Default().With(
		rdfterm.Alias{Prefix: "gov", Namespace: "http://www.us.gov#"},
		rdfterm.Alias{Prefix: "id", Namespace: "http://www.us.id#"},
	)

	// Step 1: CREATE TABLE ciadata (id NUMBER, triple SDO_RDF_TRIPLE_S);
	appDB := reldb.NewDatabase("APP")
	ciadata, err := core.CreateApplicationTable(appDB, store, "ciadata",
		reldb.Column{Name: "ID", Kind: reldb.KindInt})
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: EXECUTE SDO_RDF.CREATE_RDF_MODEL('cia', 'ciadata', 'triple');
	if _, err := store.CreateRDFModel("cia", "ciadata", "triple"); err != nil {
		log.Fatal(err)
	}

	// Step 3: INSERT INTO ciadata VALUES (1, SDO_RDF_TRIPLE_S('cia', ...));
	rows := [][3]string{
		{"gov:files", "gov:terrorSuspect", "id:JohnDoe"},
		{"gov:files", "gov:terrorSuspect", "id:JaneDoe"},
		{"id:JohnDoe", "gov:enteredCountry", "June-20-2000"},
	}
	for i, r := range rows {
		ts, err := ciadata.InsertTriple([]reldb.Value{reldb.Int(int64(i + 1))},
			"cia", r[0], r[1], r[2], aliases)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("inserted %s\n", ts)
	}

	// Step 4: member functions on rows read back from the table.
	fmt.Println("\napplication table contents via GET_TRIPLE():")
	ciadata.Scan(func(_ reldb.RowID, user []reldb.Value, ts core.TripleS) bool {
		tr, err := ts.GetTriple()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  id=%s  %s\n", user[0], tr)
		return true
	})

	// Node reuse: gov:files appears in two triples but is one node (§4).
	fmt.Printf("\nstore: %d triples, %d distinct values, %d graph nodes\n",
		store.TotalTriples(), store.NumValues(), store.NumNodes())

	// Step 5: SDO_RDF_MATCH (§6.1).
	rs, err := match.MatchContext(context.Background(), store, `(gov:files gov:terrorSuspect ?who)`, match.Options{
		Models:  []string{"cia"},
		Aliases: aliases,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSDO_RDF_MATCH('(gov:files gov:terrorSuspect ?who)'):")
	for i := 0; i < rs.Len(); i++ {
		who, _ := rs.Get(i, "who")
		fmt.Printf("  ?who = %s\n", aliases.Compact(who.Value))
	}

	// IS_TRIPLE (§6).
	_, ok, err := store.IsTriple("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", aliases)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIS_TRIPLE(gov:files, gov:terrorSuspect, id:JohnDoe) = %v\n", ok)
}
