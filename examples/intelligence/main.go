// Intelligence reproduces the paper's Intelligence Community scenario end
// to end (Figures 2, 6, 7, 8):
//
//   - three agencies (CIA, DHS, FBI) each manage their own RDF model in
//     separate application tables, all sharing the central schema;
//   - the repeated triple shares value IDs across models (Figure 6);
//   - MI5's assertion reifies a CIA triple via a DBUri (Figure 7);
//   - Interpol asserts an *implied* statement (§5.2);
//   - the intel_rb rulebase plus the RDFS rulebase are compiled into a
//     rules index, and SDO_RDF_MATCH reasons across all three models,
//     joined with the IC address table to produce the paper's Figure 8
//     terror watch list.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/match"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

func main() {
	ctx := context.Background()
	store := core.New()
	govAliases := []rdfterm.Alias{
		{Prefix: "gov", Namespace: "http://www.us.gov#"},
		{Prefix: "id", Namespace: "http://www.us.id#"},
	}
	aliases := rdfterm.Default().With(govAliases...)

	// Each agency has its own application table and model (Figure 2).
	appDB := reldb.NewDatabase("IC")
	tables := map[string]*core.ApplicationTable{}
	for _, agency := range []string{"cia", "dhs", "fbi"} {
		at, err := core.CreateApplicationTable(appDB, store, agency+"data",
			reldb.Column{Name: "ID", Kind: reldb.KindInt})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := store.CreateRDFModel(agency, agency+"data", "triple"); err != nil {
			log.Fatal(err)
		}
		tables[agency] = at
	}

	// Figure 2 data.
	type row struct {
		agency, s, p, o string
	}
	data := []row{
		{"cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe"},
		{"cia", "gov:files", "gov:terrorSuspect", "id:JaneDoe"},
		{"dhs", "id:JimDoe", "gov:terrorAction", "bombing"},
		{"dhs", "gov:files", "gov:terrorSuspect", "id:JohnDoe"},
		{"fbi", "id:JohnDoe", "gov:enteredCountry", "June-20-2000"},
		{"fbi", "gov:files", "gov:terrorSuspect", "id:JohnDoe"},
	}
	var ciaJohnDoe core.TripleS
	for i, r := range data {
		ts, err := tables[r.agency].InsertTriple(
			[]reldb.Value{reldb.Int(int64(i + 1))}, r.agency, r.s, r.p, r.o, aliases)
		if err != nil {
			log.Fatal(err)
		}
		if r.agency == "cia" && r.o == "id:JohnDoe" {
			ciaJohnDoe = ts
		}
	}

	// Figure 6: the application tables hold only ID objects; the repeated
	// triple shares S/P/O value IDs across agencies.
	fmt.Println("Figure 6 — SDO_RDF_TRIPLE_S objects in the application tables:")
	for _, agency := range []string{"cia", "dhs", "fbi"} {
		fmt.Printf("%s TRIPLE (RDF_T_ID, RDF_M_ID, RDF_S_ID, RDF_P_ID, RDF_O_ID)\n", upper(agency))
		tables[agency].Scan(func(_ reldb.RowID, _ []reldb.Value, ts core.TripleS) bool {
			fmt.Printf("  %s\n", ts)
			return true
		})
	}

	// Figure 7: reify the CIA triple and assert MI5 as its source.
	if _, err := store.AssertAboutTriple("cia", "gov:MI5", "gov:source", ciaJohnDoe.TID, aliases); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 7 — reified statement %s:\n", core.DBUri(ciaJohnDoe.TID))
	asserts, err := store.Assertions("cia", ciaJohnDoe.TID)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range asserts {
		fmt.Printf("  <%s, %s, R>\n", aliases.Compact(a.Subject.Value), aliases.Compact(a.Property.Value))
	}

	// §5.2: Interpol asserts the implied statement about JohnDoeJr.
	if _, err := store.AssertImplied("cia", "gov:Interpol", "gov:source",
		"gov:files", "gov:terrorSuspect", "id:JohnDoeJr", aliases); err != nil {
		log.Fatal(err)
	}
	implied, _, err := store.IsTriple("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoeJr", aliases)
	if err != nil {
		log.Fatal(err)
	}
	info, err := store.LinkInfo(implied.TID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n§5.2 — implied statement about id:JohnDoeJr stored with CONTEXT=%s\n", info.Context)

	// Figure 8: rulebase, rules index, inference, and the address join.
	catalog := inference.NewCatalog(store)
	if _, err := catalog.CreateRulebase("intel_rb"); err != nil {
		log.Fatal(err)
	}
	if err := catalog.AddRule("intel_rb", inference.Rule{
		Name:       "intel_rule",
		Antecedent: `(?x gov:terrorAction "bombing")`,
		Consequent: `(gov:files gov:terrorSuspect ?x)`,
		Aliases:    govAliases,
	}); err != nil {
		log.Fatal(err)
	}
	ix, err := catalog.CreateRulesIndex(ctx, "rdfs_rix_intel",
		[]string{"cia", "dhs", "fbi"},
		[]string{inference.RDFSRulebaseName, "intel_rb"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 8 — rules index %q precomputed %d inferred triples\n", ix.Name(), ix.InferredCount())

	// The IC address table (ic.address in the paper's SQL).
	address, err := appDB.CreateTable(reldb.NewSchema("address",
		reldb.Column{Name: "NAME", Kind: reldb.KindString},
		reldb.Column{Name: "ADDRESS", Kind: reldb.KindString},
	))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range [][2]string{
		{"http://www.us.id#JohnDoe", "Brooklyn, NY"},
		{"http://www.us.id#JaneDoe", "Brooklyn, NY"},
		{"http://www.us.id#JimDoe", "Trenton, NJ"},
		{"http://www.us.id#Innocent", "Nowhere, KS"},
	} {
		if _, err := address.Insert(reldb.Row{reldb.String_(r[0]), reldb.String_(r[1])}); err != nil {
			log.Fatal(err)
		}
	}

	// SELECT a.name, b.address FROM TABLE(SDO_RDF_MATCH(...)) a, ic.address b
	// WHERE a.name = b.name;
	rs, err := match.MatchContext(ctx, store, `(gov:files gov:terrorSuspect ?name)`, match.Options{
		Models:    []string{"cia", "dhs", "fbi"},
		Rulebases: []string{inference.RDFSRulebaseName, "intel_rb"},
		Resolver:  catalog,
		Aliases:   aliases,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The address table keyed by name, then each suspect looked up in it
	// (the repeated triple appears once per model, so deduplicate).
	addressOf := map[string]string{}
	address.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		addressOf[r[0].Str()] = r[1].Str()
		return true
	})
	seen := map[string]bool{}
	var out [][2]string
	for i := 0; i < rs.Len(); i++ {
		name, _ := rs.Get(i, "name")
		if loc, ok := addressOf[name.Value]; ok && !seen[name.Value] {
			seen[name.Value] = true
			out = append(out, [2]string{aliases.Compact(name.Value), loc})
		}
	}
	fmt.Println()
	printTable([2]string{"TERROR_WATCH_LIST", "LOCATION"}, out)
}

// printTable prints two-column rows under a header, each column padded to
// its widest cell.
func printTable(header [2]string, rows [][2]string) {
	w := [2]int{len(header[0]), len(header[1])}
	for _, r := range rows {
		w[0], w[1] = max(w[0], len(r[0])), max(w[1], len(r[1]))
	}
	line := func(a, b string) { fmt.Printf("%-*s  %-*s\n", w[0], a, w[1], b) }
	line(header[0], header[1])
	line(strings.Repeat("-", w[0]), strings.Repeat("-", w[1]))
	for _, r := range rows {
		line(r[0], r[1])
	}
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 32
		}
	}
	return string(b)
}
