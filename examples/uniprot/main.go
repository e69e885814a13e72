// Uniprot demonstrates the paper's evaluation workload (§7.1): a
// UniProt-like protein catalogue generated synthetically, bulk-loaded into
// the RDF object store with an application table and §7.2 function-based
// indexes, reified per Table 2's statement counts, and queried with the
// Experiment II and III probes.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
	"repro/internal/uniprot"
)

func main() {
	size := flag.Int("triples", 10_000, "dataset size in triples")
	flag.Parse()

	reified := uniprot.PaperReifiedCount(*size)
	fmt.Printf("generating %d UniProt-like triples (%d reified statements)…\n", *size, reified)
	start := time.Now()
	ds, err := experiments.LoadOracle(*size, reified)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %v\n", time.Since(start).Round(time.Millisecond))
	n, _ := ds.Store.NumTriples(ds.Model)
	fmt.Printf("rdf_link$ rows: %d (base %d + %d reification rows)\n", n, ds.Triples, ds.Reified)
	fmt.Printf("rdf_value$ rows: %d distinct text values\n", ds.Store.NumValues())

	// Experiment II probe (Figure 10): all triples whose subject is P93259.
	rows, err := ds.App.QueryBySubject(ds.SubIdx, uniprot.ProbeSubject)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery: subject = %s → %d rows (paper: 24)\n", uniprot.ProbeSubject, len(rows))
	for i, r := range rows {
		if i == 5 {
			fmt.Printf("  … %d more\n", len(rows)-5)
			break
		}
		obj := r.Object.Lexical()
		if len(obj) > 60 {
			obj = obj[:57] + "..."
		}
		fmt.Printf("  %s → %s\n", r.Property.Value, obj)
	}

	// Experiment III probes (Figure 11).
	isReif, err := ds.Store.IsReified(ds.Model,
		uniprot.ProbeSubject, uniprot.SeeAlso, uniprot.ProbeSeeAlso, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIS_REIFIED(P93259, rdfs:seeAlso, SM00101) = %v (paper: true)\n", isReif)
	isReif, err = ds.Store.IsReified(ds.Model,
		uniprot.ProbeSubject, uniprot.SeeAlso, uniprot.NonReifiedProbeObject, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IS_REIFIED(P93259, rdfs:seeAlso, PF09103) = %v (paper: false)\n", isReif)

	// The flat-table path (Experiment I / Figure 9) returns the same rows.
	flat, err := experiments.FlatQueryBySubject(ds.Store, ds.Model, uniprot.ProbeSubject)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflat 3-way join over rdf_value$/rdf_link$: %d rows (must equal member functions)\n", len(flat))
}
