// Provenance demonstrates the paper's motivating use for reification
// (§1, §5): attaching metadata — who asserted a statement, and when — to
// the statements themselves, and then reasoning about statements by their
// provenance.
//
// The streamlined scheme makes this cheap: each reified statement costs
// one extra row, and every assertion about it is an ordinary triple whose
// object is the statement's DBUri.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdfterm"
)

func main() {
	ctx := context.Background()
	store := core.New()
	if _, err := store.CreateRDFModel("intel", "", ""); err != nil {
		log.Fatal(err)
	}
	aliases := rdfterm.Default().With(
		rdfterm.Alias{Prefix: "gov", Namespace: "http://www.us.gov#"},
		rdfterm.Alias{Prefix: "id", Namespace: "http://www.us.id#"},
		rdfterm.Alias{Prefix: "src", Namespace: "http://www.us.sources#"},
	)

	// Facts observed directly (CONTEXT=D) with recorded sources and dates.
	type obs struct {
		s, p, o, source, date string
	}
	direct := []obs{
		{"id:JohnDoe", "gov:enteredCountry", "June-20-2000", "src:FBI", "2000-06-21"},
		{"gov:files", "gov:terrorSuspect", "id:JohnDoe", "src:MI5", "2001-02-10"},
		{"gov:files", "gov:terrorSuspect", "id:JohnDoe", "src:CIA", "2001-03-01"},
	}
	for _, d := range direct {
		ts, err := store.NewTripleS("intel", d.s, d.p, d.o, aliases)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := store.AssertAboutTriple("intel", d.source, "gov:source", ts.TID, aliases); err != nil {
			log.Fatal(err)
		}
		if _, err := store.AssertAboutTriple("intel", d.source, "gov:reportedOn", ts.TID, aliases); err != nil {
			log.Fatal(err)
		}
		_ = d.date
	}

	// Hearsay: statements that exist only because someone asserted them
	// (CONTEXT=I). "During reasoning over the database it will be
	// evaluated based on the CIA's trust in Interpol" (§5.2).
	if _, err := store.AssertImplied("intel", "src:Interpol", "gov:source",
		"gov:files", "gov:terrorSuspect", "id:JohnDoeJr", aliases); err != nil {
		log.Fatal(err)
	}
	if _, err := store.AssertImplied("intel", "src:Anonymous", "gov:source",
		"gov:files", "gov:terrorSuspect", "id:JaneRoe", aliases); err != nil {
		log.Fatal(err)
	}

	// 1. Who said the JohnDoe statement? (assertions about one triple)
	base, _, err := store.IsTriple("intel", "gov:files", "gov:terrorSuspect", "id:JohnDoe", aliases)
	if err != nil {
		log.Fatal(err)
	}
	asserts, err := store.Assertions("intel", base.TID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assertions about <gov:files gov:terrorSuspect id:JohnDoe>:")
	for _, a := range asserts {
		fmt.Printf("  %s %s R\n", aliases.Compact(a.Subject.Value), aliases.Compact(a.Property.Value))
	}

	// 2. Everything a given source has vouched for: match on the source,
	// resolve each DBUri to its base statement.
	rs, err := match.MatchContext(ctx, store, `(src:Interpol gov:source ?stmt)`, match.Options{
		Models:  []string{"intel"},
		Aliases: aliases,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstatements sourced by src:Interpol:")
	for i := 0; i < rs.Len(); i++ {
		stmt, _ := rs.Get(i, "stmt")
		tr, err := store.ResolveDBUri(stmt.Value)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s → <%s %s %s>\n", stmt.Value,
			aliases.Compact(tr.Subject.Value),
			aliases.Compact(tr.Property.Value),
			aliases.Compact(tr.Object.Value))
	}

	// 3. Separate facts from hearsay using CONTEXT (D vs I).
	fmt.Println("\nterror suspects by evidence level:")
	suspects, err := store.Find(ctx, "intel", core.Pattern{
		Subject:   core.P(rdfterm.NewURI("http://www.us.gov#files")),
		Predicate: core.P(rdfterm.NewURI("http://www.us.gov#terrorSuspect")),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, ts := range suspects {
		info, err := store.LinkInfo(ts.TID)
		if err != nil {
			log.Fatal(err)
		}
		obj, _ := ts.GetObject()
		level := "FACT (direct)"
		if info.Context == core.ContextIndirect {
			level = "HEARSAY (implied — weigh by trust in its sources)"
		}
		sources, _ := store.Assertions("intel", ts.TID)
		var names []string
		for _, s := range sources {
			if s.Property.Value == "http://www.us.gov#source" {
				names = append(names, aliases.Compact(s.Subject.Value))
			}
		}
		fmt.Printf("  %-14s %-50s sources=%v\n", aliases.Compact(obj), level, names)
	}

	// 4. Storage accounting: every reification cost exactly one row.
	stats, err := store.ModelStatistics("intel")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstorage: %d rows total, %d reification rows (1 per reified statement; a quad scheme would need %d)\n",
		stats.Triples, stats.Reified, 4*stats.Reified)
}
