package repro

// Cross-module integration tests: generator → serializer → bulk loader →
// store → match/inference/NDM, and cross-checks between the object store
// and the Jena baselines over identical data.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/inference"
	"repro/internal/match"
	"repro/internal/ndm"
	"repro/internal/ntriples"
	"repro/internal/rdfterm"
	"repro/internal/rdfxml"
	"repro/internal/reify"
	"repro/internal/uniprot"
)

// TestPipelineGenerateSerializeLoadQuery drives the full data path: the
// UniProt generator emits N-Triples with reification quads expanded the
// naïve way; the loader folds them back into DBUri reifications; queries
// then see the paper's probe results.
func TestPipelineGenerateSerializeLoadQuery(t *testing.T) {
	// Generate 2k triples; serialize with reification quads expanded.
	var buf bytes.Buffer
	w := ntriples.NewWriter(&buf)
	quadSeq := 0
	_, err := uniprot.Stream(uniprot.Config{Triples: 2000, Reified: 80, Seed: 11},
		func(tr ntriples.Triple, doReify bool) error {
			if err := w.Write(tr); err != nil {
				return err
			}
			if !doReify {
				return nil
			}
			// Expand the quad as a naïve serializer would.
			quadSeq++
			r := rdfterm.NewURI(fmt.Sprintf("http://reif/%d", quadSeq))
			for _, q := range []ntriples.Triple{
				{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFType), Object: rdfterm.NewURI(rdfterm.RDFStatement)},
				{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFSubject), Object: tr.Subject},
				{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFPredicate), Object: tr.Predicate},
				{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFObject), Object: tr.Object},
			} {
				if err := w.Write(q); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Load with quad folding.
	store := core.New()
	if _, err := store.CreateRDFModel("up", "", ""); err != nil {
		t.Fatal(err)
	}
	loader := &reify.Loader{Store: store, Model: "up"}
	stats, err := loader.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuadsFolded != quadSeq {
		t.Fatalf("folded %d quads, want %d", stats.QuadsFolded, quadSeq)
	}
	// Store rows = base triples + one reification row per quad (the quads'
	// 4x expansion collapsed).
	n, _ := store.NumTriples("up")
	if n != 2000+quadSeq {
		t.Fatalf("stored rows = %d, want %d", n, 2000+quadSeq)
	}
	// The probe statement is reified; its base CONTEXT is D (it was
	// asserted directly in the stream).
	ok, err := store.IsReified("up", uniprot.ProbeSubject, uniprot.SeeAlso, uniprot.ProbeSeeAlso, nil)
	if err != nil || !ok {
		t.Fatalf("probe IsReified = %v, %v", ok, err)
	}
	ts, found, _ := store.IsTriple("up", uniprot.ProbeSubject, uniprot.SeeAlso, uniprot.ProbeSeeAlso, nil)
	if !found {
		t.Fatal("probe base triple missing")
	}
	info, _ := store.LinkInfo(ts.TID)
	if info.Context != core.ContextDirect {
		t.Fatalf("probe CONTEXT = %s", info.Context)
	}
	// Subject query returns the probe's 24 rows.
	rows, err := store.Find(context.Background(), "up", core.Pattern{Subject: core.P(rdfterm.NewURI(uniprot.ProbeSubject))})
	if err != nil || len(rows) != uniprot.ProbeRows {
		t.Fatalf("probe rows = %d, %v", len(rows), err)
	}
	for _, ts := range rows {
		if _, err := ts.GetTriple(); err != nil {
			t.Fatal(err)
		}
	}
	// Match sees the same rows.
	rs, err := match.MatchContext(context.Background(), store, fmt.Sprintf("(<%s> ?p ?o)", uniprot.ProbeSubject),
		match.Options{Models: []string{"up"}})
	if err != nil || rs.Len() != uniprot.ProbeRows {
		t.Fatalf("match rows = %d, %v", rs.Len(), err)
	}
}

// TestCoreVsJenaFindEquivalence loads identical data into the object store
// and both Jena baselines and checks all three agree on every query shape.
func TestCoreVsJenaFindEquivalence(t *testing.T) {
	triples, _, err := uniprot.Generate(uniprot.Config{Triples: 1500, Reified: 0, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	store := core.New()
	if _, err := store.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	j1 := experiments.NewJena1Store()
	j2 := experiments.NewJena2Store()
	if err := j2.CreateModel("m"); err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples {
		if _, err := store.InsertTerms("m", tr.T.Subject, tr.T.Predicate, tr.T.Object); err != nil {
			t.Fatal(err)
		}
		st := experiments.Statement{Subject: tr.T.Subject, Predicate: tr.T.Predicate, Object: tr.T.Object}
		if err := j1.Add(st); err != nil {
			t.Fatal(err)
		}
		if err := j2.Add("m", st); err != nil {
			t.Fatal(err)
		}
	}

	canonCore := func(ts []core.TripleS) []string {
		var out []string
		for _, x := range ts {
			tr, err := x.GetTriple()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tr.Subject.String()+"|"+tr.Property.String()+"|"+tr.Object.String())
		}
		sort.Strings(out)
		return out
	}
	canonJena := func(ss []experiments.Statement) []string {
		var out []string
		for _, s := range ss {
			out = append(out, s.Subject.String()+"|"+s.Predicate.String()+"|"+s.Object.String())
		}
		sort.Strings(out)
		return out
	}

	sub := rdfterm.NewURI(uniprot.ProbeSubject)
	pred := rdfterm.NewURI(uniprot.SeeAlso)
	obj := rdfterm.NewURI(uniprot.ProbeSeeAlso)
	queries := []core.Pattern{
		{Subject: &sub},
		{Predicate: &pred},
		{Object: &obj},
		{Subject: &sub, Predicate: &pred},
	}
	for qi, q := range queries {
		coreRes, err := store.Find(context.Background(), "m", q)
		if err != nil {
			t.Fatal(err)
		}
		j1Res, err := j1.Find(q.Subject, q.Predicate, q.Object)
		if err != nil {
			t.Fatal(err)
		}
		j2Res, err := j2.Find("m", q.Subject, q.Predicate, q.Object)
		if err != nil {
			t.Fatal(err)
		}
		c, a, b := canonCore(coreRes), canonJena(j1Res), canonJena(j2Res)
		if strings.Join(c, ";") != strings.Join(a, ";") {
			t.Errorf("query %d: core (%d rows) != jena1 (%d rows)", qi, len(c), len(a))
		}
		if strings.Join(c, ";") != strings.Join(b, ";") {
			t.Errorf("query %d: core (%d rows) != jena2 (%d rows)", qi, len(c), len(b))
		}
	}
}

// TestInferenceOverLoadedCorpus builds a protein-class hierarchy on top of
// loaded UniProt-like data and checks RDFS typing propagates.
func TestInferenceOverLoadedCorpus(t *testing.T) {
	store := core.New()
	if _, err := store.CreateRDFModel("up", "", ""); err != nil {
		t.Fatal(err)
	}
	triples, _, _ := uniprot.Generate(uniprot.Config{Triples: 500, Reified: 0, Seed: 3})
	for _, tr := range triples {
		if _, err := store.InsertTerms("up", tr.T.Subject, tr.T.Predicate, tr.T.Object); err != nil {
			t.Fatal(err)
		}
	}
	// Ontology: up:Protein ⊂ up:Macromolecule.
	if _, err := store.InsertTerms("up",
		rdfterm.NewURI(uniprot.ProteinType),
		rdfterm.NewURI(rdfterm.RDFSSubClassOf),
		rdfterm.NewURI(uniprot.CoreNS+"Macromolecule")); err != nil {
		t.Fatal(err)
	}
	cat := inference.NewCatalog(store)
	if _, err := cat.CreateRulesIndex(context.Background(), "upix", []string{"up"}, []string{inference.RDFSRulebaseName}); err != nil {
		t.Fatal(err)
	}
	rs, err := match.MatchContext(context.Background(), store,
		fmt.Sprintf("(?x rdf:type <%sMacromolecule>)", uniprot.CoreNS),
		match.Options{
			Models:    []string{"up"},
			Rulebases: []string{inference.RDFSRulebaseName},
			Resolver:  cat,
		})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("no proteins inferred as macromolecules")
	}
	// Every result must actually be typed up:Protein in the base model.
	for i := 0; i < rs.Len(); i++ {
		x, _ := rs.Get(i, "x")
		if _, ok, _ := store.IsTripleTerms("up", x,
			rdfterm.NewURI(rdfterm.RDFType), rdfterm.NewURI(uniprot.ProteinType)); !ok {
			t.Errorf("%v inferred without base typing", x)
		}
	}
}

// TestNetworkAnalysisOverLoadedData checks that NDM operations run over
// RDF data loaded through the normal insert path.
func TestNetworkAnalysisOverLoadedData(t *testing.T) {
	store := core.New()
	if _, err := store.CreateRDFModel("up", "", ""); err != nil {
		t.Fatal(err)
	}
	triples, _, _ := uniprot.Generate(uniprot.Config{Triples: 300, Reified: 0, Seed: 4})
	for _, tr := range triples {
		if _, err := store.InsertTerms("up", tr.T.Subject, tr.T.Predicate, tr.T.Object); err != nil {
			t.Fatal(err)
		}
	}
	net, err := store.Network("up")
	if err != nil {
		t.Fatal(err)
	}
	probeID, ok := net.NodeID(rdfterm.NewURI(uniprot.ProbeSubject))
	if !ok {
		t.Fatal("probe node missing from network")
	}
	// Probe has 24 outgoing links (its triples) and reaches its objects.
	_, out := ndm.Degree(net, probeID)
	if out != uniprot.ProbeRows {
		t.Fatalf("probe out-degree = %d, want %d", out, uniprot.ProbeRows)
	}
	reach, err := ndm.ReachableCtx(context.Background(), net, probeID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reach) == 0 || len(reach) > uniprot.ProbeRows {
		t.Fatalf("probe reachable set = %d", len(reach))
	}
	comps, err := ndm.ConnectedComponents(context.Background(), net)
	if err != nil || len(comps) == 0 {
		t.Fatalf("no components: %v", err)
	}
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != store.NumNodes() {
		t.Fatalf("components cover %d nodes, store has %d", total, store.NumNodes())
	}
}

// TestDeleteKeepsSystemsConsistent deletes triples and re-checks queries,
// reification state, and the network view.
func TestDeleteKeepsSystemsConsistent(t *testing.T) {
	store := core.New()
	if _, err := store.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	a := rdfterm.Default().With(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"})
	ts, err := store.NewTripleS("m", "x:a", "x:p", "x:b", a)
	if err != nil {
		t.Fatal(err)
	}
	store.NewTripleS("m", "x:b", "x:p", "x:c", a)
	if _, err := store.Reify("m", ts.TID); err != nil {
		t.Fatal(err)
	}
	// Delete the base triple: reification row remains (dangling DBUri is
	// possible, as in Oracle where cleanup is the application's job), but
	// the base is gone from queries.
	if err := store.DeleteTriple("m", "x:a", "x:p", "x:b", a); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := store.IsTriple("m", "x:a", "x:p", "x:b", a); ok {
		t.Fatal("deleted triple still visible")
	}
	rs, err := match.MatchContext(context.Background(), store, "(?s ?p ?o)", match.Options{Models: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rs.Len(); i++ {
		s, _ := rs.Get(i, "s")
		if s.Value == "http://x#a" {
			t.Fatal("deleted subject appears in match results")
		}
	}
	net, _ := store.Network("m")
	if _, ok := net.NodeID(rdfterm.NewURI("http://x#a")); ok {
		// Node a should be gone (only link referencing it was deleted).
		t.Log("note: node a still present (value interning keeps text)")
	}
}

// TestReificationSchemesAgree cross-validates the streamlined DBUri scheme
// against the naive quad baseline: on identical random data with an
// identical reification choice, IsReified must answer the same for every
// statement.
func TestReificationSchemesAgree(t *testing.T) {
	store := core.New()
	if _, err := store.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	js := experiments.NewJena2Store()
	if err := js.CreateModel("m"); err != nil {
		t.Fatal(err)
	}
	quad := experiments.NewQuadReifier(js, "m")

	rng := func(i int) bool { return i%3 == 0 } // deterministic "random" choice
	type stmt struct {
		s, p, o string
		reified bool
	}
	var stmts []stmt
	for i := 0; i < 60; i++ {
		st := stmt{
			s:       fmt.Sprintf("http://s/%d", i%20),
			p:       fmt.Sprintf("http://p/%d", i%5),
			o:       fmt.Sprintf("http://o/%d", i),
			reified: rng(i),
		}
		stmts = append(stmts, st)
		ts, err := store.NewTripleS("m", st.s, st.p, st.o, nil)
		if err != nil {
			t.Fatal(err)
		}
		jst := experiments.Statement{
			Subject:   rdfterm.NewURI(st.s),
			Predicate: rdfterm.NewURI(st.p),
			Object:    rdfterm.NewURI(st.o),
		}
		if err := js.Add("m", jst); err != nil {
			t.Fatal(err)
		}
		if st.reified {
			if _, err := store.Reify("m", ts.TID); err != nil {
				t.Fatal(err)
			}
			if _, err := quad.Reify(jst); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range stmts {
		coreGot, err := store.IsReified("m", st.s, st.p, st.o, nil)
		if err != nil {
			t.Fatal(err)
		}
		quadGot, err := quad.IsReified(experiments.Statement{
			Subject:   rdfterm.NewURI(st.s),
			Predicate: rdfterm.NewURI(st.p),
			Object:    rdfterm.NewURI(st.o),
		})
		if err != nil {
			t.Fatal(err)
		}
		if coreGot != quadGot || coreGot != st.reified {
			t.Fatalf("disagreement on <%s %s %s>: core=%v quad=%v want=%v",
				st.s, st.p, st.o, coreGot, quadGot, st.reified)
		}
	}
}

// TestRDFXMLThroughFullStack: RDF/XML → parse → fold → store → match.
func TestRDFXMLThroughFullStack(t *testing.T) {
	doc := `<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                  xmlns:gov="http://www.us.gov#">
  <rdf:Description rdf:about="http://www.us.gov#files">
    <gov:terrorSuspect rdf:ID="c1" rdf:resource="http://www.us.id#JohnDoe"/>
    <gov:terrorSuspect rdf:resource="http://www.us.id#JaneDoe"/>
  </rdf:Description>
</rdf:RDF>`
	triples, err := rdfxml.Parse(strings.NewReader(doc), rdfxml.Options{Base: "http://base"})
	if err != nil {
		t.Fatal(err)
	}
	store := core.New()
	if _, err := store.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	loader := &reify.Loader{Store: store, Model: "m"}
	stats, err := loader.LoadTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuadsFolded != 1 {
		t.Fatalf("folded = %d", stats.QuadsFolded)
	}
	// The rdf:ID statement is reified; the other is not.
	got, _ := store.IsReified("m", "http://www.us.gov#files", "http://www.us.gov#terrorSuspect", "http://www.us.id#JohnDoe", nil)
	if !got {
		t.Fatal("rdf:ID statement not reified after fold")
	}
	got, _ = store.IsReified("m", "http://www.us.gov#files", "http://www.us.gov#terrorSuspect", "http://www.us.id#JaneDoe", nil)
	if got {
		t.Fatal("plain statement reified")
	}
	rs, err := match.MatchContext(context.Background(), store, `(?s <http://www.us.gov#terrorSuspect> ?o)`, match.Options{Models: []string{"m"}})
	if err != nil || rs.Len() != 2 {
		t.Fatalf("match rows = %d, %v", rs.Len(), err)
	}
}
