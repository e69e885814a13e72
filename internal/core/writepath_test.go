package core

import (
	"fmt"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// linkIndexMutations sums the B-tree mutation counts of every rdf_link$
// index, the hidden partition index included.
func linkIndexMutations(s *Store) uint64 {
	var n uint64
	for _, name := range []string{"__part$MODEL_ID", idxLinkPK, idxLinkMSPO, idxLinkMP, idxLinkMO, idxLinkStart, idxLinkEnd} {
		n += s.links.MustIndex(name).Mutations()
	}
	return n
}

// TestRepeatedTripleTouchesNoIndex: inserting a stored triple again bumps
// COST, and asserting an implied one upgrades CONTEXT I → D (§4, §5.2).
// Neither column is indexed, so all seven rdf_link$ trees — and
// rdf_node$'s and rdf_value$'s — must be left exactly as they were.
func TestRepeatedTripleTouchesNoIndex(t *testing.T) {
	s := newStoreWithModel(t, "m")
	sub, prop, obj := rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), rdfterm.NewTypedLiteral("07", rdfterm.XSDInt)
	first, err := s.InsertImplied("m", sub, prop, obj)
	if err != nil {
		t.Fatal(err)
	}
	others := func() uint64 {
		return s.nodePK.Mutations() + s.valuePK.Mutations() + s.valueText.Mutations()
	}
	links, rest := linkIndexMutations(s), others()
	if links != 7 {
		t.Fatalf("one new link made %d B-tree mutations, want 7 (one per rdf_link$ index)", links)
	}

	again, err := s.InsertTerms("m", sub, prop, obj) // COST 2, I → D
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.InsertBatch("m", []BatchTriple{{Subject: sub, Predicate: prop, Object: obj}}) // COST 3
	if err != nil {
		t.Fatal(err)
	}
	if again.TID != first.TID || res.Triples[0].TID != first.TID || res.NewLinks != 0 {
		t.Fatalf("repeats got LINK_IDs %d, %d (new links %d), first was %d", again.TID, res.Triples[0].TID, res.NewLinks, first.TID)
	}
	if got := linkIndexMutations(s) - links; got != 0 {
		t.Errorf("two repeated inserts made %d rdf_link$ B-tree mutations, want 0", got)
	}
	if got := others() - rest; got != 0 {
		t.Errorf("two repeated inserts made %d rdf_node$/rdf_value$ B-tree mutations, want 0", got)
	}
	info, err := s.LinkInfo(first.TID)
	if err != nil || info.Cost != 3 || info.Context != ContextDirect {
		t.Fatalf("LinkInfo = %+v, %v; want COST 3, CONTEXT D", info, err)
	}
	if next, _ := s.InsertTerms("m", sub, prop, rdfterm.NewURI("http://o2")); next.TID != first.TID+1 {
		t.Errorf("LINK_ID after the repeats = %d, want %d: a repeat must not consume one", next.TID, first.TID+1)
	}
	assertInvariants(t, s)
}

// TestInsertBatchAllocBudget holds the line on allocations per triple of a
// WAL-less InsertBatch of new triples (subject and object new, so two new
// values and two new nodes each): the kept copies of one rdf_link$, two
// rdf_value$ and two rdf_node$ rows and an rdf_value_text key per value —
// seven — plus amortised growth, 7.9 measured. Index entries, probes and
// the dictionary key cost none. (Before packed keys and the one-descent
// insert: 42.3.)
func TestInsertBatchAllocBudget(t *testing.T) {
	const batchLen, runs = 256, 20
	s := newStoreWithModel(t, "m")
	pred := rdfterm.NewURI("http://p")
	batches := make([][]BatchTriple, runs+1) // AllocsPerRun warms up with one extra run
	for b := range batches {
		for i := 0; i < batchLen; i++ {
			n := b*batchLen + i
			batches[b] = append(batches[b], BatchTriple{
				Subject:   rdfterm.NewURI(fmt.Sprintf("http://s/%d", n)),
				Predicate: pred,
				Object:    rdfterm.NewLiteral(fmt.Sprintf("value %d", n)),
			})
		}
	}
	next := 0
	perBatch := testing.AllocsPerRun(runs, func() {
		if _, err := s.InsertBatch("m", batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perTriple := perBatch / batchLen; perTriple > 9 {
		t.Errorf("InsertBatch: %.1f allocations per new triple, budget 9", perTriple)
	}
	if got := s.TotalTriples(); got != (runs+1)*batchLen {
		t.Fatalf("stored %d triples, want %d", got, (runs+1)*batchLen)
	}
}

// TestFindReadsRowsInPlace: the single-pattern read path visits index
// entries and rows without copying either.
func TestFindReadsRowsInPlace(t *testing.T) {
	s := newStoreWithModel(t, "m")
	sub := rdfterm.NewURI("http://s")
	for i := 0; i < 24; i++ {
		if _, err := s.InsertTerms("m", sub, rdfterm.NewURI(fmt.Sprintf("http://p/%d", i)), rdfterm.NewLiteral("v")); err != nil {
			t.Fatal(err)
		}
	}
	mid, _ := s.GetModelID("m")
	sid, _ := s.lookupValueIDLocked(sub)
	rows := 0
	if got := testing.AllocsPerRun(100, func() {
		s.linkMSPO.ScanIntsRows([]int64{mid, sid}, func(reldb.RowID, reldb.Row) bool { rows++; return true })
	}); got > 0 || rows == 0 {
		t.Errorf("ScanIntsRows over a subject's %d links: %.0f allocations, budget 0", rows/101, got)
	}
}
