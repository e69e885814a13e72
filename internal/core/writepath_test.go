package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// linkIndexMutations sums the B-tree mutation counts of every rdf_link$
// index: three trees, and the LINK_ID sequence index, which has none.
func linkIndexMutations(s *Store) uint64 {
	var n uint64
	for _, name := range []string{idxLinkPK, idxLinkSMPO, idxLinkMP, idxLinkOM} {
		n += s.links.MustIndex(name).Mutations()
	}
	return n
}

// TestRepeatedTripleTouchesNoIndex: inserting a stored triple again bumps
// COST, and asserting an implied one upgrades CONTEXT I → D (§4, §5.2).
// Neither column is indexed, so all three rdf_link$ trees — and
// rdf_node$'s — must be left exactly as they were.
func TestRepeatedTripleTouchesNoIndex(t *testing.T) {
	s := newStoreWithModel(t, "m")
	sub, prop, obj := rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), rdfterm.NewTypedLiteral("07", rdfterm.XSDInt)
	first, err := s.InsertImplied("m", sub, prop, obj)
	if err != nil {
		t.Fatal(err)
	}
	others := func() uint64 {
		return s.nodePK.Mutations() + s.valuePK.Mutations()
	}
	links, rest := linkIndexMutations(s), others()
	if links != 3 {
		t.Fatalf("one new link made %d B-tree mutations, want 3 (one per rdf_link$ tree)", links)
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
// values and two new nodes each): amortised growth of the column vectors,
// the arenas, the trees and the dictionary, 0.22 measured. Rows, index
// entries, probes and dictionary entries cost none. (With a text-index key built per value:
// 2.6; with a kept copy of every row: 7.9; before packed keys and the
// one-descent insert: 42.3.)
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
	perTriple := perBatch / batchLen
	t.Logf("InsertBatch: %.2f allocations per new triple", perTriple)
	if perTriple > 1 {
		t.Errorf("InsertBatch: %.1f allocations per new triple, budget 1", perTriple)
	}
	if got := s.TotalTriples(); got != (runs+1)*batchLen {
		t.Fatalf("stored %d triples, want %d", got, (runs+1)*batchLen)
	}
}

// TestFindReadsRowsInPlace: the single-pattern read path visits index
// entries and rows' cells without copying either.
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
		s.linkSMPO.ScanIntsCells([]int64{sid, mid}, func(reldb.Cells) bool { rows++; return true })
	}); got > 0 || rows == 0 {
		t.Errorf("ScanIntsCells over a subject's %d links: %.0f allocations, budget 0", rows/101, got)
	}
}

// TestReadPathAllocBudget: the two reads every query is made of build
// nothing. GetValue hands out a term whose strings are the table's own
// bytes, and CollectLinksLocked reads five integers of each rdf_link$ row
// where they are stored — no Row is built for either.
func TestReadPathAllocBudget(t *testing.T) {
	s := newStoreWithModel(t, "m")
	sub := rdfterm.NewURI("http://s")
	for i := 0; i < 24; i++ {
		obj := rdfterm.NewTypedLiteral(fmt.Sprint(i), rdfterm.XSDInt)
		if _, err := s.InsertTerms("m", sub, rdfterm.NewURI(fmt.Sprintf("http://p/%d", i%6)), obj); err != nil {
			t.Fatal(err)
		}
	}
	mid, _ := s.GetModelID("m")
	sid, _ := s.lookupValueIDLocked(sub)
	oid, _ := s.lookupValueIDLocked(rdfterm.NewTypedLiteral("7", rdfterm.XSDInt))
	if got := testing.AllocsPerRun(200, func() {
		if v, err := s.GetValue(oid); err != nil || v.Value != "7" || v.Datatype != rdfterm.XSDInt {
			t.Fatalf("GetValue = %v, %v", v, err)
		}
	}); got > 0 {
		t.Errorf("GetValue: %.0f allocations, budget 0", got)
	}
	err := s.ReadView(context.Background(), func(tx *ReadTx) error {
		dst := make([]LinkIDs, 0, 64)
		for _, shape := range [][3]int64{{sid, 0, 0}, {0, 0, oid}, {0, 0, 0}} { // SMPO prefix, OM prefix, partition scan
			var rows int
			if got := testing.AllocsPerRun(200, func() {
				out, err := tx.CollectLinksLocked(dst[:0], mid, shape[0], shape[1], shape[2])
				if err != nil {
					t.Fatal(err)
				}
				rows = len(out)
			}); got > 0 || rows == 0 {
				t.Errorf("CollectLinksLocked%v over %d rows: %.0f allocations, budget 0", shape, rows, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDictionaryOwnsItsStrings: the term dictionary keeps row numbers, and
// compares a term against the row's own bytes in rdf_value$'s arena, so
// nothing the store keeps points into the buffer a caller's terms were cut
// from — a parser's input line, a request body. Here every term of a batch
// aliases one buffer, which is then overwritten: had the dictionary (or the
// table) kept the caller's strings, they would now read as garbage and
// every lookup below would miss.
func TestDictionaryOwnsItsStrings(t *testing.T) {
	s := newStoreWithModel(t, "m")
	var texts [][3]string
	var buf []byte
	for i := 0; i < 300; i++ {
		obj := fmt.Sprintf("value %d", i)
		if i%50 == 0 {
			obj = strings.Repeat("long ", 1000) + obj // spills into LONG_VALUE
		}
		tr := [3]string{fmt.Sprintf("http://s/%d", i/3), fmt.Sprintf("http://p/%d", i%7), obj}
		texts = append(texts, tr)
		buf = append(buf, tr[0]+tr[1]+tr[2]+"@en"...)
	}
	cut := func(n int) string { // the next n bytes of buf, in place
		str := unsafe.String(&buf[0], n)
		buf = buf[n:]
		return str
	}
	whole := buf
	batch := make([]BatchTriple, len(texts))
	for i, tr := range texts {
		batch[i] = BatchTriple{Subject: rdfterm.NewURI(cut(len(tr[0]))), Predicate: rdfterm.NewURI(cut(len(tr[1])))}
		batch[i].Object = rdfterm.Term{Kind: rdfterm.Literal, Value: cut(len(tr[2])), Language: cut(3)[1:]}
	}
	if _, err := s.InsertBatch("m", batch); err != nil {
		t.Fatal(err)
	}
	for i := range whole {
		whole[i] = '#'
	}
	for _, tr := range texts {
		want := []rdfterm.Term{rdfterm.NewURI(tr[0]), rdfterm.NewURI(tr[1]), {Kind: rdfterm.Literal, Value: tr[2], Language: "en"}}
		for _, term := range want {
			id, ok := s.lookupValueIDLocked(term)
			if !ok {
				t.Fatalf("%.40s is no longer in the dictionary", term.Value)
			}
			if got, err := s.GetValue(id); err != nil || got != term {
				t.Fatalf("VALUE_ID %d reads %.40v, %v; want %.40v", id, got, err, term)
			}
		}
		if _, ok, err := s.IsTripleTerms("m", want[0], want[1], want[2]); !ok || err != nil {
			t.Fatalf("triple %.60v: stored=%v, %v", tr, ok, err)
		}
	}
	assertInvariants(t, s) // invariant 8: dictionary == rdf_value$
}
