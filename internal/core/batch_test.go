package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/wal"
)

// batchWorkload builds a batch exercising repeats (cost bump), typed
// literals with distinct canonical forms, language tags, blanks (reused
// within the batch), and implied statements.
func batchWorkload() []BatchTriple {
	uri := rdfterm.NewURI
	return []BatchTriple{
		{Subject: uri("http://g/files"), Predicate: uri("http://g/suspect"), Object: uri("http://id/JohnDoe")},
		{Subject: uri("http://g/files"), Predicate: uri("http://g/suspect"), Object: uri("http://id/JohnDoe")}, // repeat
		{Subject: uri("http://g/files"), Predicate: uri("http://g/caseCount"),
			Object: rdfterm.NewTypedLiteral("01", rdfterm.XSDInt)}, // canonical form differs
		{Subject: uri("http://id/JohnDoe"), Predicate: uri("http://g/alias"),
			Object: rdfterm.NewLangLiteral("Jean Dupont", "fr")},
		{Subject: rdfterm.NewBlank("b1"), Predicate: uri("http://g/knows"), Object: uri("http://id/JohnDoe")},
		{Subject: rdfterm.NewBlank("b1"), Predicate: uri("http://g/age"),
			Object: rdfterm.NewTypedLiteral("44", rdfterm.XSDInt)}, // blank reuse
		{Subject: uri("http://g/x"), Predicate: uri("http://g/said"), Object: uri("http://g/y"), Implied: true},
	}
}

// TestInsertBatchMatchesPerTriple: a batch insert must leave the store
// in exactly the state a per-triple insert sequence would — byte for
// byte, via the snapshot fingerprint.
func TestInsertBatchMatchesPerTriple(t *testing.T) {
	batch := batchWorkload()

	one := New()
	if _, err := one.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	for i, bt := range batch {
		var err error
		if bt.Implied {
			_, err = one.InsertImplied("m", bt.Subject, bt.Predicate, bt.Object)
		} else {
			_, err = one.InsertTerms("m", bt.Subject, bt.Predicate, bt.Object)
		}
		if err != nil {
			t.Fatalf("per-triple insert %d: %v", i, err)
		}
	}

	many := New()
	if _, err := many.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	res, err := many.InsertBatchCtx(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != len(batch) {
		t.Fatalf("got %d result triples, want %d", len(res.Triples), len(batch))
	}
	if res.NewLinks != len(batch)-1 { // one repeat
		t.Fatalf("NewLinks = %d, want %d", res.NewLinks, len(batch)-1)
	}
	if res.Triples[0].TID != res.Triples[1].TID {
		t.Fatal("repeated statement did not share a TID")
	}

	var a, b bytes.Buffer
	if err := one.Save(&a, 0); err != nil {
		t.Fatal(err)
	}
	if err := many.Save(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("batch store state differs from per-triple store state")
	}
	if errs := many.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestInsertBatchCostAndContext: repeats bump COST; a direct batch entry
// upgrades an implied statement's context.
func TestInsertBatchCostAndContext(t *testing.T) {
	s := newStoreWithModel(t, "m")
	sub := rdfterm.NewURI("http://g/s")
	prop := rdfterm.NewURI("http://g/p")
	obj := rdfterm.NewURI("http://g/o")
	res, err := s.InsertBatchCtx(context.Background(), "m", []BatchTriple{
		{Subject: sub, Predicate: prop, Object: obj, Implied: true},
		{Subject: sub, Predicate: prop, Object: obj}, // upgrade I -> D, cost 2
		{Subject: sub, Predicate: prop, Object: obj}, // cost 3
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.LinkInfo(res.Triples[0].TID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cost != 3 {
		t.Fatalf("COST = %d, want 3", info.Cost)
	}
	if info.Context != ContextDirect {
		t.Fatalf("CONTEXT = %q, want %q", info.Context, ContextDirect)
	}
}

// TestInsertBatchWALReplay: one batch = one WAL commit; replaying the
// log reproduces the batch store exactly.
func TestInsertBatchWALReplay(t *testing.T) {
	s, log := walStore(t)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatchCtx(context.Background(), "m", batchWorkload()); err != nil {
		t.Fatal(err)
	}

	res, err := wal.ScanFile(filepath.Join(log.Path(), "wal-000001.log"))
	if err != nil || res.Truncated {
		t.Fatalf("scan: %v (truncated=%v)", err, res.Truncated)
	}
	rec := New()
	if err := rec.Replay(res.Records); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := s.Save(&want, 0); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("replayed store differs from batch-loaded store")
	}
	if errs := rec.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants after replay: %v", errs)
	}
}

// TestInsertBatchErrors: empty batches are no-ops, bad models and bad
// predicates report cleanly with the batch index.
func TestInsertBatchErrors(t *testing.T) {
	s := newStoreWithModel(t, "m")
	if _, err := s.InsertBatchCtx(context.Background(), "m", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := s.InsertBatchCtx(context.Background(), "nope", batchWorkload()); err == nil {
		t.Fatal("unknown model accepted")
	}
	_, err := s.InsertBatchCtx(context.Background(), "m", []BatchTriple{
		{Subject: rdfterm.NewURI("http://a"), Predicate: rdfterm.NewLiteral("notauri"), Object: rdfterm.NewURI("http://b")},
	})
	if err == nil {
		t.Fatal("literal predicate accepted")
	}
}

// TestTermDictionaryComplete pins the term dictionary's contract: it is
// unbounded and holds every rdf_value$ row however the store was built —
// live inserts, snapshot load, WAL replay — so the read side resolves a
// term, present or absent, with no text index behind it. (The 1 M-entry
// cache it replaces was dropped whole when full and fell back to one.)
func TestTermDictionaryComplete(t *testing.T) {
	s, log := walStore(t)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	var batch []BatchTriple
	subj := rdfterm.NewURI("http://hot/subject")
	pred := rdfterm.NewURI("http://hot/predicate")
	for i := 0; i < 200; i++ {
		batch = append(batch, BatchTriple{
			Subject:   subj,
			Predicate: pred,
			Object:    rdfterm.NewURI(fmt.Sprintf("http://obj/%d", i)),
		})
	}
	batch = append(batch, batchWorkload()...) // blanks, canonical forms, language tags
	res, err := s.InsertBatchCtx(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	// All hot statements share subject and predicate value IDs.
	for _, ts := range res.Triples[:200] {
		if ts.SID != res.Triples[0].SID || ts.PID != res.Triples[0].PID {
			t.Fatal("shared terms interned under different VALUE_IDs")
		}
	}

	var snap bytes.Buffer
	if err := s.Save(&snap, 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := recoverLog(t, "", log.Path())

	for name, st := range map[string]*Store{"live": s, "loaded": loaded, "replayed": replayed} {
		if errs := st.CheckInvariants(); len(errs) > 0 {
			t.Fatalf("%s: %v", name, errs)
		}
		if st.terms.n != st.NumValues() {
			t.Fatalf("%s: dictionary has %d entries, rdf_value$ %d rows", name, st.terms.n, st.NumValues())
		}
		// rdf_value$ has no text index: the dictionary alone resolves every
		// term and knows an absent one is absent.
		if _, err := st.values.Index("rdf_value_text"); !errors.Is(err, reldb.ErrNoSuchIndex) {
			t.Fatalf("%s: rdf_value$ still has a text index (%v)", name, err)
		}
		ts, ok, err := st.IsTripleTerms("m", subj, pred, rdfterm.NewURI("http://obj/7"))
		if err != nil || !ok || ts.SID != res.Triples[7].SID {
			t.Fatalf("%s: IsTripleTerms = %v ok=%v err=%v", name, ts, ok, err)
		}
		if _, ok, _ := st.IsTripleTerms("m", subj, pred, rdfterm.NewURI("http://obj/absent")); ok {
			t.Fatalf("%s: absent term resolved", name)
		}
		got, err := st.Find(context.Background(), "m", Pattern{Subject: &subj})
		if err != nil || len(got) != 200 {
			t.Fatalf("%s: Find by subject = %d triples, err %v", name, len(got), err)
		}
	}
}
