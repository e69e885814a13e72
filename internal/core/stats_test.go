package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ntriples"
	"repro/internal/rdfterm"
	"repro/internal/uniprot"
)

// TestPlanStatisticsCounts: a small known dataset must produce exact
// counts, per-predicate histograms, and distinct cardinalities.
func TestPlanStatisticsCounts(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	// p1: 3 links, 2 distinct subjects, 3 distinct objects.
	s.NewTripleS("m", "gov:s1", "gov:p1", "gov:o1", a)
	s.NewTripleS("m", "gov:s1", "gov:p1", "gov:o2", a)
	s.NewTripleS("m", "gov:s2", "gov:p1", "gov:o3", a)
	// p2: 2 links, 2 distinct subjects, 1 distinct object.
	s.NewTripleS("m", "gov:s1", "gov:p2", `"common"`, a)
	s.NewTripleS("m", "gov:s3", "gov:p2", `"common"`, a)

	ps, err := s.PlanStatistics(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Triples != 5 {
		t.Fatalf("Triples = %d, want 5", ps.Triples)
	}
	if ps.DistinctSubjects != 3 {
		t.Fatalf("DistinctSubjects = %d, want 3 (s1,s2,s3)", ps.DistinctSubjects)
	}
	if ps.DistinctObjects != 4 {
		t.Fatalf("DistinctObjects = %d, want 4 (o1,o2,o3,common)", ps.DistinctObjects)
	}
	if len(ps.Preds) != 2 {
		t.Fatalf("Preds has %d entries, want 2", len(ps.Preds))
	}
	var pid1, pid2 int64
	err = s.ReadView(context.Background(), func(tx *ReadTx) error {
		var ok bool
		if pid1, ok = tx.PredicateIDLocked(rdfterm.NewURI("http://www.us.gov#p1")); !ok {
			t.Fatal("p1 not interned")
		}
		if pid2, ok = tx.PredicateIDLocked(rdfterm.NewURI("http://www.us.gov#p2")); !ok {
			t.Fatal("p2 not interned")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ps.Pred(pid1); st.Count != 3 || st.DistinctSubjects != 2 || st.DistinctObjects != 3 {
		t.Fatalf("p1 stats = %+v, want {3 2 3}", st)
	}
	if st := ps.Pred(pid2); st.Count != 2 || st.DistinctSubjects != 2 || st.DistinctObjects != 1 {
		t.Fatalf("p2 stats = %+v, want {2 2 1}", st)
	}
	// Unknown predicate: zero stats, not a panic.
	if st := ps.Pred(999999); st.Count != 0 {
		t.Fatalf("unknown pid stats = %+v, want zero", st)
	}
}

// TestPlanStatisticsCanonicalObjects: distinct objects count canonical
// forms — "025"^^int and "25"^^int are one object, not two.
func TestPlanStatisticsCanonicalObjects(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	s.NewTripleS("m", "gov:s1", "gov:p", `"25"^^xsd:int`, a)
	s.NewTripleS("m", "gov:s2", "gov:p", `"025"^^xsd:int`, a)
	ps, err := s.PlanStatistics(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Triples != 2 || ps.DistinctObjects != 1 {
		t.Fatalf("stats = {Triples %d, DistinctObjects %d}, want {2, 1}", ps.Triples, ps.DistinctObjects)
	}
}

// TestPlanStatisticsEmptyAndMissing: an empty model yields zero stats;
// an unknown model yields the usual no-such-model error.
func TestPlanStatisticsEmptyAndMissing(t *testing.T) {
	s := newStoreWithModel(t, "m")
	ps, err := s.PlanStatistics(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Triples != 0 || ps.DistinctSubjects != 0 || len(ps.Preds) != 0 {
		t.Fatalf("empty model stats = %+v, want zeros", ps)
	}
	if _, err := s.PlanStatistics(context.Background(), "nope"); err == nil {
		t.Fatal("PlanStatistics on unknown model succeeded")
	}
}

// TestPlanStatsCacheStaleness: the cache serves the same snapshot while
// the store grows less than 1/8, and rebuilds once drift crosses the
// threshold.
func TestPlanStatsCacheStaleness(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	for i := 0; i < 64; i++ {
		s.NewTripleS("m", fmt.Sprintf("gov:s%d", i), "gov:p", fmt.Sprintf("gov:o%d", i), a)
	}
	ps1, err := s.PlanStatistics(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if ps1.Triples != 64 {
		t.Fatalf("Triples = %d, want 64", ps1.Triples)
	}
	// Grow by 4 (6.25% < 12.5%): cache must serve the stale snapshot.
	for i := 0; i < 4; i++ {
		s.NewTripleS("m", fmt.Sprintf("gov:t%d", i), "gov:p", fmt.Sprintf("gov:u%d", i), a)
	}
	ps2, err := s.PlanStatistics(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if ps2.Triples != 64 {
		t.Fatalf("within drift: Triples = %d, want cached 64", ps2.Triples)
	}
	// Grow past the 1/8 threshold: rebuild.
	for i := 4; i < 16; i++ {
		s.NewTripleS("m", fmt.Sprintf("gov:t%d", i), "gov:p", fmt.Sprintf("gov:u%d", i), a)
	}
	ps3, err := s.PlanStatistics(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if ps3.Triples != 80 {
		t.Fatalf("past drift: Triples = %d, want rebuilt 80", ps3.Triples)
	}
}

// TestReadViewCancellation: a canceled context fails the view up front,
// and a scan inside the view aborts once the poll notices the cancel.
func TestReadViewCancellation(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	for i := 0; i < 2000; i++ {
		s.NewTripleS("m", fmt.Sprintf("gov:s%d", i), "gov:p", fmt.Sprintf("gov:o%d", i), a)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.ReadView(ctx, func(tx *ReadTx) error { return nil }); err == nil {
		t.Fatal("ReadView accepted a canceled context")
	}
	// Cancel mid-view: the next CollectLinksLocked scan must return the
	// context error instead of completing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	err := s.ReadView(ctx2, func(tx *ReadTx) error {
		mid, err := tx.ModelIDLocked("m")
		if err != nil {
			return err
		}
		cancel2()
		_, err = tx.CollectLinksLocked(nil, mid, 0, 0, 0)
		return err
	})
	if err == nil {
		t.Fatal("scan under canceled context completed")
	}
	if context.Cause(ctx2) == nil {
		t.Fatal("test bug: ctx2 not canceled")
	}
}

// TestCollectLinksIndexPaths: every index-selection branch of
// CollectLinksLocked — MSPO full, MSPO with residual object, MP, MP with
// residual, MO, and the partition scan — must return exact matches.
func TestCollectLinksIndexPaths(t *testing.T) {
	s := newStoreWithModel(t, "m", "other")
	a := govAliases()
	s.NewTripleS("m", "gov:s1", "gov:p1", "gov:o1", a)
	s.NewTripleS("m", "gov:s1", "gov:p2", "gov:o1", a)
	s.NewTripleS("m", "gov:s1", "gov:p2", "gov:o2", a)
	s.NewTripleS("m", "gov:s2", "gov:p1", "gov:o2", a)
	// A decoy in another model: partition pruning must hide it.
	s.NewTripleS("other", "gov:s1", "gov:p1", "gov:o1", a)

	ctx := context.Background()
	err := s.ReadView(ctx, func(tx *ReadTx) error {
		mid, err := tx.ModelIDLocked("m")
		if err != nil {
			return err
		}
		id := func(u string) int64 {
			v, ok := tx.SubjectIDLocked(mid, rdfterm.NewURI("http://www.us.gov#"+u))
			if !ok {
				t.Fatalf("%s not interned", u)
			}
			return v
		}
		pidOf := func(u string) int64 {
			v, ok := tx.PredicateIDLocked(rdfterm.NewURI("http://www.us.gov#" + u))
			if !ok {
				t.Fatalf("%s not interned", u)
			}
			return v
		}
		s1, s2 := id("s1"), id("s2")
		p1, p2 := pidOf("p1"), pidOf("p2")
		o1, ok := tx.ObjectCanonIDLocked(mid, rdfterm.NewURI("http://www.us.gov#o1"))
		if !ok {
			t.Fatal("o1 not interned")
		}
		count := func(sid, pid, canon int64) int {
			got, err := tx.CollectLinksLocked(nil, mid, sid, pid, canon)
			if err != nil {
				t.Fatal(err)
			}
			return len(got)
		}
		cases := []struct {
			name            string
			sid, pid, canon int64
			want            int
		}{
			{"MSPO full (s1,p2,o2)", s1, p2, -1, 1}, // canon filled below
			{"MSPO subject only (s1)", s1, 0, 0, 3},
			{"MSPO s+p (s1,p2)", s1, p2, 0, 2},
			{"MSPO residual object (s1,?,o1)", s1, 0, o1, 2},
			{"MP (p1)", 0, p1, 0, 2},
			{"MP residual (p1,o1)", 0, p1, o1, 1},
			{"MO (o1)", 0, 0, o1, 2},
			{"partition scan (all)", 0, 0, 0, 4},
			{"no match (s2,p2)", s2, p2, 0, 0},
		}
		o2, ok := tx.ObjectCanonIDLocked(mid, rdfterm.NewURI("http://www.us.gov#o2"))
		if !ok {
			t.Fatal("o2 not interned")
		}
		cases[0].canon = o2
		for _, c := range cases {
			if got := count(c.sid, c.pid, c.canon); got != c.want {
				t.Errorf("%s: %d links, want %d", c.name, got, c.want)
			}
		}
		// Contains: exact probe hits and misses.
		if !tx.ContainsLinkLocked(mid, s1, p1, o1) {
			t.Error("ContainsLinkLocked missed (s1,p1,o1)")
		}
		if tx.ContainsLinkLocked(mid, s2, p2, o1) {
			t.Error("ContainsLinkLocked found nonexistent (s2,p2,o1)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBuildPlanStats is what the first query after the statistics go
// stale pays under the read lock: one walk of a 65k-link partition, reading
// the three ID columns the statistics are made of.
func BenchmarkBuildPlanStats(b *testing.B) {
	s := New()
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		b.Fatal(err)
	}
	var batch []BatchTriple
	if _, err := uniprot.Stream(uniprot.Config{Triples: 65_000, Seed: 1}, func(t ntriples.Triple, _ bool) error {
		batch = append(batch, BatchTriple{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object})
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.InsertBatch("m", batch); err != nil {
		b.Fatal(err)
	}
	mid, _ := s.GetModelID("m")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.mu.RLock()
		ps := s.buildPlanStatsLocked(mid)
		s.mu.RUnlock()
		if ps.Triples != len(batch) {
			b.Fatalf("statistics over %d links, want %d", ps.Triples, len(batch))
		}
	}
}
