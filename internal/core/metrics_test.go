package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdfterm"
	"repro/internal/trace"
)

// TestStoreMetricsSeries: one instrumented batch insert populates the
// batch, cache, lock-wait, and triple-count series.
func TestStoreMetricsSeries(t *testing.T) {
	reg := obs.NewRegistry()
	s := New()
	s.SetMetrics(NewMetrics(reg))
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	batch := batchWorkload()
	if _, err := s.InsertBatchCtx(context.Background(), "m", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Find("m", Pattern{}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if c, ok := snap.Counter("core_insert_batches_total"); !ok || c.Value != 1 {
		t.Fatalf("core_insert_batches_total = %+v", c)
	}
	if h, ok := snap.Histogram("core_insert_batch_triples"); !ok || h.Count != 1 || h.Sum != float64(len(batch)) {
		t.Fatalf("core_insert_batch_triples = %+v", h)
	}
	hits, _ := snap.Counter("core_term_cache_hits_total")
	misses, _ := snap.Counter("core_term_cache_misses_total")
	// The workload repeats terms within the batch, so both sides of the
	// intern cache must have fired.
	if hits.Value == 0 || misses.Value == 0 {
		t.Fatalf("cache hits = %d, misses = %d; want both > 0", hits.Value, misses.Value)
	}
	if h, ok := snap.Histogram("core_write_lock_wait_seconds"); !ok || h.Count == 0 {
		t.Fatalf("core_write_lock_wait_seconds = %+v", h)
	}
	if h, ok := snap.Histogram("core_read_lock_wait_seconds"); !ok || h.Count == 0 {
		t.Fatalf("core_read_lock_wait_seconds = %+v", h)
	}
	if g, ok := snap.Gauge("core_triples"); !ok || g.Value == 0 {
		t.Fatalf("core_triples = %+v", g)
	}
}

// TestEveryMutationUpdatesStoreMetrics: every public mutator runs through
// the one commit point, which refreshes core_triples and times the write
// lock, so after each kind of mutation the gauge equals TotalTriples and
// core_write_lock_wait_seconds has one more observation.
func TestEveryMutationUpdatesStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New()
	s.SetMetrics(NewMetrics(reg))
	a := govAliases()
	uri := rdfterm.NewURI
	var base TripleS
	var bag rdfterm.Term
	steps := []struct {
		name string
		do   func() error
	}{
		{"CreateRDFModel", func() error { _, err := s.CreateRDFModel("gov", "", ""); return err }},
		{"CreateRDFModel", func() error { _, err := s.CreateRDFModel("tmp", "", ""); return err }},
		{"NewTripleS", func() (err error) {
			base, err = s.NewTripleS("gov", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
			return err
		}},
		{"InsertTerms", func() error {
			_, err := s.InsertTerms("tmp", uri("http://s"), uri("http://p"), uri("http://o"))
			return err
		}},
		{"InsertImplied", func() error {
			_, err := s.InsertImplied("gov", uri("http://s"), uri("http://p"), uri("http://o"))
			return err
		}},
		{"Reify", func() error { _, err := s.Reify("gov", base.TID); return err }},
		{"AssertAboutTriple", func() error { _, err := s.AssertAboutTriple("gov", "gov:MI5", "gov:source", base.TID, a); return err }},
		{"AssertImplied", func() error {
			_, err := s.AssertImplied("gov", "gov:Interpol", "gov:said", "gov:x", "gov:y", "gov:z", a)
			return err
		}},
		{"NewBlankNode", func() error { _, err := s.NewBlankNode("gov"); return err }},
		{"CreateContainer", func() (err error) {
			bag, err = s.CreateContainer("gov", BagContainer, uri("http://m/1"))
			return err
		}},
		{"AppendToContainer", func() error { _, err := s.AppendToContainer("gov", bag, uri("http://m/2")); return err }},
		{"InsertBatchCtx", func() error { _, err := s.InsertBatchCtx(context.Background(), "gov", batchWorkload()); return err }},
		{"DeleteTriple", func() error { return s.DeleteTriple("gov", "gov:x", "gov:y", "gov:z", a) }},
		{"DropRDFModel", func() error { return s.DropRDFModel("tmp") }},
	}
	var waits int64
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		snap := reg.Snapshot()
		if g, _ := snap.Gauge("core_triples"); g.Value != int64(s.TotalTriples()) {
			t.Errorf("after %s: core_triples = %d, TotalTriples = %d", step.name, g.Value, s.TotalTriples())
		}
		h, _ := snap.Histogram("core_write_lock_wait_seconds")
		if h.Count != waits+1 {
			t.Errorf("after %s: core_write_lock_wait_seconds has %d observations, want %d", step.name, h.Count, waits+1)
		}
		waits = h.Count
	}
}

// benchBatches builds n distinct 64-triple batches so the insert path
// does real interning work on every iteration.
func benchBatches(n int) [][]BatchTriple {
	uri := rdfterm.NewURI
	out := make([][]BatchTriple, n)
	for i := range out {
		batch := make([]BatchTriple, 64)
		for j := range batch {
			batch[j] = BatchTriple{
				Subject:   uri(fmt.Sprintf("http://s/%d-%d", i, j)),
				Predicate: uri(fmt.Sprintf("http://p/%d", j%8)),
				Object:    uri(fmt.Sprintf("http://o/%d-%d", i, j)),
			}
		}
		out[i] = batch
	}
	return out
}

// BenchmarkInsertBatch is the uninstrumented baseline: the metrics
// field is nil, so every hook is a one-branch no-op. Compare with
// BenchmarkInsertBatchInstrumented to measure the disabled and enabled
// overhead of the obs layer (the ISSUE budget: disabled must be free).
func BenchmarkInsertBatch(b *testing.B) {
	benchmarkInsertBatch(b, nil)
}

// BenchmarkInsertBatchInstrumented runs the same workload with a live
// registry attached.
func BenchmarkInsertBatchInstrumented(b *testing.B) {
	benchmarkInsertBatch(b, NewMetrics(obs.NewRegistry()))
}

func benchmarkInsertBatch(b *testing.B, m *Metrics) {
	batches := benchBatches(b.N)
	s := New()
	s.SetMetrics(m)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.InsertBatchCtx(context.Background(), "m", batches[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBatchNilTracer is the disabled-path tracing
// counterpart of BenchmarkInsertBatch: InsertBatchCtx through a context
// carrying no span (nil Tracer → nil Span → WithSpan no-op), metrics
// nil too. The per-phase span hooks must cost one nil check each, so
// this must track the uninstrumented baseline within noise.
func BenchmarkInsertBatchNilTracer(b *testing.B) {
	var tr *trace.Tracer // nil: tracing disabled
	ctx := trace.WithSpan(context.Background(), tr.StartRoot("bench"))
	batches := benchBatches(b.N)
	s := New()
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.InsertBatchCtx(ctx, "m", batches[i]); err != nil {
			b.Fatal(err)
		}
	}
}
