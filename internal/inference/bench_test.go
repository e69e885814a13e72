package inference

// Benchmark for the rules-index build cost (the paper's CREATE_RULES_INDEX
// set-up cost, analogous to §7.3's note about reification set-up costs).

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ntriples"
	"repro/internal/uniprot"
)

func BenchmarkRulesIndexBuild10k(b *testing.B) {
	s := core.New()
	s.CreateRDFModel("up", "", "")
	uniprot.Stream(uniprot.Config{Triples: 10000, Seed: 1}, func(t ntriples.Triple, _ bool) error {
		_, err := s.InsertTerms("up", t.Subject, t.Predicate, t.Object)
		return err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCatalog(s)
		ix, err := c.CreateRulesIndex(context.Background(), "ix", []string{"up"}, []string{RDFSRulebaseName})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("inferred %d", ix.InferredCount())
		b.StopTimer()
		c.DropRulesIndex("ix")
		b.StartTimer()
	}
}
