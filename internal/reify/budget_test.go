package reify

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ntriples"
)

// TestLoadedStoreHeapBudget holds the line on what a stored triple costs in
// memory, and in objects the collector has to find: a benchmark-shaped
// 20k-triple UniProt sample with its Table-2 reification quads is loaded
// from N-Triples text, as rdfserve loads it, and the live heap it leaves
// behind is divided by the rdf_link$ rows stored. The paper's schema is
// IDs plus each text once (§3.1); measured here that is 208 B and 0.20
// objects a triple — the rows as column vectors, the text in arenas, three
// trees of entries as wide as their index, a term dictionary of row
// numbers, and nothing of the input. The budgets are that plus a tenth.
// (With seven trees on rdf_link$, one on rdf_value$ and a Go map for the
// dictionary: 394 B, 0.40; with a text index beside it: 521 B, 0.45; with a
// []Value per row and 40-byte packed entries: 1665 B, 4.8.)
func TestLoadedStoreHeapBudget(t *testing.T) {
	var text bytes.Buffer
	w := ntriples.NewWriter(&text)
	for _, tr := range benchmarkShapedCorpus(t, 20_000, 3) {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Twice: one collection can leave what the previous cycle had already
	// marked, and that would be subtracted from the store.
	live := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	var before, after runtime.MemStats
	live(&before)
	st := core.New()
	if _, err := st.CreateRDFModel("uni", "", ""); err != nil {
		t.Fatal(err)
	}
	loader := &Loader{Store: st, Model: "uni", Policy: DropIncomplete, BatchSize: 1024}
	if _, err := loader.Load(bytes.NewReader(text.Bytes())); err != nil {
		t.Fatal(err)
	}
	live(&after)
	stored := float64(st.TotalTriples())
	bytesPer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / stored
	objectsPer := (float64(after.HeapObjects) - float64(before.HeapObjects)) / stored
	t.Logf("%.0f triples stored: %.0f B and %.3f heap objects each", stored, bytesPer, objectsPer)
	if bytesPer > 230 {
		t.Errorf("live heap per stored triple: %.0f B, budget 230", bytesPer)
	}
	if objectsPer > 0.22 {
		t.Errorf("heap objects per stored triple: %.2f, budget 0.22", objectsPer)
	}
	runtime.KeepAlive(st)
}
