package experiments

import (
	"testing"

	"repro/internal/uniprot"
)

func TestTimeReturnsMean(t *testing.T) {
	calls := 0
	d := Time(func() { calls++ })
	if calls != Trials+1 { // warm-up + trials
		t.Fatalf("calls = %d", calls)
	}
	if d < 0 {
		t.Fatalf("duration = %v", d)
	}
}

func loadSmall(t *testing.T) (*OracleDataset, *Jena2Dataset) {
	t.Helper()
	o, err := LoadOracle(2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	j, err := LoadJena2(2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	return o, j
}

func TestLoadersAgree(t *testing.T) {
	o, j := loadSmall(t)
	if o.Reified != j.Reified {
		t.Fatalf("reified counts differ: oracle %d, jena2 %d", o.Reified, j.Reified)
	}
	n, err := o.Store.NumTriples(o.Model)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle stores base triples + one reification row each.
	if n != o.Triples+o.Reified {
		t.Fatalf("oracle rows = %d, want %d", n, o.Triples+o.Reified)
	}
	jn, _ := j.Store.Len(j.Model)
	if jn != j.Triples {
		t.Fatalf("jena2 rows = %d, want %d", jn, j.Triples)
	}
}

// TestRunExperimentI: the member functions and the flat tables return the
// probe's 24 rows (MeasureOracle fails when the paths disagree).
func TestRunExperimentI(t *testing.T) {
	o, _ := loadSmall(t)
	r, err := MeasureOracle(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != uniprot.ProbeRows {
		t.Fatalf("rows = %d, want %d", r.Rows, uniprot.ProbeRows)
	}
	if r.MemberFns <= 0 || r.FlatTables <= 0 {
		t.Fatalf("timings %v / %v", r.MemberFns, r.FlatTables)
	}
}

// TestRunIndexAblation: §7.2's query without the function-based index (a
// full scan calling GET_SUBJECT per row) returns the same rows as the
// indexed member-function path, and MeasureOracle times both.
func TestRunIndexAblation(t *testing.T) {
	o, _ := loadSmall(t)
	indexed, err := o.App.QueryBySubject(o.SubIdx, uniprot.ProbeSubject)
	if err != nil {
		t.Fatal(err)
	}
	unindexed, err := UnindexedQueryBySubject(o.App, uniprot.ProbeSubject)
	if err != nil {
		t.Fatal(err)
	}
	if len(unindexed) != uniprot.ProbeRows || len(indexed) != len(unindexed) {
		t.Fatalf("rows: indexed %d, unindexed %d, want %d", len(indexed), len(unindexed), uniprot.ProbeRows)
	}
	seen := map[string]int{}
	for _, tr := range indexed {
		seen[tr.String()]++
	}
	for _, tr := range unindexed {
		seen[tr.String()]--
	}
	for tr, n := range seen {
		if n != 0 {
			t.Errorf("triple %s: indexed and unindexed counts differ by %d", tr, n)
		}
	}
	r, err := MeasureOracle(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemberFns <= 0 || r.Unindexed <= 0 {
		t.Fatalf("timings: indexed %v, unindexed %v", r.MemberFns, r.Unindexed)
	}
	// With 2000 rows the full scan should be slower than the index lookup.
	if r.Unindexed < r.MemberFns {
		t.Logf("warning: unindexed %v faster than indexed %v at this size", r.Unindexed, r.MemberFns)
	}
}

// TestRunExperimentII: Jena2's subject find returns the paper's Table 1
// row count, as the object store does.
func TestRunExperimentII(t *testing.T) {
	_, j := loadSmall(t)
	r, err := MeasureJena2(j)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != uniprot.ProbeRows {
		t.Fatalf("rows = %d, want %d (the paper's Table 1 row count)", r.Rows, uniprot.ProbeRows)
	}
}

// TestRunExperimentIII: one size measured on both systems, loaded one
// after the other, agrees on rows and reified statements, and both
// answer the Table 2 probes (true, then false).
func TestRunExperimentIII(t *testing.T) {
	o, j, err := MeasureSize(2000)
	if err != nil {
		t.Fatal(err)
	}
	if o.Reified == 0 || o.Reified != j.Reified {
		t.Fatalf("reified = %d / %d", o.Reified, j.Reified)
	}
	if o.ReifiedTrue <= 0 || j.ReifiedFalse <= 0 {
		t.Fatalf("probe timings %+v %+v", o, j)
	}
}

func TestRunReificationStorage(t *testing.T) {
	r, err := RunReificationStorage(50)
	if err != nil {
		t.Fatal(err)
	}
	if r.OracleRows != 50 {
		t.Errorf("oracle rows = %d, want 50", r.OracleRows)
	}
	if r.QuadRows != 200 {
		t.Errorf("quad rows = %d, want 200", r.QuadRows)
	}
	// §7.3's "25% of the storage", in rows; in bytes the DBUri's own
	// value row makes it more, but well under the quad's.
	if r.OracleBytes <= 0 || r.OracleBytes >= r.QuadBytes {
		t.Errorf("bytes per reification: streamlined %.0f, quad %.0f", r.OracleBytes, r.QuadBytes)
	}
}

func TestRunStorageComparison(t *testing.T) {
	results, err := RunStorageComparison(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]StorageResult{}
	for _, r := range results {
		if r.TextBytes <= 0 || r.Rows <= 0 || r.HeapBytes <= 0 {
			t.Fatalf("empty result %+v", r)
		}
		byName[r.Design] = r
	}
	oracle := byName["RDF objects (central rdf_value$)"]
	j1 := byName["Jena1 (normalized)"]
	j2 := byName["Jena2 (denormalized)"]
	// §3.1's claim: the denormalized design stores more text than the
	// normalized ones; interning matches Jena1's single-copy storage.
	if j2.TextBytes <= j1.TextBytes {
		t.Errorf("Jena2 text %d <= Jena1 text %d", j2.TextBytes, j1.TextBytes)
	}
	if j2.TextBytes <= oracle.TextBytes {
		t.Errorf("Jena2 text %d <= oracle text %d", j2.TextBytes, oracle.TextBytes)
	}
	// Interned designs should be within ~2x of each other.
	if oracle.TextBytes > 2*j1.TextBytes {
		t.Errorf("oracle text %d far above Jena1 %d", oracle.TextBytes, j1.TextBytes)
	}
}
