// Package experiments owns the paper's evaluation (§7, and the storage
// claims of §3.1): the baselines the paper measures against, the dataset
// loaders for both systems under test, and the measurements, timed with
// the paper's method ("the mean results of ten trials with warm caches",
// §7.1.2). TestExperimentsDoc renders the measurements into the generated
// tables of EXPERIMENTS.md.
//
// The baselines are re-implemented on the same reldb engine as the object
// store, which isolates exactly the variable the paper varies — schema
// design:
//
//   - Jena2's denormalized multi-model triple store: per-model statement
//     tables holding text values directly, a property-class table for
//     reified statements, and optional property tables (§3.1).
//   - Jena1's normalized triple store: a statement table of references
//     into resource/literal tables, requiring a three-way join for find
//     operations (§3.1).
//   - The naïve reification baseline that stores the full four-triple
//     reification quad (§5, §7.3).
//   - Experiment I's flat-table query, the three-way join over rdf_value$
//     and rdf_link$ that the member functions hide (Figure 9).
//
// Nothing the server ships imports this package.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/match"
	"repro/internal/ntriples"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/uniprot"
)

const (
	// Trials is the number of timed trials per measurement (§7.1.2).
	Trials = 10
	// Seed is the corpus generator seed every table is measured on.
	Seed = 1
	// Reifications is the size of the §7.3 storage comparison.
	Reifications = 2000
	// StorageTriples is the corpus size of the §3.1 storage comparison.
	StorageTriples = 10_000
)

// Time runs f once to warm caches, then Trials times, returning the mean
// duration.
func Time(f func()) time.Duration {
	f() // warm-up
	start := time.Now()
	for i := 0; i < Trials; i++ {
		f()
	}
	return time.Since(start) / Trials
}

// liveHeap is the live heap in bytes. It collects twice: one collection
// can leave what the previous cycle had already marked.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// OracleDataset is a UniProt-like corpus loaded into the RDF object store:
// central schema + application table + §7.2 function-based subject index.
type OracleDataset struct {
	Store   *core.Store
	Model   string
	App     *core.ApplicationTable
	SubIdx  *reldb.Index
	Triples int
	Reified int
}

// LoadOracle builds the store for one dataset size. Reified statements are
// created through the reification constructor (§5.1).
func LoadOracle(triples, reified int) (*OracleDataset, error) {
	st := core.New()
	const model = "uniprot"
	if _, err := st.CreateRDFModel(model, "uniprot_app", "triple"); err != nil {
		return nil, err
	}
	appDB := reldb.NewDatabase("APP")
	app, err := core.CreateApplicationTable(appDB, st, "uniprot_app",
		reldb.Column{Name: "ID", Kind: reldb.KindInt})
	if err != nil {
		return nil, err
	}
	row := int64(0)
	actualReified := 0
	_, err = uniprot.Stream(uniprot.Config{Triples: triples, Reified: reified, Seed: Seed},
		func(t ntriples.Triple, reify bool) error {
			ts, err := st.InsertTerms(model, t.Subject, t.Predicate, t.Object)
			if err != nil {
				return err
			}
			row++
			if _, err := app.Insert([]reldb.Value{reldb.Int(row)}, ts); err != nil {
				return err
			}
			if reify {
				if _, err := st.Reify(model, ts.TID); err != nil {
					return err
				}
				actualReified++
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	// §7.2: function-based index on triple.GET_SUBJECT().
	subIdx, err := app.CreateSubjectIndex("up_sub_fbidx")
	if err != nil {
		return nil, err
	}
	return &OracleDataset{
		Store: st, Model: model, App: app, SubIdx: subIdx,
		Triples: triples, Reified: actualReified,
	}, nil
}

// Jena2Dataset is the same corpus in the Jena2 baseline.
type Jena2Dataset struct {
	Store   *Jena2Store
	Model   string
	Triples int
	Reified int
}

// LoadJena2 builds the Jena2 store for one dataset size, using the same
// generator stream so both systems hold identical data.
func LoadJena2(triples, reified int) (*Jena2Dataset, error) {
	st := NewJena2Store()
	const model = "uniprot"
	if err := st.CreateModel(model); err != nil {
		return nil, err
	}
	actualReified := 0
	_, err := uniprot.Stream(uniprot.Config{Triples: triples, Reified: reified, Seed: Seed},
		func(t ntriples.Triple, reify bool) error {
			stm := Statement{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object}
			if err := st.Add(model, stm); err != nil {
				return err
			}
			if reify {
				if _, err := st.Reify(model, stm); err != nil {
					return err
				}
				actualReified++
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return &Jena2Dataset{Store: st, Model: model, Triples: triples, Reified: actualReified}, nil
}

// probeStatement is a Table 2 probe as a Jena statement: the reified
// statement for ProbeSeeAlso, the unreified one for NonReifiedProbeObject.
func probeStatement(object string) Statement {
	return Statement{
		Subject:   rdfterm.NewURI(uniprot.ProbeSubject),
		Predicate: rdfterm.NewURI(uniprot.SeeAlso),
		Object:    rdfterm.NewURI(object),
	}
}

// OracleResult is everything measured on the object store at one size.
type OracleResult struct {
	Triples int
	Reified int
	// Rows is what the subject query returned, identical on every path.
	Rows int
	// MemberFns is the subject query through the member functions over
	// the function-based index: Experiment I's member-function column,
	// Table 1's RDF column and §7.2's indexed column.
	MemberFns time.Duration
	// FlatTables is Experiment I's three-way join over the storage tables.
	FlatTables time.Duration
	// Unindexed is §7.2's full scan calling GET_SUBJECT per row.
	Unindexed time.Duration
	// ReifiedTrue and ReifiedFalse are Table 2's IS_REIFIED probes.
	ReifiedTrue, ReifiedFalse time.Duration
}

// MeasureOracle times the subject query three ways (Experiment I, Table 1,
// §7.2) and IS_REIFIED on both probes (Table 2), checking that every path
// returns the same rows and every probe the paper's answer.
func MeasureOracle(d *OracleDataset) (OracleResult, error) {
	r := OracleResult{Triples: d.Triples, Reified: d.Reified}
	var rows []core.Triple
	var err error
	r.MemberFns = Time(func() { rows, err = d.App.QueryBySubject(d.SubIdx, uniprot.ProbeSubject) })
	if err != nil {
		return r, err
	}
	r.Rows = len(rows)
	for _, path := range []struct {
		name string
		into *time.Duration
		run  func() ([]core.Triple, error)
	}{
		{"flat tables", &r.FlatTables, func() ([]core.Triple, error) {
			return FlatQueryBySubject(d.Store, d.Model, uniprot.ProbeSubject)
		}},
		{"unindexed scan", &r.Unindexed, func() ([]core.Triple, error) {
			return UnindexedQueryBySubject(d.App, uniprot.ProbeSubject)
		}},
	} {
		*path.into = Time(func() { rows, err = path.run() })
		if err != nil {
			return r, err
		}
		if len(rows) != r.Rows {
			return r, fmt.Errorf("experiments: member functions returned %d rows, %s %d", r.Rows, path.name, len(rows))
		}
	}
	for _, probe := range []struct {
		object string
		want   bool
		into   *time.Duration
	}{
		{uniprot.ProbeSeeAlso, true, &r.ReifiedTrue},
		{uniprot.NonReifiedProbeObject, false, &r.ReifiedFalse},
	} {
		var got bool
		*probe.into = Time(func() {
			got, err = d.Store.IsReified(d.Model, uniprot.ProbeSubject, uniprot.SeeAlso, probe.object, nil)
		})
		if err != nil || got != probe.want {
			return r, fmt.Errorf("experiments: RDF IsReified(%s) = %v, %v", probe.object, got, err)
		}
	}
	return r, nil
}

// Jena2Result is everything measured on the Jena2 baseline at one size.
type Jena2Result struct {
	Triples int
	Reified int
	Rows    int
	// Find is Table 1's listStatements(P93259, null, null).
	Find time.Duration
	// ReifiedTrue and ReifiedFalse are Table 2's isReified probes.
	ReifiedTrue, ReifiedFalse time.Duration
}

// MeasureJena2 times Table 1's subject find and Table 2's IS_REIFIED
// probes on the Jena2 baseline.
func MeasureJena2(d *Jena2Dataset) (Jena2Result, error) {
	r := Jena2Result{Triples: d.Triples, Reified: d.Reified}
	sub := rdfterm.NewURI(uniprot.ProbeSubject)
	var rows []Statement
	var err error
	r.Find = Time(func() { rows, err = d.Store.Find(d.Model, &sub, nil, nil) })
	if err != nil {
		return r, err
	}
	r.Rows = len(rows)
	for _, probe := range []struct {
		object string
		want   bool
		into   *time.Duration
	}{
		{uniprot.ProbeSeeAlso, true, &r.ReifiedTrue},
		{uniprot.NonReifiedProbeObject, false, &r.ReifiedFalse},
	} {
		var got bool
		*probe.into = Time(func() { got, err = d.Store.IsReified(d.Model, probeStatement(probe.object)) })
		if err != nil || got != probe.want {
			return r, fmt.Errorf("experiments: Jena2 IsReified(%s) = %v, %v", probe.object, got, err)
		}
	}
	return r, nil
}

// MeasureSize loads the paper's corpus at one size into each system in
// turn and measures it: the object store is dropped before the Jena2
// baseline is loaded, so the peak memory is the larger system's, not the
// sum. Both systems must agree on the rows and the reified count.
func MeasureSize(triples int) (OracleResult, Jena2Result, error) {
	reified := uniprot.PaperReifiedCount(triples)
	o, err := measureOracleAt(triples, reified)
	if err != nil {
		return o, Jena2Result{}, err
	}
	runtime.GC()
	j, err := measureJena2At(triples, reified)
	if err != nil {
		return o, j, err
	}
	if o.Rows != j.Rows || o.Reified != j.Reified {
		return o, j, fmt.Errorf("experiments: at %d triples the object store has %d rows and %d reified statements, Jena2 %d and %d",
			triples, o.Rows, o.Reified, j.Rows, j.Reified)
	}
	return o, j, nil
}

func measureOracleAt(triples, reified int) (OracleResult, error) {
	d, err := LoadOracle(triples, reified)
	if err != nil {
		return OracleResult{}, err
	}
	return MeasureOracle(d)
}

func measureJena2At(triples, reified int) (Jena2Result, error) {
	d, err := LoadJena2(triples, reified)
	if err != nil {
		return Jena2Result{}, err
	}
	return MeasureJena2(d)
}

// ReifStorageResult holds the §7.3 storage comparison: rows stored per n
// reifications under the streamlined scheme and the naïve quad, the live
// heap each reification costs when both schemes are stored in the object
// store, and IS_REIFIED latency under both.
type ReifStorageResult struct {
	Reifications int
	OracleRows   int
	QuadRows     int
	// OracleBytes and QuadBytes are live heap bytes per reification.
	OracleBytes  float64
	QuadBytes    float64
	OracleLookup time.Duration
	QuadLookup   time.Duration
}

// reifBase is the i-th base statement of the §7.3 corpus.
func reifBase(i int) Statement {
	return Statement{
		Subject:   rdfterm.NewURI(fmt.Sprintf("http://s/%d", i)),
		Predicate: rdfterm.NewURI("http://p"),
		Object:    rdfterm.NewURI(fmt.Sprintf("http://o/%d", i)),
	}
}

// newReifStore is an object store holding the n base statements of the
// §7.3 corpus, and their link IDs.
func newReifStore(n int) (*core.Store, []int64, error) {
	st := core.New()
	if _, err := st.CreateRDFModel("m", "", ""); err != nil {
		return nil, nil, err
	}
	tids := make([]int64, n)
	for i := range tids {
		b := reifBase(i)
		ts, err := st.InsertTerms("m", b.Subject, b.Predicate, b.Object)
		if err != nil {
			return nil, nil, err
		}
		tids[i] = ts.TID
	}
	return st, tids, nil
}

// RunReificationStorage measures §7.3 on a fresh corpus of n base triples,
// all reified.
func RunReificationStorage(n int) (ReifStorageResult, error) {
	r := ReifStorageResult{Reifications: n}

	// Streamlined scheme: one DBUri link per reification.
	st, tids, err := newReifStore(n)
	if err != nil {
		return r, err
	}
	base, _ := st.NumTriples("m")
	heap := liveHeap()
	for _, tid := range tids {
		if _, err := st.Reify("m", tid); err != nil {
			return r, err
		}
	}
	r.OracleBytes = float64(liveHeap()-heap) / float64(n)
	runtime.KeepAlive(tids) // live in both readings, so not counted
	after, _ := st.NumTriples("m")
	r.OracleRows = after - base

	// The quad's bytes, in the same engine: four more links per statement.
	quadSt, _, err := newReifStore(n)
	if err != nil {
		return r, err
	}
	heap = liveHeap()
	for i := 0; i < n; i++ {
		for _, t := range quad(rdfterm.NewURI(fmt.Sprintf("urn:quadreif:m:%d", i+1)), reifBase(i)) {
			if _, err := quadSt.InsertTerms("m", t.Subject, t.Predicate, t.Object); err != nil {
				return r, err
			}
		}
	}
	r.QuadBytes = float64(liveHeap()-heap) / float64(n)

	// The quad's rows and lookups, on the Jena2 baseline.
	js := NewJena2Store()
	if err := js.CreateModel("m"); err != nil {
		return r, err
	}
	q := NewQuadReifier(js, "m")
	for i := 0; i < n; i++ {
		if err := js.Add("m", reifBase(i)); err != nil {
			return r, err
		}
	}
	jBase, _ := js.Len("m")
	for i := 0; i < n; i++ {
		if _, err := q.Reify(reifBase(i)); err != nil {
			return r, err
		}
	}
	jAfter, _ := js.Len("m")
	r.QuadRows = jAfter - jBase

	var ok bool
	r.OracleLookup = Time(func() { ok, err = st.IsReified("m", "http://s/0", "http://p", "http://o/0", nil) })
	if err != nil || !ok {
		return r, fmt.Errorf("experiments: streamlined IsReified = %v, %v", ok, err)
	}
	r.QuadLookup = Time(func() { ok, err = q.IsReified(reifBase(0)) })
	if err != nil || !ok {
		return r, fmt.Errorf("experiments: quad IsReified = %v, %v", ok, err)
	}
	runtime.KeepAlive(quadSt)
	return r, nil
}

// StorageResult summarizes one design's footprint (§3.1).
type StorageResult struct {
	Design    string
	TextBytes int64 // bytes of value/statement text stored
	Rows      int   // total rows across the design's tables
	// HeapBytes is the live heap per stored triple, everything included.
	HeapBytes float64
}

// RunStorageComparison loads the same corpus into the three designs and
// measures their footprints. Jena1's normalized design stores each text
// value once but pays a three-way join per find; Jena2 denormalizes text
// into the statement table ("Jena2 thereby consumes more storage space
// than Jena1"); the paper's central schema interns values once globally
// and keeps single-table-probe reads.
func RunStorageComparison(triples int) ([]StorageResult, error) {
	stream, err := corpus(triples)
	if err != nil {
		return nil, err
	}
	perTriple := func(heap int64) float64 { return float64(liveHeap()-heap) / float64(len(stream)) }

	heap := liveHeap()
	st := core.New()
	if _, err := st.CreateRDFModel("m", "", ""); err != nil {
		return nil, err
	}
	for _, t := range stream {
		if _, err := st.InsertTerms("m", t.Subject, t.Predicate, t.Object); err != nil {
			return nil, err
		}
	}
	oracle := StorageResult{Design: "RDF objects (central rdf_value$)", HeapBytes: perTriple(heap)}
	db := st.Database()
	oracle.TextBytes = textBytes(db.MustTable(core.TableValue))
	oracle.Rows = db.MustTable(core.TableValue).Len() + db.MustTable(core.TableLink).Len() +
		db.MustTable(core.TableNode).Len()

	heap = liveHeap()
	j1 := NewJena1Store()
	for _, t := range stream {
		if err := j1.Add(t); err != nil {
			return nil, err
		}
	}
	jena1 := StorageResult{Design: "Jena1 (normalized)", HeapBytes: perTriple(heap), TextBytes: j1.TextBytes()}
	res, lits := j1.ValueCounts()
	jena1.Rows = j1.Len() + res + lits

	heap = liveHeap()
	j2 := NewJena2Store()
	if err := j2.CreateModel("m"); err != nil {
		return nil, err
	}
	for _, t := range stream {
		if err := j2.Add("m", t); err != nil {
			return nil, err
		}
	}
	jena2 := StorageResult{Design: "Jena2 (denormalized)", HeapBytes: perTriple(heap)}
	if jena2.TextBytes, err = j2.TextBytes("m"); err != nil {
		return nil, err
	}
	if jena2.Rows, err = j2.Len("m"); err != nil {
		return nil, err
	}
	// Each design stays live through the readings that follow it, and the
	// input through all of them, so no reading is lowered by a collection.
	runtime.KeepAlive(stream)
	runtime.KeepAlive(st)
	runtime.KeepAlive(j1)
	return []StorageResult{oracle, jena1, jena2}, nil
}

// corpus is the paper's corpus at one size, without reifications.
func corpus(triples int) ([]Statement, error) {
	var out []Statement
	_, err := uniprot.Stream(uniprot.Config{Triples: triples, Seed: Seed}, func(t ntriples.Triple, _ bool) error {
		out = append(out, Statement{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object})
		return nil
	})
	return out, err
}

// textBytes sums the lengths of all string cells of a table.
func textBytes(t *reldb.Table) int64 {
	var total int64
	t.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		for _, v := range r {
			if v.Kind() == reldb.KindString {
				total += int64(len(v.Str()))
			}
		}
		return true
	})
	return total
}

// Ablation is one timed variant of a design decision (DESIGN.md §5).
type Ablation struct {
	Decision string
	Variant  string
	Time     time.Duration
}

// ablationTriples is the corpus size of the ablations, the paper's
// smallest point.
const ablationTriples = 10_000

// RunAblations times each design decision against its alternative, with
// the same Time as the paper's tables.
func RunAblations() ([]Ablation, error) {
	var out []Ablation
	var err error
	add := func(decision, variant string, f func() error) {
		if err != nil {
			return
		}
		d := Time(func() {
			if e := f(); e != nil && err == nil {
				err = e
			}
		})
		out = append(out, Ablation{decision, variant, d})
	}

	stmts, err := corpus(ablationTriples)
	if err != nil {
		return nil, err
	}

	// Value interning (central rdf_value$) vs. Jena2's text in every row.
	const interning = "Interning vs. denormalized text: load 10 k triples"
	add(interning, "object store (values interned once)", func() error {
		st := core.New()
		if _, err := st.CreateRDFModel("m", "", ""); err != nil {
			return err
		}
		for _, s := range stmts {
			if _, err := st.InsertTerms("m", s.Subject, s.Predicate, s.Object); err != nil {
				return err
			}
		}
		return nil
	})
	add(interning, "Jena2 (text in every statement row)", func() error {
		js := NewJena2Store()
		if err := js.CreateModel("m"); err != nil {
			return err
		}
		for _, s := range stmts {
			if err := js.Add("m", s); err != nil {
				return err
			}
		}
		return nil
	})

	// Partition pruning: a whole-model scan of one of ten models vs. the
	// same scan over one model holding all the rows.
	const partitioning = "Partition pruning: scan one model"
	for _, shape := range []struct {
		variant          string
		models, perModel int
	}{
		{"2 k triples, one of ten models", 10, 2000},
		{"20 k triples, the only model", 1, 20000},
	} {
		st, perr := partitionedStore(shape.models, shape.perModel)
		if perr != nil {
			return nil, perr
		}
		model := fmt.Sprintf("m%d", shape.models/2)
		add(partitioning, shape.variant, func() error {
			got, err := st.Find(context.Background(), model, core.Pattern{})
			if err == nil && len(got) != shape.perModel {
				err = fmt.Errorf("experiments: scan of %s = %d rows, want %d", model, len(got), shape.perModel)
			}
			return err
		})
	}

	// Canonical object IDs: a non-canonical lexical form still resolves
	// through the index.
	st, cerr := canonicalStore()
	if cerr != nil {
		return nil, cerr
	}
	const canonical = "Canonical object IDs: IS_TRIPLE on an xsd:int object"
	for _, lexical := range []string{"42", "+042"} {
		obj := rdfterm.NewTypedLiteral(lexical, rdfterm.XSDInt)
		add(canonical, fmt.Sprintf("%q^^xsd:int", lexical), func() error {
			_, ok, err := st.IsTripleTerms("m", rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), obj)
			if err == nil && !ok {
				err = fmt.Errorf("experiments: IS_TRIPLE(%s) = false", lexical)
			}
			return err
		})
	}

	// Rules index (materialized inference) vs. inferring per query, on
	// the Figure 8 query.
	fig8, ferr := newFigure8()
	if ferr != nil {
		return nil, ferr
	}
	const rules = "Rules index vs. inferring per query (Figure 8 query)"
	add(rules, "materialized rules index", fig8.query)
	add(rules, "rebuild the index, then query", func() error {
		if err := fig8.cat.Rebuild(context.Background(), "rix"); err != nil {
			return err
		}
		return fig8.query()
	})

	// Normalized (Jena1) vs. denormalized (Jena2) find (§3.1): "a
	// three-way join was required for find operations" vs. "the number
	// of required table joins is reduced at query time".
	j1, j2 := NewJena1Store(), NewJena2Store()
	if err := j2.CreateModel("m"); err != nil {
		return nil, err
	}
	for _, s := range stmts {
		if err := j1.Add(s); err != nil {
			return nil, err
		}
		if err := j2.Add("m", s); err != nil {
			return nil, err
		}
	}
	sub := rdfterm.NewURI(uniprot.ProbeSubject)
	const normalization = "Normalized vs. denormalized find: subject P93259 in 10 k triples"
	for _, find := range []struct {
		variant string
		run     func() ([]Statement, error)
	}{
		{"Jena1 (three-way join)", func() ([]Statement, error) { return j1.Find(&sub, nil, nil) }},
		{"Jena2 (one table)", func() ([]Statement, error) { return j2.Find("m", &sub, nil, nil) }},
	} {
		add(normalization, find.variant, func() error {
			rows, err := find.run()
			if err == nil && len(rows) != uniprot.ProbeRows {
				err = fmt.Errorf("experiments: %s find = %d rows, want %d", find.variant, len(rows), uniprot.ProbeRows)
			}
			return err
		})
	}
	return out, err
}

// partitionedStore holds models m0…m(models-1) of perModel triples each.
func partitionedStore(models, perModel int) (*core.Store, error) {
	st := core.New()
	for m := 0; m < models; m++ {
		name := fmt.Sprintf("m%d", m)
		if _, err := st.CreateRDFModel(name, "", ""); err != nil {
			return nil, err
		}
		for i := 0; i < perModel; i++ {
			if _, err := st.InsertTerms(name,
				rdfterm.NewURI(fmt.Sprintf("http://s/%d/%d", m, i)),
				rdfterm.NewURI("http://p"),
				rdfterm.NewURI(fmt.Sprintf("http://o/%d", i))); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// canonicalStore holds 10 000 xsd:int objects and <http://s> <http://p>
// "42"^^xsd:int.
func canonicalStore() (*core.Store, error) {
	st := core.New()
	if _, err := st.CreateRDFModel("m", "", ""); err != nil {
		return nil, err
	}
	prop := rdfterm.NewURI("http://p")
	for i := 0; i < ablationTriples; i++ {
		if _, err := st.InsertTerms("m", rdfterm.NewURI(fmt.Sprintf("http://s%d", i)), prop,
			rdfterm.NewTypedLiteral(fmt.Sprint(i), rdfterm.XSDInt)); err != nil {
			return nil, err
		}
	}
	_, err := st.InsertTerms("m", rdfterm.NewURI("http://s"), prop, rdfterm.NewTypedLiteral("42", rdfterm.XSDInt))
	return st, err
}

// figure8 is the intelligence community's three models with the intel_rb
// rulebase and an RDFS + intel_rb rules index (Figure 8).
type figure8 struct {
	store *core.Store
	cat   *inference.Catalog
	opts  match.Options
}

func newFigure8() (*figure8, error) {
	store := core.New()
	govAliases := []rdfterm.Alias{
		{Prefix: "gov", Namespace: "http://www.us.gov#"},
		{Prefix: "id", Namespace: "http://www.us.id#"},
	}
	aliases := rdfterm.Default().With(govAliases...)
	models := []string{"cia", "dhs", "fbi"}
	for _, m := range models {
		if _, err := store.CreateRDFModel(m, "", ""); err != nil {
			return nil, err
		}
	}
	for _, r := range [][4]string{
		{"cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe"},
		{"cia", "gov:files", "gov:terrorSuspect", "id:JaneDoe"},
		{"dhs", "id:JimDoe", "gov:terrorAction", "bombing"},
		{"dhs", "gov:files", "gov:terrorSuspect", "id:JohnDoe"},
		{"fbi", "id:JohnDoe", "gov:enteredCountry", "June-20-2000"},
		{"fbi", "gov:files", "gov:terrorSuspect", "id:JohnDoe"},
	} {
		if _, err := store.NewTripleS(r[0], r[1], r[2], r[3], aliases); err != nil {
			return nil, err
		}
	}
	cat := inference.NewCatalog(store)
	if _, err := cat.CreateRulebase("intel_rb"); err != nil {
		return nil, err
	}
	if err := cat.AddRule("intel_rb", inference.Rule{
		Name:       "intel_rule",
		Antecedent: `(?x gov:terrorAction "bombing")`,
		Consequent: `(gov:files gov:terrorSuspect ?x)`,
		Aliases:    govAliases,
	}); err != nil {
		return nil, err
	}
	rulebases := []string{inference.RDFSRulebaseName, "intel_rb"}
	if _, err := cat.CreateRulesIndex(context.Background(), "rix", models, rulebases); err != nil {
		return nil, err
	}
	return &figure8{store: store, cat: cat, opts: match.Options{
		Models: models, Rulebases: rulebases, Resolver: cat, Aliases: aliases,
	}}, nil
}

// query runs the Figure 8 query; the inferred JimDoe makes three suspects.
func (f *figure8) query() error {
	rs, err := match.MatchContext(context.Background(), f.store, `(gov:files gov:terrorSuspect ?name)`, f.opts)
	if err == nil && rs.Len() < 3 {
		err = fmt.Errorf("experiments: Figure 8 query = %d rows, want at least 3", rs.Len())
	}
	return err
}
