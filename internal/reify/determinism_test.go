package reify

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/ntriples"
	"repro/internal/rdfterm"
	"repro/internal/uniprot"
	"repro/internal/wal"
)

// benchmarkShapedCorpus is the benchmark's dataset in small: a UniProt
// stream with the paper's Table-2 share of reified statements, each
// expanded to the standard four-triple quad, plus protein → protein edges
// whose targets are Zipf-distributed (hubs, repeated objects).
func benchmarkShapedCorpus(t testing.TB, triples int, seed int64) []ntriples.Triple {
	t.Helper()
	uri := rdfterm.NewURI
	var out []ntriples.Triple
	var subjects []rdfterm.Term
	quads := 0
	if _, err := uniprot.Stream(uniprot.Config{
		Triples: triples, Reified: uniprot.PaperReifiedCount(triples), Seed: seed,
	}, func(tr ntriples.Triple, reify bool) error {
		out = append(out, tr)
		if len(subjects) == 0 || subjects[len(subjects)-1] != tr.Subject {
			subjects = append(subjects, tr.Subject)
		}
		if reify {
			quads++
			r := rdfterm.NewBlank("reif" + strconv.Itoa(quads))
			out = append(out,
				ntriples.Triple{Subject: r, Predicate: uri(rdfterm.RDFType), Object: uri(rdfterm.RDFStatement)},
				ntriples.Triple{Subject: r, Predicate: uri(rdfterm.RDFSubject), Object: tr.Subject},
				ntriples.Triple{Subject: r, Predicate: uri(rdfterm.RDFPredicate), Object: tr.Predicate},
				ntriples.Triple{Subject: r, Predicate: uri(rdfterm.RDFObject), Object: tr.Object})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if quads == 0 {
		t.Fatal("corpus has no reification quads")
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(subjects)-1))
	pred := uri(uniprot.CoreNS + "interactsWith")
	for i := 0; i < triples/4; i++ { // repeats allowed: they bump COST
		out = append(out, ntriples.Triple{Subject: subjects[rng.Intn(len(subjects))], Predicate: pred, Object: subjects[zipf.Uint64()]})
	}
	return out
}

func snapshotBytes(t testing.TB, s *core.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Save(&b, 0); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLoadIsDeterministic: the same input always builds the same store —
// the same VALUE_IDs and LINK_IDs in the same rows — whether it is loaded
// into memory, replayed from the WAL the load wrote, or read back from a
// checkpoint of it. The images compared are snapshots, byte for byte.
func TestLoadIsDeterministic(t *testing.T) {
	corpus := benchmarkShapedCorpus(t, 4000, 11)
	load := func(st *core.Store) Stats {
		t.Helper()
		if _, err := st.CreateRDFModel("uni", "", ""); err != nil {
			t.Fatal(err)
		}
		stats, err := (&Loader{Store: st, Model: "uni", Policy: DropIncomplete, BatchSize: 1024}).LoadTriples(corpus)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	first := core.New()
	firstStats := load(first)
	want := snapshotBytes(t, first)
	if firstStats.QuadsFolded == 0 || firstStats.Inserted == 0 {
		t.Fatalf("load did not fold and insert: %+v", firstStats)
	}
	if errs := first.CheckInvariants(); len(errs) > 0 {
		t.Fatal(errs)
	}

	second := core.New()
	if stats := load(second); stats != firstStats {
		t.Fatalf("second load: stats %+v, first %+v", stats, firstStats)
	}
	if !bytes.Equal(snapshotBytes(t, second), want) {
		t.Fatal("two loads of one input differ")
	}

	// Durable: the same load through a segmented WAL.
	dir := t.TempDir()
	snap, walDir := filepath.Join(dir, "store.snap"), filepath.Join(dir, "wal")
	opts := wal.DirOptions{SegmentBytes: 64 << 10}
	reopen := func() (*core.Store, *wal.Dir) {
		t.Helper()
		st, d, info, err := core.RecoverDir(snap, walDir, opts)
		if err != nil || info.Truncated {
			t.Fatalf("recover: %v (truncated %v)", err, info.Truncated)
		}
		return st, d
	}
	durable, d := reopen()
	durable.SetDurability(d)
	load(durable)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, d := reopen() // no snapshot yet: every row comes from WAL replay
	if !bytes.Equal(snapshotBytes(t, replayed), want) {
		t.Fatal("store replayed from the load's WAL differs from the loaded store")
	}
	if err := core.CheckpointDir(replayed, snap, d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	restored, d := reopen() // snapshot load, nothing left to replay
	defer d.Close()
	if !bytes.Equal(snapshotBytes(t, restored), want) {
		t.Fatal("store restored from a checkpoint differs from the loaded store")
	}
	if errs := restored.CheckInvariants(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

// TestPlainLoadBuildsNoTripleKeys: in a file without rdf:Statement
// resources no statement can be the base of a quad, so the fold has
// nothing to look statements up in and must not key them at all. Reloading
// an already-stored corpus isolates the loader's own per-triple work: core
// then allocates nothing per statement (it reads COST where it is stored).
// Formatting every statement into a string map key, as the loader once did
// twice over, is several allocations each.
func TestPlainLoadBuildsNoTripleKeys(t *testing.T) {
	var corpus []ntriples.Triple
	for i := 0; i < 2000; i++ {
		corpus = append(corpus, ntriples.Triple{
			Subject:   rdfterm.NewURI("http://s/" + strconv.Itoa(i/10)),
			Predicate: rdfterm.NewURI("http://p/" + strconv.Itoa(i%10)),
			Object:    rdfterm.NewLiteral("v" + strconv.Itoa(i)),
		})
	}
	l, _ := newLoader(t, DropIncomplete)
	l.BatchSize = 1024
	reload := func() {
		if stats, err := l.LoadTriples(corpus); err != nil || stats.Inserted != len(corpus) || stats.QuadsFolded != 0 {
			t.Fatalf("load: %+v, %v", stats, err)
		}
	}
	reload()
	if perTriple := testing.AllocsPerRun(5, reload) / float64(len(corpus)); perTriple > 0.5 {
		t.Errorf("reloading a quad-free corpus: %.2f allocations per statement, budget 0.5", perTriple)
	}
}
