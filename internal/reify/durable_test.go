package reify

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/rdfterm"
	"repro/internal/wal"
)

// commitLog is a core.Durability that keeps what a store logs and where
// its commit points fall, on top of an optional real sink.
type commitLog struct {
	sink      core.Durability // may be nil
	size      func() int64    // the sink's bytes on disk; may be nil
	records   []wal.Record
	commitAt  []int   // records appended when each Commit was called
	commitOff []int64 // size() after each Commit
}

func (c *commitLog) Append(r wal.Record) error {
	c.records = append(c.records, r)
	if c.sink != nil {
		return c.sink.Append(r)
	}
	return nil
}

func (c *commitLog) Commit() error {
	if c.sink != nil {
		if err := c.sink.Commit(); err != nil {
			return err
		}
	}
	c.commitAt = append(c.commitAt, len(c.records))
	if c.size != nil {
		c.commitOff = append(c.commitOff, c.size())
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TestLoadCommitBudget: a load's commit points are its batch boundaries —
// two streams of ⌈quads/B⌉ groups (bases, reification rows) and one of
// ⌈rest/B⌉ — not one or two per quad; on a durable store each is an fsync.
// Nothing is left appended and uncommitted when LoadTriples returns, and
// the log it wrote replays to the store it built. (With a commit per
// folded quad this corpus made 5 000+.)
func TestLoadCommitBudget(t *testing.T) {
	const batch = 1024
	corpus := benchmarkShapedCorpus(t, 20_000, 3)
	log := &commitLog{}
	st := core.New()
	st.SetDurability(log)
	if _, err := st.CreateRDFModel("uni", "", ""); err != nil {
		t.Fatal(err)
	}
	before := len(log.commitAt)
	stats, err := (&Loader{Store: st, Model: "uni", Policy: DropIncomplete, BatchSize: batch}).LoadTriples(corpus)
	if err != nil {
		t.Fatal(err)
	}
	commits := len(log.commitAt) - before
	budget := 2*ceilDiv(stats.QuadsFolded, batch) + ceilDiv(stats.Inserted, batch) + 1
	t.Logf("%d statements, %d quads folded: %d commits (budget %d), %d records", len(corpus), stats.QuadsFolded, commits, budget, len(log.records))
	if stats.QuadsFolded < 1000 {
		t.Fatalf("corpus folds only %d quads", stats.QuadsFolded)
	}
	if commits > budget {
		t.Errorf("load made %d commits, budget %d", commits, budget)
	}
	if last := log.commitAt[len(log.commitAt)-1]; last != len(log.records) {
		t.Errorf("%d records appended after the load's last commit", len(log.records)-last)
	}
	replayed := core.New()
	if err := replayed.Replay(log.records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, replayed), snapshotBytes(t, st)) {
		t.Error("the load's log does not replay to the store the load built")
	}
}

// crashCorpus has every shape the fold's streams carry: plain and repeated
// statements, quads whose base is also asserted, quads whose base is only
// implied, assertions about quad resources, and a partial quad.
func crashCorpus(n int) []ntriples.Triple {
	uri, lit := rdfterm.NewURI, rdfterm.NewLiteral
	typ, stmt := uri(rdfterm.RDFType), uri(rdfterm.RDFStatement)
	var out []ntriples.Triple
	for i := 0; i < n; i++ {
		s, p, o := uri(fmt.Sprintf("http://s/%d", i%41)), uri(fmt.Sprintf("http://p/%d", i%7)), lit(fmt.Sprintf("v%d", i))
		if i%10 != 4 { // every tenth base is implied: reified below, never asserted
			out = append(out, ntriples.Triple{Subject: s, Predicate: p, Object: o})
		}
		if i%13 == 5 {
			out = append(out, ntriples.Triple{Subject: s, Predicate: p, Object: o}) // COST 2
		}
		if i%5 == 4 {
			r := rdfterm.NewBlank(fmt.Sprintf("q%d", i))
			out = append(out,
				ntriples.Triple{Subject: r, Predicate: uri(rdfterm.RDFObject), Object: o},
				ntriples.Triple{Subject: r, Predicate: typ, Object: stmt},
				ntriples.Triple{Subject: uri(fmt.Sprintf("http://agent/%d", i)), Predicate: uri("http://said"), Object: r},
				ntriples.Triple{Subject: r, Predicate: uri(rdfterm.RDFSubject), Object: s},
				ntriples.Triple{Subject: r, Predicate: uri(rdfterm.RDFPredicate), Object: p})
		}
	}
	return append(out, ntriples.Triple{Subject: rdfterm.NewBlank("partial"), Predicate: typ, Object: stmt})
}

// TestLoadCrashAtCommitGroups cuts a durable, quad-bearing load's log at
// every commit boundary and at seeded random bytes inside the groups, and
// recovers what is left: always a prefix of the records the load wrote,
// always a store that passes CheckInvariants, and never a
// <DBUri, rdf:type, rdf:Statement> row whose base link is missing — the
// bases are a whole stream ahead of the rows that point at them. The cut
// between those two streams leaves implied bases with no reification row
// yet: a valid store, the state a crash between a quad's two commits left
// when each quad was committed on its own.
func TestLoadCrashAtCommitGroups(t *testing.T) {
	const batch = 32
	opts := wal.DirOptions{SegmentBytes: 8 << 10}
	golden := filepath.Join(t.TempDir(), "golden")
	st, d, _, err := core.RecoverDir("", golden, opts)
	if err != nil {
		t.Fatal(err)
	}
	log := &commitLog{sink: d, size: d.Size}
	st.SetDurability(log)
	if _, err := st.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	loadStart := len(log.commitAt)
	stats, err := (&Loader{Store: st, Model: "m", Policy: InsertIncomplete, KeepOriginalURIs: true, BatchSize: batch}).LoadTriples(crashCorpus(600))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Segments() < 4 || stats.QuadsFolded < 3*batch {
		t.Fatalf("load spans %d segments and folds %d quads; the cuts need several of each", d.Segments(), stats.QuadsFolded)
	}

	// The golden segments, and the directory a crash at global byte offset
	// cut leaves behind: whole segments, one torn one, nothing after it.
	names, err := filepath.Glob(filepath.Join(golden, "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var images [][]byte
	var total int64
	for _, name := range names {
		img, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
		total += int64(len(img))
	}
	crashDir := func(cut int64) string {
		dir := t.TempDir()
		for i, img := range images {
			if cut <= 0 {
				break
			}
			keep := min(cut, int64(len(img)))
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(names[i])), img[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
			cut -= keep
		}
		return dir
	}

	typ, stmt := rdfterm.NewURI(rdfterm.RDFType), rdfterm.NewURI(rdfterm.RDFStatement)
	check := func(cut int64, wantRecords int) *core.Store {
		t.Helper()
		got, gd, info, err := core.RecoverDir("", crashDir(cut), opts)
		if err != nil {
			t.Fatalf("cut at %d: recover: %v", cut, err)
		}
		defer gd.Close()
		if wantRecords >= 0 && (info.Applied != wantRecords || info.Truncated) {
			t.Fatalf("cut at %d: recovered %d records (truncated %v), want the %d committed", cut, info.Applied, info.Truncated, wantRecords)
		}
		if errs := got.CheckInvariants(); len(errs) > 0 {
			t.Fatalf("cut at %d: %v", cut, errs)
		}
		want := core.New()
		if err := want.Replay(log.records[:info.Applied]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
			t.Fatalf("cut at %d: recovered store is not the first %d records of the load", cut, info.Applied)
		}
		if _, err := got.GetModelID("m"); err != nil {
			return got // cut before the model existed
		}
		rows, err := got.Find(context.Background(), "m", core.Pattern{Predicate: &typ, Object: &stmt})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			sub, err := row.GetSubject()
			if err != nil {
				t.Fatal(err)
			}
			if tid, ok := core.ParseDBUri(sub); ok {
				if _, err := got.LinkInfo(tid); err != nil {
					t.Fatalf("cut at %d: reification row %s has no base link: %v", cut, sub, err)
				}
			}
		}
		return got
	}

	for i, off := range log.commitOff {
		got := check(off, log.commitAt[i])
		if i == loadStart+ceilDiv(stats.QuadsFolded, batch)-1 {
			// Stream 1 is down, stream 2 not begun.
			reified, err := got.ReifiedCount("m")
			if err != nil {
				t.Fatal(err)
			}
			implied := 0
			all, err := got.Find(context.Background(), "m", core.Pattern{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range all {
				if info, err := got.LinkInfo(ts.TID); err == nil && info.Context == core.ContextIndirect {
					implied++
				}
			}
			if reified != 0 || implied == 0 || len(all) != stats.QuadsFolded {
				t.Fatalf("after the base stream: %d links, %d implied, %d reified; want %d bases, some implied, none reified",
					len(all), implied, reified, stats.QuadsFolded)
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 120; i++ {
		check(rng.Int63n(total+1), -1)
	}
}

// durableLoad loads corpus into a fresh store on a wal.Dir under dir and
// returns the number of fsyncs the load made.
func durableLoad(tb testing.TB, dir string, corpus []ntriples.Triple) int64 {
	tb.Helper()
	st, d, _, err := core.RecoverDir("", dir, wal.DirOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	reg := obs.NewRegistry()
	d.SetMetrics(wal.NewMetrics(reg))
	st.SetDurability(d)
	if _, err := st.CreateRDFModel("uni", "", ""); err != nil {
		tb.Fatal(err)
	}
	if _, err := (&Loader{Store: st, Model: "uni", Policy: DropIncomplete, BatchSize: 1024}).LoadTriples(corpus); err != nil {
		tb.Fatal(err)
	}
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	fsyncs, _ := reg.Snapshot().Counter("wal_fsyncs_total")
	return fsyncs.Value
}

// BenchmarkDurableLoad is rdfserve -wal-dir -load without the parse: the
// fold and the inserts of a 20k-triple UniProt sample with its quads, on a
// real directory, every commit group fsynced.
func BenchmarkDurableLoad(b *testing.B) {
	corpus := benchmarkShapedCorpus(b, 20_000, 3)
	var fsyncs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsyncs += durableLoad(b, filepath.Join(b.TempDir(), "wal"), corpus)
	}
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/load")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(corpus)), "ns/statement")
}

// BenchmarkRecoverDir is a restart: the log that load wrote, scanned and
// replayed into a fresh store by core.RecoverDir. scan-ns/record is the
// part spent reading, verifying and decoding — all that decoding on a
// second goroutine could hide.
func BenchmarkRecoverDir(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "wal")
	durableLoad(b, dir, benchmarkShapedCorpus(b, 20_000, 3))
	var before, after runtime.MemStats
	var scan time.Duration
	records := 0
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		_, d, info, err := core.RecoverDir("", dir, wal.DirOptions{})
		if err != nil {
			b.Fatal(err)
		}
		records += info.Applied
		scan += info.Scan
		d.Close()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(scan.Nanoseconds())/float64(records), "scan-ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(records), "allocs/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(records), "B/record")
}
