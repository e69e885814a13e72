package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// groupRecords is a small mixed record workload for group-commit tests.
func groupRecords() []Record {
	return []Record{
		{Type: TypeCreateModel, ModelID: 7, Name: "m"},
		{Type: TypeInternValue, ValueID: 1068, Text: "http://a", ValueType: "UR"},
		{Type: TypeInternValue, ValueID: 1069, Text: "lit", ValueType: "PL", Language: "en"},
		{Type: TypeInsertLink, LinkID: 2051, ModelID: 7, StartID: 1068, PropID: 1069,
			EndID: 1068, CanonID: 1068, LinkType: "RDF_MEMBER", Cost: 1, Context: "D"},
		{Type: TypeUpdateLink, LinkID: 2051, Cost: 2, Context: "D"},
		{Type: TypeSeqAdvance, Seq: SeqBlank, SeqValue: 3},
		{Type: TypeDeleteLink, LinkID: 2051},
	}
}

// openSegment opens a fresh one-segment Dir (optionally wrapping its
// files) and returns it with the path of its segment file.
func openSegment(t *testing.T, wrap func(File) File) (*Dir, string) {
	t.Helper()
	dir := t.TempDir()
	d, _, err := OpenDir(dir, 0, DirOptions{Wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	return d, filepath.Join(dir, segmentName(1))
}

// TestGroupLogSameImage: a GroupLog must produce a byte-identical
// segment to a plain Dir for the same record stream.
func TestGroupLogSameImage(t *testing.T) {
	recs := groupRecords()

	plain, plainPath := openSegment(t, nil)
	for _, r := range recs {
		if err := plain.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	d, groupedPath := openSegment(t, nil)
	g := Group(d, GroupOptions{SyncEvery: 3})
	for _, r := range recs {
		if err := g.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(groupedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("group image (%d bytes) differs from plain image (%d bytes)", len(got), len(want))
	}
	res, err := ScanFile(groupedPath)
	if err != nil || res.Truncated {
		t.Fatalf("scan: %v (truncated=%v)", err, res.Truncated)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(res.Records), len(recs))
	}
}

// TestGroupLogBuffersUntilThreshold: commits below SyncEvery stay in
// memory; the SyncEvery-th lands everything at once.
func TestGroupLogBuffersUntilThreshold(t *testing.T) {
	d, seg := openSegment(t, nil)
	g := Group(d, GroupOptions{SyncEvery: 3})
	defer g.Close()
	header := d.Size()

	for i := 0; i < 2; i++ {
		if err := g.Append(Record{Type: TypeDeleteLink, LinkID: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Size() != header {
		t.Fatalf("bytes written before threshold: %d", d.Size()-header)
	}
	if got := g.Buffered(); got != 2 {
		t.Fatalf("Buffered() = %d, want 2", got)
	}
	if err := g.Append(Record{Type: TypeDeleteLink, LinkID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if d.Size() == header {
		t.Fatal("threshold commit wrote nothing")
	}
	res, err := ScanFile(seg)
	if err != nil || res.Truncated || len(res.Records) != 3 {
		t.Fatalf("scan after group flush: %v records=%d truncated=%v", err, len(res.Records), res.Truncated)
	}
	if got := g.Buffered(); got != 0 {
		t.Fatalf("Buffered() after flush = %d, want 0", got)
	}
}

// TestGroupLogFlushSpanCountsCommits: a flush's wal.flush span carries
// the number of commits it made durable, not the records inside them.
func TestGroupLogFlushSpanCountsCommits(t *testing.T) {
	d, _ := openSegment(t, nil)
	g := Group(d, GroupOptions{SyncEvery: 3})
	defer g.Close()
	tr := trace.New(trace.Config{SampleRate: 1})
	g.SetTracer(tr)
	for i := 0; i < 3; i++ {
		// Two records per commit, so a records count would read 6.
		for j := 0; j < 2; j++ {
			if err := g.Append(Record{Type: TypeDeleteLink, LinkID: int64(2*i + j)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	traces := tr.Snapshot()
	if len(traces) != 1 || traces[0].Root != "wal.flush" {
		t.Fatalf("retained %d traces, want one wal.flush: %+v", len(traces), traces)
	}
	if got := traces[0].RootAttr("commits"); got != "3" {
		t.Fatalf("wal.flush commits = %q, want 3 (attrs %v)", got, traces[0].Spans)
	}
}

// TestGroupLogLatchesFlushError: after a failed flush the in-memory
// store is ahead of the log; every later operation must keep failing.
func TestGroupLogLatchesFlushError(t *testing.T) {
	inj := &FaultInjector{FailAt: int64(len(Magic)), Mode: FailStop}
	d, _ := openSegment(t, inj.Wrap)
	defer inj.CloseAll()
	g := Group(d, GroupOptions{SyncEvery: 2})
	if err := g.Append(Record{Type: TypeDeleteLink, LinkID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(); err != nil {
		t.Fatalf("buffered commit should not touch the file: %v", err)
	}
	if err := g.Append(Record{Type: TypeDeleteLink, LinkID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(); err == nil {
		t.Fatal("flush over a dead file succeeded")
	}
	if err := g.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("error not latched on Commit: %v", err)
	}
	if err := g.Append(Record{Type: TypeDeleteLink, LinkID: 3}); !errors.Is(err, ErrInjected) {
		t.Fatalf("error not latched on Append: %v", err)
	}
	if err := g.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("error not latched on Flush: %v", err)
	}
}

// TestGroupLogCloseFlushes: Close must land buffered commits before
// closing the file.
func TestGroupLogCloseFlushes(t *testing.T) {
	d, seg := openSegment(t, nil)
	g := Group(d, GroupOptions{SyncEvery: 100})
	if err := g.Append(Record{Type: TypeDeleteLink, LinkID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(seg)
	if err != nil || len(res.Records) != 1 {
		t.Fatalf("scan after Close: %v records=%d", err, len(res.Records))
	}
}

// TestGroupLogLatchRaces: the flush-error latch under -race with
// concurrent appenders. Each cycle hammers a fresh group with
// Append/Commit from several goroutines while a sync failure trips the
// latch. The invariants:
//
//   - no data race (the point of running under -race);
//   - an appender either succeeds or gets the injected error — never a
//     partial/torn state;
//   - once tripped, Append and Commit keep returning the latched error;
//   - the segment image stays scannable: a failed sync tears nothing.
func TestGroupLogLatchRaces(t *testing.T) {
	const appenders = 4
	for cycle := 0; cycle < 20; cycle++ {
		var fl *FlakyFile
		d, seg := openSegment(t, func(f File) File { fl = NewFlaky(f); return fl })
		g := Group(d, GroupOptions{SyncEvery: 4})

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var stray atomic.Value // first error that is not the injected one
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					err := g.Append(Record{Type: TypeDeleteLink, LinkID: int64(id*1_000_000 + i)})
					if err == nil {
						err = g.Commit()
					}
					if err != nil && !errors.Is(err, ErrInjected) {
						stray.CompareAndSwap(nil, err)
					}
				}
			}(a)
		}

		fl.FailSyncs(1)
		// Drive commits until the latch trips (the appenders' commits may
		// trip it first; either way Err() goes non-nil).
		for i := 0; g.Err() == nil && i < 1000; i++ {
			g.Append(Record{Type: TypeDeleteLink, LinkID: int64(-cycle)})
			g.Commit()
		}
		close(stop)
		wg.Wait()
		latched := g.Err()
		if latched == nil {
			t.Fatalf("cycle %d: latch never tripped", cycle)
		}
		if err := stray.Load(); err != nil {
			t.Fatalf("cycle %d: appender saw %v, want success or the injected error", cycle, err)
		}
		if err := g.Append(Record{Type: TypeDeleteLink, LinkID: 7}); err != latched {
			t.Fatalf("cycle %d: Append after the latch = %v, want %v", cycle, err, latched)
		}
		if err := g.Commit(); err != latched {
			t.Fatalf("cycle %d: Commit after the latch = %v, want %v", cycle, err, latched)
		}
		g.Close()
		res, err := ScanFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("cycle %d: segment torn by a failed sync: %v", cycle, res.TailErr)
		}
	}
}
