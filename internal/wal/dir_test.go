package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// dirRec builds a small distinguishable record for segment tests.
func dirRec(i int) Record {
	return Record{Type: TypeDeleteLink, LinkID: int64(i)}
}

// openTestDir opens a Dir with a tiny rotation threshold so a handful of
// appends spans several segments.
func openTestDir(t *testing.T, dir string, fromSeq int64, opts DirOptions) (*Dir, DirScanResult) {
	t.Helper()
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = 64
	}
	d, res, err := OpenDir(dir, fromSeq, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// appendN appends and commits n records starting at id.
func appendN(t *testing.T, d *Dir, id, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := d.Append(dirRec(id + i)); err != nil {
			t.Fatalf("append %d: %v", id+i, err)
		}
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDirFreshCreatesFirstSegment(t *testing.T) {
	dir := t.TempDir()
	d, res := openTestDir(t, dir, 0, DirOptions{})
	defer d.Close()
	if res.Segments != 1 || res.StartSeq != 1 || res.Seq != 1 {
		t.Fatalf("fresh dir: %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); err != nil {
		t.Fatalf("first segment missing: %v", err)
	}
	if res.TotalBytes != int64(len(Magic)) {
		t.Errorf("TotalBytes = %d, want header only (%d)", res.TotalBytes, len(Magic))
	}
}

func TestDirRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 40)
	if d.Segments() < 3 {
		t.Fatalf("expected rotation across >=3 segments, got %d", d.Segments())
	}
	wantSeg := d.Segments()
	wantSize := d.Size()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, res := openTestDir(t, dir, 0, DirOptions{})
	defer d2.Close()
	if res.Truncated {
		t.Fatalf("clean close reported torn tail: %v", res.TailErr)
	}
	if res.Segments != wantSeg || res.TotalBytes != wantSize {
		t.Fatalf("reopen: segments %d bytes %d, want %d/%d", res.Segments, res.TotalBytes, wantSeg, wantSize)
	}
	if len(res.Records) != 40 {
		t.Fatalf("replayed %d records, want 40", len(res.Records))
	}
	for i, r := range res.Records {
		if !reflect.DeepEqual(r, dirRec(i)) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// The reopened dir appends from the verified end.
	appendN(t, d2, 40, 5)
	if d2.Size() <= wantSize {
		t.Errorf("size did not grow after reopen appends")
	}
}

func TestDirOversizeRecordStillLands(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{SegmentBytes: 32})
	defer d.Close()
	big := Record{Type: TypeInternValue, ValueID: 1, ValueType: "UR",
		Text: string(make([]byte, 4096))}
	if err := d.Append(big); err != nil {
		t.Fatalf("oversize append: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	_, res := openTestDir(t, dir, 0, DirOptions{SegmentBytes: 32})
	if len(res.Records) != 1 || res.Records[0].ValueID != 1 {
		t.Fatalf("oversize record lost: %+v", res.Records)
	}
}

func TestDirTornFinalTailRepaired(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 40)
	last := filepath.Join(dir, segmentName(d.Seq()))
	d.Close()

	// Tear the final segment mid-frame.
	img, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, res := openTestDir(t, dir, 0, DirOptions{})
	defer d2.Close()
	if !res.Truncated || res.TailErr == nil {
		t.Fatalf("torn tail not reported: %+v", res)
	}
	if !isPrefix(res.Records, recordsUpTo(40)) {
		t.Fatal("replayed records are not a prefix of what was written")
	}
	// The tail is truncated on disk: appending and reopening is clean.
	appendN(t, d2, 100, 3)
	d2.Close()
	_, res = openTestDir(t, dir, 0, DirOptions{})
	if res.Truncated {
		t.Fatalf("tail repair did not stick: %v", res.TailErr)
	}
}

// recordsUpTo returns dirRec(0..n-1).
func recordsUpTo(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = dirRec(i)
	}
	return out
}

func TestDirTornNonFinalSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 40)
	if d.Segments() < 2 {
		t.Fatal("need at least two segments")
	}
	first := filepath.Join(dir, segmentName(1))
	d.Close()

	img, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir, 0, DirOptions{SegmentBytes: 64}); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("torn non-final segment: got %v, want ErrSegmentCorrupt", err)
	}
}

func TestDirMissingSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 40)
	if d.Segments() < 3 {
		t.Fatal("need at least three segments")
	}
	d.Close()
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir, 0, DirOptions{SegmentBytes: 64}); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("segment gap: got %v, want ErrSegmentCorrupt", err)
	}
}

func TestDirWatermarkRetention(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 40)

	// Checkpoint protocol steps 1+3 by hand: rotate, then pretend the
	// snapshot at the new watermark is durable and reopen with it.
	seq, err := d.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, d, 40, 3) // post-checkpoint mutations
	d.Close()

	d2, res, err := OpenDir(dir, seq, DirOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if res.Removed == 0 {
		t.Fatal("watermark reopen removed no stale segments")
	}
	if res.StartSeq != seq {
		t.Fatalf("StartSeq = %d, want watermark %d", res.StartSeq, seq)
	}
	// Only the post-watermark records replay.
	if !reflect.DeepEqual(res.Records, []Record{dirRec(40), dirRec(41), dirRec(42)}) {
		t.Fatalf("replayed %+v, want records 40..42", res.Records)
	}
	// Stale segments are gone from disk.
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Errorf("segment 1 survived retention: %v", err)
	}
}

func TestDirWatermarkMismatchIsCorruption(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 40)
	if d.Segments() < 3 {
		t.Fatal("need at least three segments")
	}
	d.Close()
	// A snapshot claims watermark 2, but segment 2 is gone while later
	// ones survive: the records between the watermark and the oldest
	// retained segment are lost.
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir, 2, DirOptions{SegmentBytes: 64}); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("watermark ahead of oldest segment: got %v, want ErrSegmentCorrupt", err)
	}
}

func TestDirAllSegmentsBelowWatermarkStartsFresh(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 5)
	d.Close()
	// Everything on disk is below the watermark: the snapshot already
	// contains it all, so retention finishes and a fresh segment starts
	// at the watermark — no corruption, nothing to replay.
	d2, res, err := OpenDir(dir, 5, DirOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(res.Records) != 0 || res.Removed == 0 || res.StartSeq != 5 {
		t.Fatalf("fresh-at-watermark open: %+v", res)
	}
}

func TestDirRemoveBelowKeepsCurrent(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	defer d.Close()
	appendN(t, d, 0, 40)
	cur := d.Seq()
	// Asking to remove past the current segment only removes below it.
	n, err := d.RemoveBelow(cur + 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Segments() != 1 || d.Seq() != cur {
		t.Fatalf("after RemoveBelow: %d segments, seq %d (want 1, %d)", d.Segments(), d.Seq(), cur)
	}
	if n == 0 {
		t.Fatal("nothing removed")
	}
}

// TestDirReset: a checkpoint's rotate + retention leaves the Dir as empty
// as a fresh one — one header-only segment — and only later appends
// replay.
func TestDirReset(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 40)
	seq, err := d.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RemoveBelow(seq); err != nil {
		t.Fatal(err)
	}
	if d.Segments() != 1 {
		t.Fatalf("after retention: %d segments, want 1", d.Segments())
	}
	if d.Size() != int64(len(Magic)) {
		t.Fatalf("after retention: size %d, want header only", d.Size())
	}
	appendN(t, d, 100, 2)
	d.Close()
	_, res := openTestDir(t, dir, seq, DirOptions{})
	if len(res.Records) != 2 {
		t.Fatalf("after retention+append: replayed %d records, want 2", len(res.Records))
	}
}

func TestDirHardBudgetRejects(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{Budget: Budget{HardBytes: 200}})
	defer d.Close()
	var rejected error
	for i := 0; i < 100; i++ {
		if err := d.Append(dirRec(i)); err != nil {
			rejected = err
			break
		}
	}
	if rejected == nil {
		t.Fatal("hard budget never rejected")
	}
	if !errors.Is(rejected, ErrNoSpace) || !IsNoSpace(rejected) {
		t.Fatalf("rejection = %v, want ErrNoSpace", rejected)
	}
	if d.Size() > 200 {
		t.Fatalf("budget breached: %d bytes on disk", d.Size())
	}
	// Freeing space (checkpoint-style) re-admits appends.
	seq, err := d.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RemoveBelow(seq); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(dirRec(999)); err != nil {
		t.Fatalf("append after retention: %v", err)
	}
}

func TestDirSoftWatermarkEdgeTriggered(t *testing.T) {
	dir := t.TempDir()
	var fires atomic.Int64
	d, _ := openTestDir(t, dir, 0, DirOptions{
		Budget: Budget{SoftBytes: 150},
		OnSoft: func(total int64) {
			if total < 150 {
				t.Errorf("OnSoft fired at %d bytes, below the watermark", total)
			}
			fires.Add(1)
		},
	})
	defer d.Close()
	appendN(t, d, 0, 30)
	if got := fires.Load(); got != 1 {
		t.Fatalf("OnSoft fired %d times for one crossing, want 1", got)
	}
	// Retention below the mark re-arms the trigger...
	seq, err := d.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RemoveBelow(seq); err != nil {
		t.Fatal(err)
	}
	// ...so the next crossing fires again.
	appendN(t, d, 100, 30)
	if got := fires.Load(); got != 2 {
		t.Fatalf("OnSoft fired %d times after re-arm, want 2", got)
	}
}

func TestDirReopenAboveSoftDoesNotRefire(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	appendN(t, d, 0, 30)
	d.Close()

	// Reopening an already-over-watermark dir arms softFired: the next
	// append must not fire (the supervisor checkpoints on its own clock;
	// the edge was crossed long ago).
	var fires atomic.Int64
	d2, _ := openTestDir(t, dir, 0, DirOptions{
		Budget: Budget{SoftBytes: 10},
		OnSoft: func(int64) { fires.Add(1) },
	})
	defer d2.Close()
	appendN(t, d2, 100, 1)
	if got := fires.Load(); got != 0 {
		t.Fatalf("OnSoft re-fired %d times on an already-crossed watermark", got)
	}
}

func TestDirInjectedENOSPCSurfacesAsNoSpace(t *testing.T) {
	dir := t.TempDir()
	var flaky *FlakyFile
	d, _ := openTestDir(t, dir, 0, DirOptions{
		SegmentBytes: 1 << 20, // no rotation: target the data path
		Wrap: func(f File) File {
			flaky = NewFlaky(f)
			return flaky
		},
	})
	defer d.Close()
	appendN(t, d, 0, 3)
	flaky.FailWithENOSPC(1)
	err := d.Append(dirRec(99))
	if err == nil {
		t.Fatal("injected ENOSPC did not surface")
	}
	if !IsNoSpace(err) {
		t.Fatalf("IsNoSpace(%v) = false", err)
	}
	// The fault is transient: the next append succeeds.
	if err := d.Append(dirRec(100)); err != nil {
		t.Fatalf("append after transient ENOSPC: %v", err)
	}
}

func TestDirGroupLogOverSegments(t *testing.T) {
	dir := t.TempDir()
	d, _ := openTestDir(t, dir, 0, DirOptions{})
	g := Group(d, GroupOptions{SyncEvery: 8})
	for i := 0; i < 40; i++ {
		if err := g.Append(dirRec(i)); err != nil {
			t.Fatalf("group append %d: %v", i, err)
		}
		if err := g.Commit(); err != nil {
			t.Fatalf("group commit %d: %v", i, err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Segments() < 2 {
		t.Fatalf("group flushes never rotated: %d segments", d.Segments())
	}
	d.Close()
	_, res := openTestDir(t, dir, 0, DirOptions{})
	if !reflect.DeepEqual(res.Records, recordsUpTo(40)) {
		t.Fatalf("group-written records mismatch: got %d records", len(res.Records))
	}
}
