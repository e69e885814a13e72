package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Segmented log: a Dir manages a directory of numbered segment files
//
//	wal-000001.log, wal-000002.log, ...
//
// each carrying the Magic header followed by CRC-framed records. A
// directory holding only wal-000001.log is a plain single-file log.
// Append only frames a record into the Dir's buffer; Commit writes the
// buffered frames to the highest-numbered (current) segment in one
// write(2) and fsyncs — one write per transaction, as a redo log buffer
// is written once at commit. When a write would grow the current
// segment past SegmentBytes the Dir rotates first: the current
// segment is fsynced, a fresh one is created, and writes continue there.
// Because rotation syncs before the next segment exists, every non-final
// segment ends on a frame boundary — recovery therefore tolerates a torn
// tail only in the final segment and reports damage anywhere else as
// ErrSegmentCorrupt rather than silently truncating history.
//
// Retention is deletion, not truncation: a checkpoint rotates, records
// the new segment number as a watermark inside the snapshot, and then
// removes every older segment (RemoveBelow). Recovery finishes an
// interrupted removal by deleting segments below the snapshot's
// watermark before replaying, so every crash window between "snapshot
// durable" and "old segments gone" converges to the same state.
//
// On top sits a byte budget for the directory: crossing Budget.SoftBytes
// fires OnSoft (the supervisor's cue to checkpoint), and a write that
// would cross Budget.HardBytes is rejected with ErrNoSpace before it
// touches the disk — the same typed family a real ENOSPC from the
// filesystem is classified into by IsNoSpace.

// ErrNoSpace reports a write rejected by the Dir's hard byte budget.
// It is in the same fault family as a filesystem ENOSPC: IsNoSpace
// matches both, and the supervisor degrades to read-only disk-pressure
// mode on either.
var ErrNoSpace = errors.New("wal: disk budget exhausted")

// ErrSegmentCorrupt reports damage in a non-final segment. Rotation
// syncs a segment before creating its successor, so only the final
// segment may legitimately end mid-frame; a torn, truncated, or
// unreadable earlier segment means history is gone and replay cannot
// be trusted.
var ErrSegmentCorrupt = errors.New("wal: non-final segment damaged")

// IsNoSpace reports whether err is a disk-space exhaustion fault: the
// Dir's own budget rejection (ErrNoSpace), a filesystem ENOSPC, or a
// short write (the form ENOSPC takes mid-write(2)).
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrNoSpace) ||
		errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, io.ErrShortWrite)
}

// Budget bounds the WAL directory's total size.
type Budget struct {
	// SoftBytes, when positive, is the watermark at which OnSoft fires
	// (once per crossing): the supervisor's cue to checkpoint and free
	// segments before the hard limit is reached.
	SoftBytes int64
	// HardBytes, when positive, is the ceiling: a write that would push
	// the directory past it is rejected with ErrNoSpace.
	HardBytes int64
}

// DirOptions configure a segmented WAL directory.
type DirOptions struct {
	// SegmentBytes is the rotation threshold: a write that would grow
	// the current segment past it first rotates to a fresh segment.
	// 0 means the 64 MiB default. A write — the frames buffered since
	// the last one: a commit's, a group's, or a maxPending piece of a
	// huge transaction — never spans segments: one larger than the
	// threshold still lands, in a segment of its own.
	SegmentBytes int64
	// Budget bounds the directory's total size; the zero value disables
	// both watermarks.
	Budget Budget
	// Wrap, when non-nil, interposes on every segment file the Dir
	// appends to (fault injection: wrap the real *os.File in a
	// FlakyFile, or a FaultInjector's). Recovery scanning always reads
	// the raw files.
	Wrap func(File) File
	// OnSoft is called (outside the Dir's lock) when a write first
	// pushes the directory past Budget.SoftBytes; it re-arms once
	// retention brings the total back under the watermark.
	OnSoft func(totalBytes int64)
}

// DefaultSegmentBytes is the rotation threshold used when
// DirOptions.SegmentBytes is zero.
const DefaultSegmentBytes int64 = 64 << 20

// maxPending bounds the frames a Dir buffers between writes: Append
// writes the buffer early once it reaches this size, so a huge
// transaction reaches the segment in several writes, each ending on a
// frame boundary.
const maxPending = 1 << 20

// DirScanResult is the outcome of opening a segmented WAL: what recovery
// found and repaired on the way, and with OpenDir the replayable records.
type DirScanResult struct {
	// Records holds every verified record across all retained segments,
	// in append order — filled by OpenDir only; OpenDirFunc hands records
	// to its callback and keeps none.
	Records []Record
	// Segments is the number of retained segment files (current included).
	Segments int
	// StartSeq and Seq are the first and current (last) segment numbers.
	StartSeq, Seq int64
	// TotalBytes is the directory's size after tail repair.
	TotalBytes int64
	// Truncated reports that the final segment had a torn tail, now
	// discarded; TailErr says why scanning stopped.
	Truncated bool
	TailErr   error
	// Removed is the number of segments below the watermark that were
	// deleted at open — an interrupted checkpoint's retention, finished.
	Removed int
	// ScanTime is the time spent reading, verifying and decoding the
	// segments, apart from the time spent inside the callback.
	ScanTime time.Duration
}

// Dir is the write-ahead log: a core.Durability (Append, then Commit at
// each commit point) over a directory of segments, whose space a
// checkpoint reclaims by deleting whole segments (Rotate, then
// RemoveBelow once the snapshot is durable) — never by truncating a live
// file. Appended frames wait in the Dir's buffer until Commit, Rotate or
// Close writes them (or the buffer reaches maxPending), so every write
// error, budget rejection included, surfaces there.
type Dir struct {
	mu   sync.Mutex
	path string
	opts DirOptions

	seq   int64 // current (append) segment number
	start int64 // oldest retained segment number
	f     File  // wrapped sink for the current segment
	size  int64 // bytes in the current segment (header included)
	prev  int64 // bytes across retained non-current segments

	buf       []byte   // frames appended since the last write, not yet on disk
	met       *Metrics // nil when instrumentation is disabled
	softFired bool     // soft watermark crossed; re-arms below the mark
	poisoned  error    // torn write could not be rolled back; see writeLocked
	closed    bool
}

// segmentName renders the file name for segment seq.
func segmentName(seq int64) string {
	return fmt.Sprintf("wal-%06d.log", seq)
}

// parseSegmentName extracts the sequence number from a segment file
// name, reporting ok=false for files that are not segments.
func parseSegmentName(name string) (int64, bool) {
	const pre, suf = "wal-", ".log"
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	seq, err := strconv.ParseInt(name[len(pre):len(name)-len(suf)], 10, 64)
	if err != nil || seq < 1 || segmentName(seq) != name {
		return 0, false
	}
	return seq, true
}

// OpenDir is OpenDirFunc collecting the records into the result.
func OpenDir(dir string, fromSeq int64, opts DirOptions) (*Dir, DirScanResult, error) {
	var records []Record
	d, res, err := OpenDirFunc(dir, fromSeq, opts, collect(&records))
	res.Records = records
	return d, res, err
}

// OpenDirFunc opens (or creates) a segmented WAL in dir. fromSeq is the
// snapshot's watermark: segments numbered below it describe state the
// snapshot already contains and are deleted before replay (finishing any
// retention a crash interrupted); pass 0 when there is no snapshot.
//
// The retained segments are scanned in order and every verified record is
// handed to fn as it is read (nil to only verify): the log is never held
// in memory. An error from fn fails the open. Damage in any non-final
// segment is ErrSegmentCorrupt — found when the scan reaches it, after fn
// has seen the records before it; a torn tail in the final segment is
// repaired (truncated) and reported via the DirScanResult, after which the
// Dir appends from the verified end.
func OpenDirFunc(dir string, fromSeq int64, opts DirOptions, fn RecordFunc) (*Dir, DirScanResult, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, DirScanResult{}, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, DirScanResult{}, err
	}
	var seqs []int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	var res DirScanResult
	// Finish any interrupted retention: the snapshot at watermark fromSeq
	// already holds everything below it.
	retained := seqs[:0]
	for _, seq := range seqs {
		if seq < fromSeq {
			if err := os.Remove(filepath.Join(dir, segmentName(seq))); err != nil {
				return nil, DirScanResult{}, fmt.Errorf("wal: removing stale segment %s: %w", segmentName(seq), err)
			}
			res.Removed++
			continue
		}
		retained = append(retained, seq)
	}
	seqs = retained

	d := &Dir{path: dir, opts: opts}
	if len(seqs) == 0 {
		// Fresh directory (or everything was below the watermark): start a
		// new segment at the watermark so replay ordering stays monotone.
		seq := fromSeq
		if seq < 1 {
			seq = 1
		}
		if err := d.createSegmentLocked(seq); err != nil {
			return nil, DirScanResult{}, err
		}
		d.start = seq
		res.Segments, res.StartSeq, res.Seq, res.TotalBytes = 1, seq, seq, d.size
		d.updateGaugesLocked()
		return d, res, nil
	}

	// A gap in the retained sequence means a whole segment of history is
	// missing — replay past it would silently skip committed mutations.
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			return nil, DirScanResult{}, fmt.Errorf("%w: segment %s missing (have %s then %s)",
				ErrSegmentCorrupt, segmentName(seqs[i-1]+1), segmentName(seqs[i-1]), segmentName(seqs[i]))
		}
	}
	if fromSeq > 0 && seqs[0] != fromSeq {
		return nil, DirScanResult{}, fmt.Errorf("%w: snapshot watermark is %s but the oldest segment is %s",
			ErrSegmentCorrupt, segmentName(fromSeq), segmentName(seqs[0]))
	}

	// An error from fn comes back as it went in, not as damage to the
	// segment whose record raised it.
	var fnErr error
	apply := fn
	if fn != nil {
		apply = func(r *Record) error {
			fnErr = fn(r)
			return fnErr
		}
	}
	for i, seq := range seqs {
		name := segmentName(seq)
		path := filepath.Join(dir, name)
		final := i == len(seqs)-1
		if !final {
			f, err := os.Open(path)
			if err != nil {
				return nil, DirScanResult{}, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, name, err)
			}
			sres, err := ScanFunc(f, apply)
			f.Close()
			res.ScanTime += sres.ScanTime
			if fnErr != nil {
				return nil, DirScanResult{}, fnErr
			}
			if err != nil {
				return nil, DirScanResult{}, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, name, err)
			}
			if sres.Truncated {
				return nil, DirScanResult{}, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, name, sres.TailErr)
			}
			if sres.ValidBytes < int64(len(Magic)) {
				return nil, DirScanResult{}, fmt.Errorf("%w: %s: empty segment before the final one", ErrSegmentCorrupt, name)
			}
			d.prev += sres.ValidBytes
			continue
		}
		// Final segment: tolerate (and repair) a torn tail, then keep it
		// open for appends from the verified end.
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, DirScanResult{}, err
		}
		sres, err := ScanFunc(f, apply)
		res.ScanTime += sres.ScanTime
		if err != nil {
			f.Close()
			if fnErr != nil {
				return nil, DirScanResult{}, fnErr
			}
			return nil, DirScanResult{}, fmt.Errorf("wal: %s: %w", name, err)
		}
		if err := f.Truncate(sres.ValidBytes); err != nil {
			f.Close()
			return nil, DirScanResult{}, err
		}
		if _, err := f.Seek(sres.ValidBytes, io.SeekStart); err != nil {
			f.Close()
			return nil, DirScanResult{}, err
		}
		sink := File(f)
		if opts.Wrap != nil {
			sink = opts.Wrap(f)
		}
		d.f, d.seq, d.size = sink, seq, sres.ValidBytes
		if sres.ValidBytes < int64(len(Magic)) {
			// The crash tore even the header off (a segment created but
			// never written): rewrite it so appends have a valid file.
			if _, err := sink.Write([]byte(Magic)); err != nil {
				sink.Close()
				return nil, DirScanResult{}, fmt.Errorf("wal: rewriting header of %s: %w", name, err)
			}
			d.size = int64(len(Magic))
		}
		res.Truncated, res.TailErr = sres.Truncated, sres.TailErr
	}
	d.start = seqs[0]
	res.Segments = len(seqs)
	res.StartSeq, res.Seq = seqs[0], d.seq
	res.TotalBytes = d.prev + d.size
	d.softFired = opts.Budget.SoftBytes > 0 && res.TotalBytes >= opts.Budget.SoftBytes
	d.updateGaugesLocked()
	return d, res, nil
}

// createSegmentLocked creates segment seq with a fresh header and makes
// it the current sink. Caller holds d.mu (or owns d exclusively).
func (d *Dir) createSegmentLocked(seq int64) error {
	f, err := os.OpenFile(filepath.Join(d.path, segmentName(seq)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	sink := File(f)
	if d.opts.Wrap != nil {
		sink = d.opts.Wrap(f)
	}
	if _, err := sink.Write([]byte(Magic)); err != nil {
		sink.Close()
		os.Remove(filepath.Join(d.path, segmentName(seq)))
		return fmt.Errorf("wal: writing header of %s: %w", segmentName(seq), err)
	}
	d.f, d.seq, d.size = sink, seq, int64(len(Magic))
	return nil
}

// SetMetrics attaches instrumentation. Call before the Dir is shared.
func (d *Dir) SetMetrics(m *Metrics) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.met = m
	d.updateGaugesLocked()
}

// updateGaugesLocked refreshes the segment-count and disk-bytes gauges.
func (d *Dir) updateGaugesLocked() {
	d.met.setDiskUsage(int(d.seq-d.start+1), d.prev+d.size)
}

// rotateLocked syncs and retires the current segment and starts the
// next. On failure the current segment stays active. Caller holds d.mu.
func (d *Dir) rotateLocked() error {
	if err := d.f.Sync(); err != nil {
		d.met.onFsyncError()
		return fmt.Errorf("wal: rotate: syncing %s: %w", segmentName(d.seq), err)
	}
	old, oldSize := d.f, d.size
	if err := d.createSegmentLocked(d.seq + 1); err != nil {
		// d.f/d.seq/d.size are untouched: the old segment remains current.
		return fmt.Errorf("wal: rotate: %w", err)
	}
	old.Close()
	d.prev += oldSize
	d.met.onRotate()
	d.updateGaugesLocked()
	return nil
}

// writeLocked rotates if the write would overflow the segment, enforces
// the hard budget, and writes b to the current segment. It returns
// whether the soft watermark was crossed by this write (the caller fires
// OnSoft after unlocking). Caller holds d.mu.
func (d *Dir) writeLocked(b []byte) (fireSoft bool, err error) {
	if err := d.usableLocked(); err != nil {
		return false, err
	}
	if d.size > int64(len(Magic)) && d.size+int64(len(b)) > d.opts.SegmentBytes {
		if err := d.rotateLocked(); err != nil {
			return false, err
		}
	}
	if hard := d.opts.Budget.HardBytes; hard > 0 && d.prev+d.size+int64(len(b)) > hard {
		d.met.onBudgetReject()
		return false, fmt.Errorf("%w: %d bytes + %d-byte write exceeds the %d-byte hard budget",
			ErrNoSpace, d.prev+d.size, len(b), hard)
	}
	pre := d.size
	n, werr := d.f.Write(b)
	if n > 0 {
		d.size += int64(n)
		d.updateGaugesLocked()
	}
	if werr != nil {
		if n > 0 {
			// A prefix of the frames landed (the shape ENOSPC takes
			// mid-write(2)). Roll the segment back to the pre-write frame
			// boundary: if a later write continued past the tear, a
			// subsequent rotation would fossilize it mid-segment, which
			// recovery rightly refuses as ErrSegmentCorrupt. When the
			// rollback itself fails the Dir poisons instead — every further
			// write is refused until the supervisor replaces the Dir
			// (reopening repairs the torn tail on disk).
			if rerr := d.rollbackLocked(pre); rerr != nil {
				d.poisoned = fmt.Errorf("wal: %s: torn write not rolled back (%v) after: %w",
					segmentName(d.seq), rerr, werr)
			}
		}
		return false, werr
	}
	if soft := d.opts.Budget.SoftBytes; soft > 0 && !d.softFired && d.prev+d.size >= soft {
		d.softFired = true
		d.met.onSoftWatermark()
		fireSoft = true
	}
	return fireSoft, nil
}

// rollbackLocked truncates the current segment back to size pre after a
// torn write, restoring the invariant that the write offset sits on a
// frame boundary. Caller holds d.mu.
func (d *Dir) rollbackLocked(pre int64) error {
	tf, ok := d.f.(truncatable)
	if !ok {
		return fmt.Errorf("sink %T does not support truncation", d.f)
	}
	if err := tf.Truncate(pre); err != nil {
		return err
	}
	if _, err := tf.Seek(pre, io.SeekStart); err != nil {
		return err
	}
	d.size = pre
	d.updateGaugesLocked()
	return nil
}

// Append frames one record into the Dir's buffer. It does no I/O
// unless the buffer reaches maxPending; the frames reach the current
// segment in one write at the next Commit, Rotate or Close.
func (d *Dir) Append(r Record) error {
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return fmt.Errorf("wal: append %s: %w", r.Type, err)
	}
	before := len(d.buf)
	d.buf = appendFrame(d.buf, &r)
	d.met.onAppend(len(d.buf) - before)
	var fire bool
	var err error
	if len(d.buf) >= maxPending {
		fire, err = d.writePendingLocked()
	}
	d.unlockFiring(fire)
	if err != nil {
		return fmt.Errorf("wal: append %s: %w", r.Type, err)
	}
	return nil
}

// usableLocked refuses a closed or poisoned Dir. Caller holds d.mu.
func (d *Dir) usableLocked() error {
	if d.closed {
		return errors.New("wal: write on closed dir")
	}
	return d.poisoned
}

// writePendingLocked writes the buffered frames, if any, in one write
// and empties the buffer — on failure too: the frames belong to a
// transaction its caller reports as failed, and writeLocked has rolled
// any torn prefix back off the segment. Caller holds d.mu.
func (d *Dir) writePendingLocked() (fireSoft bool, err error) {
	if len(d.buf) == 0 {
		return false, nil
	}
	fireSoft, err = d.writeLocked(d.buf)
	d.buf = d.buf[:0]
	return fireSoft, err
}

// unlockFiring releases d.mu and then, when a write crossed the soft
// watermark, calls OnSoft with the directory's size.
func (d *Dir) unlockFiring(fire bool) {
	total := d.prev + d.size
	d.mu.Unlock()
	if fire && d.opts.OnSoft != nil {
		d.opts.OnSoft(total)
	}
}

// Commit makes all appended records durable: the buffered frames in one
// write to the current segment, then its fsync (older segments were
// synced when they were rotated away).
func (d *Dir) Commit() error {
	d.mu.Lock()
	fire, err := d.writePendingLocked()
	if err == nil {
		t0 := d.met.startTimer()
		if err = d.f.Sync(); err != nil {
			d.met.onFsyncError()
			err = fmt.Errorf("wal: sync %s: %w", segmentName(d.seq), err)
		} else {
			d.met.onFsync(t0)
		}
	} else {
		err = fmt.Errorf("wal: commit: %w", err)
	}
	d.unlockFiring(fire)
	return err
}

// Rotate forces a segment boundary and returns the new current segment
// number — the checkpoint protocol's first step: everything the snapshot
// will contain now lives in segments below the returned number. Buffered
// frames are written first, so the records of a transaction that failed
// after applying some of them land below the watermark with the state
// the snapshot holds, not above it where replay would apply them twice.
func (d *Dir) Rotate() (int64, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, errors.New("wal: rotate on closed dir")
	}
	fire, err := d.writePendingLocked()
	if err == nil {
		err = d.rotateLocked()
	}
	seq := d.seq
	d.unlockFiring(fire)
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// RemoveBelow deletes every retained segment numbered below seq (the
// current segment is never deleted) and returns how many were removed —
// the checkpoint protocol's final step, after the snapshot recording seq
// as its watermark is durable.
func (d *Dir) RemoveBelow(seq int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, errors.New("wal: remove on closed dir")
	}
	removed := 0
	for s := d.start; s < seq && s < d.seq; s++ {
		path := filepath.Join(d.path, segmentName(s))
		st, err := os.Stat(path)
		if err != nil {
			return removed, fmt.Errorf("wal: retention: %w", err)
		}
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("wal: retention: %w", err)
		}
		d.prev -= st.Size()
		d.start = s + 1
		removed++
	}
	if removed > 0 {
		d.met.onRetire(removed)
		d.updateGaugesLocked()
	}
	if soft := d.opts.Budget.SoftBytes; soft > 0 && d.prev+d.size < soft {
		d.softFired = false
	}
	return removed, nil
}

// Seq returns the current (append) segment number.
func (d *Dir) Seq() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Segments returns the number of retained segment files.
func (d *Dir) Segments() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.seq - d.start + 1)
}

// Size returns the directory's total bytes across retained segments.
func (d *Dir) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.prev + d.size
}

// Path returns the directory the segments live in.
func (d *Dir) Path() string { return d.path }

// Close writes any buffered frames, then syncs and closes the current
// segment.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	_, werr := d.writePendingLocked()
	d.closed = true
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	return werr
}
