package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// ErrNotWAL reports a file whose header is not the WAL magic — a wrong
// file passed to recovery, as opposed to a damaged log.
var ErrNotWAL = errors.New("wal: not a WAL file (bad magic)")

// ScanResult is the outcome of reading a log.
type ScanResult struct {
	// Records holds every verified record, in append order — filled by
	// the collecting readers (Scan, ScanFile, ScanBytes, OpenFile) only;
	// ScanFunc hands records to its callback and keeps none.
	Records []Record
	// ValidBytes is the length of the verified prefix (header included);
	// a recovering writer truncates the file to this length.
	ValidBytes int64
	// Truncated reports that bytes after the verified prefix were
	// discarded (torn write or corruption at the tail).
	Truncated bool
	// TailErr describes why scanning stopped when Truncated is set.
	TailErr error
	// ScanTime is the time spent reading, verifying and decoding, apart
	// from the time spent inside the callback.
	ScanTime time.Duration
}

const (
	// scanWindow is the scanner's read buffer: a segment is read in
	// megabyte read(2) calls, not two per record.
	scanWindow = 1 << 20
	// scanSlab is how many records are decoded ahead of the callback.
	// Decoding in slabs gives the scan/apply time split two clock reads
	// per slab instead of two per record.
	scanSlab = 256
)

// scanner is the state one scan needs, pooled because a recovery scans
// many segments and a crash-matrix test many thousands of images.
type scanner struct {
	buf  []byte
	recs [scanSlab]Record
}

var scanners = sync.Pool{New: func() any { return &scanner{buf: make([]byte, scanWindow)} }}

// RecordFunc receives the records of a log being read, one call each, in
// append order. The record belongs to the reader: its free-text strings
// alias the read buffer and are valid only until the call returns (Clone
// to keep). An error stops the read and is returned by it as is.
type RecordFunc = func(*Record) error

// ScanFunc reads records from r until EOF or the first damaged frame and
// hands each verified record to fn (nil to only verify). A short, torn, or
// checksum-failing tail is not an error: scanning stops, the damage is
// reported via Truncated/TailErr, and every record before it has been
// delivered. Only a bad magic header, a read failure of the medium
// itself, or an error from fn is a hard error.
func ScanFunc(r io.Reader, fn RecordFunc) (ScanResult, error) {
	sc := scanners.Get().(*scanner)
	defer scanners.Put(sc)
	return sc.scan(r, fn)
}

// window is a read buffer over r: buf[lo:hi] is read and not yet consumed.
type window struct {
	r      io.Reader
	buf    []byte
	lo, hi int
	eof    bool
}

// need makes n unread bytes available when the input has that many. The
// unread bytes move to the front of the buffer, so nothing decoded out of
// it before the call may still be in use.
func (w *window) need(n int) error {
	if w.hi-w.lo >= n || w.eof {
		return nil
	}
	if n > len(w.buf) { // one frame larger than the window
		w.buf = append(make([]byte, 0, n), w.buf[w.lo:w.hi]...)[:n]
	} else {
		copy(w.buf, w.buf[w.lo:w.hi])
	}
	w.lo, w.hi = 0, w.hi-w.lo
	for w.hi < n {
		m, err := w.r.Read(w.buf[w.hi:])
		w.hi += m
		if err == io.EOF {
			w.eof = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scan is the one decode loop: every reader of a log is a caller of it.
func (sc *scanner) scan(r io.Reader, fn RecordFunc) (res ScanResult, err error) {
	start, inFn := time.Now(), time.Duration(0)
	defer func() { res.ScanTime = time.Since(start) - inFn }()
	w := window{r: r, buf: sc.buf}
	if err := w.need(len(Magic)); err != nil {
		return res, err
	}
	if w.hi < len(Magic) {
		// Shorter than a header: an empty or torn-at-birth log.
		if res.Truncated = w.hi > 0; res.Truncated {
			res.TailErr = fmt.Errorf("wal: truncated header (%d bytes)", w.hi)
		}
		return res, nil
	}
	if magic := w.buf[:len(Magic)]; string(magic) != Magic {
		return res, fmt.Errorf("%w: %q", ErrNotWAL, magic)
	}
	w.lo = len(Magic)
	off := int64(len(Magic)) // offset of the next frame to decode
	records := 0             // records decoded so far
	for {
		// Decode a slab out of the window, stopping at damage (tail), at a
		// frame the window holds only part of (short), or when it is full.
		n, short := 0, 0
		var tail error
		for n < len(sc.recs) {
			have := w.buf[w.lo:w.hi]
			if len(have) < frameHeaderLen {
				short = frameHeaderLen
				break
			}
			length := binary.LittleEndian.Uint32(have[0:4])
			sum := binary.LittleEndian.Uint32(have[4:8])
			if length == 0 || length > MaxRecordLen {
				tail = fmt.Errorf("wal: implausible record length %d at offset %d", length, off)
				break
			}
			frame := frameHeaderLen + int(length)
			if len(have) < frame {
				short = frame
				break
			}
			payload := have[frameHeaderLen:frame]
			if got := crc32.ChecksumIEEE(payload); got != sum {
				tail = fmt.Errorf("wal: checksum mismatch at offset %d (record %d): got %08x, want %08x",
					off, records, got, sum)
				break
			}
			if err := decodePayload(payload, &sc.recs[n]); err != nil {
				// Checksum passed but the payload is not decodable: a format
				// mismatch, not a torn write. Stop here too, but surface it.
				tail = fmt.Errorf("wal: record %d at offset %d: %w", records, off, err)
				break
			}
			n++
			records++
			w.lo += frame
			off += int64(frame)
		}
		if fn != nil && n > 0 {
			t0 := time.Now()
			for i := range sc.recs[:n] {
				if err := fn(&sc.recs[i]); err != nil {
					return res, err
				}
			}
			inFn += time.Since(t0)
		}
		res.ValidBytes = off
		switch {
		case tail != nil:
			res.Truncated, res.TailErr = true, tail
			return res, nil
		case short == 0: // slab full; the window has more
		case !w.eof:
			if err := w.need(short); err != nil {
				return res, err
			}
		case w.hi == w.lo:
			return res, nil // clean end on a frame boundary
		default:
			res.Truncated = true
			if short == frameHeaderLen {
				res.TailErr = fmt.Errorf("wal: torn frame header at offset %d", off)
			} else {
				res.TailErr = fmt.Errorf("wal: torn record payload at offset %d", off)
			}
			return res, nil
		}
	}
}

// collect is the ScanFunc callback of the collecting readers: it appends a
// copy of each record to *dst.
func collect(dst *[]Record) RecordFunc {
	return func(r *Record) error {
		*dst = append(*dst, r.Clone())
		return nil
	}
}

// scanAll is ScanFunc collecting the records into the result. size, the
// log's length in bytes when known, sizes the slice once — grown by
// doubling it is copied and cleared several times over, which costs more
// than the decoding does.
func scanAll(r io.Reader, size int64) (ScanResult, error) {
	const typicalFrame = 48 // bytes; a store's records average 50–55
	records := make([]Record, 0, size/typicalFrame)
	res, err := ScanFunc(r, collect(&records))
	res.Records = records
	return res, err
}

// Scan is ScanFunc collecting the records into the result.
func Scan(r io.Reader) (ScanResult, error) { return scanAll(r, 0) }

// ScanFile scans a WAL file on disk (read-only).
func ScanFile(path string) (ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanResult{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return ScanResult{}, err
	}
	return scanAll(f, st.Size())
}

// ScanBytes scans an in-memory log image.
func ScanBytes(b []byte) (ScanResult, error) {
	return scanAll(bytes.NewReader(b), int64(len(b)))
}
