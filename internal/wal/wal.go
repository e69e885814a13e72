package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Frame layout: every record is framed as
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of the payload
//	payload    (type byte + type-specific fields, see record.go)
//
// preceded once, at file offset 0, by the 8-byte magic header. The frame
// is self-verifying: a reader accepts a record only when the full payload
// is present and its checksum matches, so a crash mid-write leaves a
// detectable torn tail rather than silent corruption.
const (
	// Magic identifies a WAL file (8 bytes, includes format version).
	Magic = "RDFWAL1\n"
	// frameHeaderLen is the per-record framing overhead.
	frameHeaderLen = 8
	// MaxRecordLen bounds a single record payload; a length prefix above
	// it is treated as tail corruption, not an allocation request.
	MaxRecordLen = 1 << 24
)

// File is the sink a Log appends to. *os.File satisfies it; tests inject
// fault-injection implementations (see faultfs.go).
type File interface {
	io.Writer
	// Sync makes previous writes durable (fsync for real files).
	Sync() error
	Close() error
}

// truncatable is implemented by files that support checkpoint truncation
// (Reset) — *os.File in particular.
type truncatable interface {
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// Log appends mutation records to a File. Append is not durable until
// Commit; the store calls Commit at the end of each public mutation.
// Methods are safe for concurrent use, though the store already
// serializes appends under its write lock.
type Log struct {
	mu  sync.Mutex
	f   File
	buf []byte   // scratch frame buffer, reused across appends
	met *Metrics // nil when instrumentation is disabled
}

// SetMetrics attaches instrumentation. Call before the log is shared;
// a nil m (or never calling) leaves the log uninstrumented.
func (l *Log) SetMetrics(m *Metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met = m
}

// NewLog wraps an already-positioned File. When fresh is true the magic
// header is written first (the file must be empty).
func NewLog(f File, fresh bool) (*Log, error) {
	l := &Log{f: f}
	if fresh {
		if _, err := f.Write([]byte(Magic)); err != nil {
			return nil, fmt.Errorf("wal: writing header: %w", err)
		}
	}
	return l, nil
}

// OpenFile opens (or creates) a WAL at path for appending and collects
// its records into the result; see OpenFileWith.
func OpenFile(path string) (*Log, ScanResult, error) {
	var records []Record
	l, res, err := OpenFileWith(path, nil, collect(&records))
	res.Records = records
	return l, res, err
}

// OpenFileWith opens (or creates) a WAL at path for appending. Existing
// records are scanned with torn-tail tolerance and handed to fn as they
// are verified (nil to only verify), and the file itself is truncated to
// the verified prefix so subsequent appends extend valid data. An error
// from fn fails the open.
//
// wrap is an injection seam: when non-nil the Log appends through wrap(f)
// instead of the raw *os.File. Fault tests wrap the real file in a
// FlakyFile so the on-disk image stays genuine while writes and syncs
// misbehave on demand. Scanning and torn-tail truncation happen on the raw
// file, before wrapping.
func OpenFileWith(path string, wrap func(File) File, fn RecordFunc) (*Log, ScanResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ScanResult{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, ScanResult{}, err
	}
	sink := File(f)
	if wrap != nil {
		sink = wrap(f)
	}
	if st.Size() == 0 {
		l, err := NewLog(sink, true)
		if err != nil {
			sink.Close()
			return nil, ScanResult{}, err
		}
		return l, ScanResult{ValidBytes: int64(len(Magic))}, nil
	}
	res, err := ScanFunc(f, fn)
	if err != nil {
		f.Close()
		return nil, ScanResult{}, err
	}
	// Drop any torn tail so the next frame starts on a clean boundary.
	if err := f.Truncate(res.ValidBytes); err != nil {
		f.Close()
		return nil, ScanResult{}, err
	}
	if _, err := f.Seek(res.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, ScanResult{}, err
	}
	return &Log{f: sink}, res, nil
}

// appendFrame encodes one record, framed and checksummed, onto dst.
func appendFrame(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = appendPayload(dst, r)
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst
}

// Append frames and writes one record. The write is buffered by the OS
// until Commit; a crash before Commit may tear the frame, which recovery
// detects and truncates.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendFrame(l.buf[:0], &r)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append %s: %w", r.Type, err)
	}
	l.met.onAppend(len(l.buf))
	return nil
}

// writeRaw writes already-framed bytes to the underlying file — the flush
// path of a GroupLog, which frames records itself.
func (l *Log) writeRaw(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.f.Write(b)
	return err
}

// Commit makes all appended records durable.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	t0 := l.met.startTimer()
	if err := l.f.Sync(); err != nil {
		l.met.onFsyncError()
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.met.onFsync(t0)
	return nil
}

// Reset truncates the log back to its header — the checkpoint step after
// the store's state has been captured in a snapshot. It fails when the
// underlying File does not support truncation.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.f.(truncatable)
	if !ok {
		return fmt.Errorf("wal: underlying file %T does not support Reset", l.f)
	}
	if err := t.Truncate(int64(len(Magic))); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := t.Seek(int64(len(Magic)), io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.met.onReset()
	return l.f.Sync()
}

// Close syncs and closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
