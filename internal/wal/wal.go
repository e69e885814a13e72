package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Frame layout: every record is framed as
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of the payload
//	payload    (type byte + type-specific fields, see record.go)
//
// preceded once, at offset 0 of every segment file, by the 8-byte magic
// header. The frame is self-verifying: a reader accepts a record only
// when the full payload is present and its checksum matches, so a crash
// mid-write leaves a detectable torn tail rather than silent corruption.
const (
	// Magic identifies a WAL segment (8 bytes, includes format version).
	Magic = "RDFWAL1\n"
	// frameHeaderLen is the per-record framing overhead.
	frameHeaderLen = 8
	// MaxRecordLen bounds a single record payload; a length prefix above
	// it is treated as tail corruption, not an allocation request.
	MaxRecordLen = 1 << 24
)

// File is the sink a Dir appends a segment through. *os.File satisfies
// it; DirOptions.Wrap interposes fault-injection implementations (see
// faultfs.go).
type File interface {
	io.Writer
	// Sync makes previous writes durable (fsync for real files).
	Sync() error
	Close() error
}

// truncatable is implemented by files a Dir can roll back after a torn
// write — *os.File in particular.
type truncatable interface {
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
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
