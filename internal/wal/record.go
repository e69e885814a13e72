// Package wal implements a write-ahead log of the store's logical
// mutations: an append-only sequence of length-prefixed, CRC32-checksummed
// records. The paper's Oracle deployment gets redo logging and crash
// recovery from the database engine; this package supplies the equivalent
// for the memory-resident reproduction. Any prefix of the record stream
// describes a consistent store state, so recovery after a crash replays
// the longest verifiable prefix and truncates a torn or corrupted tail.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"unsafe"
)

// Type discriminates logical mutation records.
type Type uint8

// Record types, one per logical mutation of the central schema.
const (
	// TypeCreateModel registers a model in rdf_model$ (plus its view).
	TypeCreateModel Type = iota + 1
	// TypeDropModel removes a model: links, blank mappings, catalog row,
	// view, and orphaned nodes (replay re-runs the drop logic).
	TypeDropModel
	// TypeInternValue inserts a new rdf_value$ row for a term.
	TypeInternValue
	// TypeInsertLink inserts a new rdf_link$ row (nodes are derived state
	// and re-interned on replay).
	TypeInsertLink
	// TypeUpdateLink sets a link's COST and CONTEXT to absolute values
	// (repeated insert, context upgrade, or reference-count decrement).
	TypeUpdateLink
	// TypeDeleteLink removes a link row (and orphaned nodes, on replay).
	TypeDeleteLink
	// TypeBlankNode records a rdf_blank_node$ mapping from a user label to
	// its model-scoped internal value.
	TypeBlankNode
	// TypeSeqAdvance moves a sequence forward so replayed stores never
	// re-issue IDs consumed before the crash.
	TypeSeqAdvance
	// TypeSnapshotEnd is a snapshot's last record: it marks the stream
	// complete and carries, in SeqValue, the WAL watermark — the first
	// segment the snapshot does not contain. It is never a mutation, so
	// no segment may hold one.
	TypeSnapshotEnd

	maxType = TypeSnapshotEnd
)

// String names the record type for diagnostics.
func (t Type) String() string {
	switch t {
	case TypeCreateModel:
		return "CreateModel"
	case TypeDropModel:
		return "DropModel"
	case TypeInternValue:
		return "InternValue"
	case TypeInsertLink:
		return "InsertLink"
	case TypeUpdateLink:
		return "UpdateLink"
	case TypeDeleteLink:
		return "DeleteLink"
	case TypeBlankNode:
		return "BlankNode"
	case TypeSeqAdvance:
		return "SeqAdvance"
	case TypeSnapshotEnd:
		return "SnapshotEnd"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Seq identifies one of the store's ID sequences in a TypeSeqAdvance
// record.
type Seq uint8

// The store's four sequences.
const (
	SeqValue Seq = iota + 1
	SeqLink
	SeqModel
	SeqBlank
)

// Record is one logical mutation. Only the fields relevant to the record
// Type are encoded; the rest stay zero.
type Record struct {
	Type Type

	// Model records (and BlankNode, which reuses ModelID + Name for the
	// original user label).
	ModelID    int64
	Name       string
	TableName  string
	ColumnName string

	// Value records: the interned term.
	ValueID     int64
	Text        string
	ValueType   string // rdfterm VT* code
	LiteralType string
	Language    string

	// Link records.
	LinkID   int64
	StartID  int64
	PropID   int64
	EndID    int64
	CanonID  int64
	LinkType string
	Cost     int64
	Context  string
	Reif     bool

	// Sequence records; SeqValue is also a TypeSnapshotEnd's watermark.
	Seq      Seq
	SeqValue int64
}

// Clone returns a copy of r that shares no memory with it: a record handed
// to a ScanFunc callback aliases the scanner's buffer in its free-text
// fields (ValueType, LinkType and Context never do, see payloadDecoder.enum).
func (r *Record) Clone() Record {
	c := *r
	c.Name = strings.Clone(r.Name)
	c.TableName = strings.Clone(r.TableName)
	c.ColumnName = strings.Clone(r.ColumnName)
	c.Text = strings.Clone(r.Text)
	c.LiteralType = strings.Clone(r.LiteralType)
	c.Language = strings.Clone(r.Language)
	return c
}

// ErrBadRecord reports a payload that passed its checksum but does not
// decode — a format/version mismatch rather than a torn write.
var ErrBadRecord = errors.New("wal: malformed record payload")

// appendPayload encodes the record body (without framing) onto dst.
func appendPayload(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Type))
	switch r.Type {
	case TypeCreateModel:
		dst = binary.AppendVarint(dst, r.ModelID)
		dst = appendString(dst, r.Name)
		dst = appendString(dst, r.TableName)
		dst = appendString(dst, r.ColumnName)
	case TypeDropModel:
		dst = binary.AppendVarint(dst, r.ModelID)
		dst = appendString(dst, r.Name)
	case TypeInternValue:
		dst = binary.AppendVarint(dst, r.ValueID)
		dst = appendString(dst, r.Text)
		dst = appendString(dst, r.ValueType)
		dst = appendString(dst, r.LiteralType)
		dst = appendString(dst, r.Language)
	case TypeInsertLink:
		dst = binary.AppendVarint(dst, r.LinkID)
		dst = binary.AppendVarint(dst, r.ModelID)
		dst = binary.AppendVarint(dst, r.StartID)
		dst = binary.AppendVarint(dst, r.PropID)
		dst = binary.AppendVarint(dst, r.EndID)
		dst = binary.AppendVarint(dst, r.CanonID)
		dst = appendString(dst, r.LinkType)
		dst = binary.AppendVarint(dst, r.Cost)
		dst = appendString(dst, r.Context)
		dst = appendBool(dst, r.Reif)
	case TypeUpdateLink:
		dst = binary.AppendVarint(dst, r.LinkID)
		dst = binary.AppendVarint(dst, r.Cost)
		dst = appendString(dst, r.Context)
	case TypeDeleteLink:
		dst = binary.AppendVarint(dst, r.LinkID)
	case TypeBlankNode:
		dst = binary.AppendVarint(dst, r.ModelID)
		dst = appendString(dst, r.Name)
		dst = binary.AppendVarint(dst, r.ValueID)
	case TypeSeqAdvance:
		dst = append(dst, byte(r.Seq))
		dst = binary.AppendVarint(dst, r.SeqValue)
	case TypeSnapshotEnd:
		dst = binary.AppendVarint(dst, r.SeqValue)
	}
	return dst
}

// decodePayload is the inverse of appendPayload. It overwrites *r, whose
// free-text strings then alias p.
func decodePayload(p []byte, r *Record) error {
	d := payloadDecoder{buf: p}
	*r = Record{Type: Type(d.byte())}
	if r.Type == 0 || r.Type > maxType {
		return fmt.Errorf("%w: unknown type %d", ErrBadRecord, r.Type)
	}
	switch r.Type {
	case TypeCreateModel:
		r.ModelID = d.varint()
		r.Name = d.string()
		r.TableName = d.string()
		r.ColumnName = d.string()
	case TypeDropModel:
		r.ModelID = d.varint()
		r.Name = d.string()
	case TypeInternValue:
		r.ValueID = d.varint()
		r.Text = d.string()
		r.ValueType = d.enum()
		r.LiteralType = d.string()
		r.Language = d.string()
	case TypeInsertLink:
		r.LinkID = d.varint()
		r.ModelID = d.varint()
		r.StartID = d.varint()
		r.PropID = d.varint()
		r.EndID = d.varint()
		r.CanonID = d.varint()
		r.LinkType = d.enum()
		r.Cost = d.varint()
		r.Context = d.enum()
		r.Reif = d.bool()
	case TypeUpdateLink:
		r.LinkID = d.varint()
		r.Cost = d.varint()
		r.Context = d.enum()
	case TypeDeleteLink:
		r.LinkID = d.varint()
	case TypeBlankNode:
		r.ModelID = d.varint()
		r.Name = d.string()
		r.ValueID = d.varint()
	case TypeSeqAdvance:
		r.Seq = Seq(d.byte())
		r.SeqValue = d.varint()
	case TypeSnapshotEnd:
		r.SeqValue = d.varint()
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", ErrBadRecord, len(d.buf), r.Type)
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// payloadDecoder consumes a payload buffer, latching the first error so
// call sites stay linear.
type payloadDecoder struct {
	buf []byte
	err error
}

func (d *payloadDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short payload", ErrBadRecord)
	}
}

func (d *payloadDecoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *payloadDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// string returns the next string field as a view of the payload, not a
// copy: it is valid for as long as the payload's buffer is.
func (d *payloadDecoder) string() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.buf)) < n {
		d.fail()
		return ""
	}
	s := unsafe.String(unsafe.SliceData(d.buf), int(n))
	d.buf = d.buf[n:]
	return s
}

// enums are the values of the string fields that take one of a few: the
// VALUE_TYPE codes, the LINK_TYPEs and the CONTEXTs.
var enums = [...]string{"UR", "BN", "PL", "PL@", "TL", "PLL", "TLL", "STANDARD", "RDF_TYPE", "RDF_MEMBER", "RDF_*", "D", "I"}

// enum returns the next string field of such a kind. A known value decodes
// to its constant, so the millions of "UR"s and "D"s of a log cost neither
// an allocation nor a reference into the payload; anything else is copied.
func (d *payloadDecoder) enum() string {
	s := d.string()
	for _, e := range enums {
		if s == e {
			return e
		}
	}
	return strings.Clone(s)
}

func (d *payloadDecoder) bool() bool { return d.byte() != 0 }
