package reldb

import (
	"fmt"
	"unsafe"
)

// heap is a table's row storage: one vector of 64-bit words per column,
// indexed by row ID, with bitmaps for NULL cells and deleted rows, and an
// arena for the bytes of its strings. A NUMBER is its word, a BOOLEAN is 0
// or 1, a FLOAT its IEEE 754 bits, a VARCHAR2 a reference into the arena.
// Nothing in the vectors is a pointer, so the garbage collector never looks
// inside them, and a row costs its words plus its text — not a slice of
// Value cells.
type heap struct {
	cols []column
	dead bitmap // deleted rows
	n    int    // rows ever appended; the next row ID
	text arena
}

type column struct {
	cells []int64
	nulls bitmap
	kind  Kind
	// last is the string the column stored most recently and lastRef its
	// place in the arena: a column that repeats itself row after row
	// (LINK_TYPE, CONTEXT) stores the text once.
	last    string
	lastRef int64
	hasLast bool
}

func newHeap(s *Schema) heap {
	h := heap{cols: make([]column, s.NumColumns())}
	for i := range h.cols {
		h.cols[i].kind = s.Column(i).Kind
	}
	return h
}

// bitmap is a growable set of row IDs.
type bitmap []uint64

func (b bitmap) get(i RowID) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b *bitmap) set(i RowID, on bool) {
	w := int(i >> 6)
	if !on {
		if w < len(*b) {
			(*b)[w] &^= 1 << (uint(i) & 63)
		}
		return
	}
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// arena holds string bytes in append-only chunks. A chunk is written only
// past its current end and never moved, so a string may alias its bytes
// for as long as it likes; value and get do, without copying. A reference
// is a word: chunk number, offset in the chunk, length.
type arena struct {
	chunks [][]byte
}

const (
	// arenaChunk is the size of a full-grown chunk; the first few are
	// smaller so that a table of three rows does not cost 64 KiB. A longer
	// string has a chunk of its own, at offset 0.
	arenaChunk = 1 << refOffBits
	refOffBits = 16
	refLenBits = 28
	// maxStringLen is the longest string a table stores.
	maxStringLen = 1<<refLenBits - 1
	maxChunks    = 1 << (63 - refOffBits - refLenBits)
)

func (a *arena) put(s string) int64 {
	c := len(a.chunks) - 1
	if c < 0 || len(a.chunks[c])+len(s) > cap(a.chunks[c]) || len(a.chunks[c]) >= arenaChunk {
		if len(a.chunks) == maxChunks {
			panic("reldb: a table's text exceeds its arena's address space")
		}
		size := arenaChunk
		if len(a.chunks) < 6 {
			size >>= 6 - len(a.chunks)
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(size, len(s))))
		c++
	}
	off := len(a.chunks[c])
	a.chunks[c] = append(a.chunks[c], s...)
	return int64(c)<<(refOffBits+refLenBits) | int64(off)<<refLenBits | int64(len(s))
}

// value returns the string at ref as a Value.
func (a *arena) value(ref int64) Value {
	b := a.chunks[ref>>(refOffBits+refLenBits)][ref>>refLenBits&(arenaChunk-1):]
	return Value{kind: KindString, p: unsafe.SliceData(b), i: ref & maxStringLen}
}

func (a *arena) get(ref int64) string { return a.value(ref).str() }

// word encodes a validated cell for column c.
func (h *heap) word(c int, v Value) int64 {
	if v.kind != KindString {
		return v.i // 0 for NULL
	}
	col := &h.cols[c]
	if s := v.str(); !col.hasLast || s != col.last {
		col.lastRef = h.text.put(s)
		col.last, col.hasLast = h.text.get(col.lastRef), true
	}
	return col.lastRef
}

// append stores a validated row under the next row ID.
func (h *heap) append(r Row) RowID {
	id := RowID(h.n)
	for c, v := range r {
		col := &h.cols[c]
		col.cells = append(col.cells, h.word(c, v))
		if v.kind == KindNull {
			col.nulls.set(id, true)
		}
	}
	h.n++
	return id
}

// pop takes back the last append. Text it put in the arena stays there.
func (h *heap) pop() {
	h.n--
	for c := range h.cols {
		col := &h.cols[c]
		col.cells = col.cells[:h.n]
		col.nulls.set(RowID(h.n), false)
	}
}

// set overwrites one cell with a validated value.
func (h *heap) set(id RowID, c int, v Value) {
	h.cols[c].cells[id] = h.word(c, v)
	h.cols[c].nulls.set(id, v.kind == KindNull)
}

func (h *heap) live(id RowID) bool {
	return id >= 0 && id < RowID(h.n) && !h.dead.get(id)
}

// seek returns the first of rows [lo, hi) of column c, ascending over
// them, whose cell is at least v, or hi: a binary search whose every other
// probe is where v would be were the values evenly spaced — a sequence's
// nearly are, so it lands in a probe or two — and the rest halve the range,
// which keeps it logarithmic when they are not.
func (h *heap) seek(c int, v int64, lo, hi RowID) RowID {
	cells := h.cols[c].cells
	for halve := false; lo < hi; halve = !halve { // the answer is in [lo, hi]
		a, b := cells[lo], cells[hi-1]
		if v <= a {
			return lo
		}
		if v > b {
			return hi
		}
		mid := lo + (hi-lo)/2
		if !halve { // a < v <= b: the quotient is in [0, 1]
			mid = lo + RowID((float64(v)-float64(a))/(float64(b)-float64(a))*float64(hi-1-lo))
		}
		if cells[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// row fills dst, which has one cell per column, with row id. Its strings
// alias the arena.
func (h *heap) row(dst Row, id RowID) Row {
	dst = dst[:len(h.cols)]
	for c := range h.cols {
		col := &h.cols[c]
		w := col.cells[id]
		switch {
		case len(col.nulls) > 0 && col.nulls.get(id):
			dst[c] = Value{}
		case col.kind == KindString:
			dst[c] = h.text.value(w)
		default:
			dst[c] = Value{kind: col.kind, i: w}
		}
	}
	return dst
}

// Cells reads single cells of one row where they are stored, for callers
// that want three integers of a ten-column row and not a Row built for
// them. A Cells is handed to a callback with the table's lock held and is
// valid only during that call; strings it returns alias the table's arena
// and stay valid for good.
type Cells struct {
	h  *heap
	id RowID
}

// Int returns a NUMBER cell, or a BOOLEAN cell as 0 or 1. A NULL reads 0.
func (c Cells) Int(col int) int64 {
	cv := &c.h.cols[col]
	if cv.kind != KindInt && cv.kind != KindBool {
		panic(fmt.Sprintf("reldb: Int on %s column", cv.kind))
	}
	return cv.cells[c.id]
}

// Str returns a VARCHAR2 cell. A NULL reads "".
func (c Cells) Str(col int) string {
	cv := &c.h.cols[col]
	if cv.kind != KindString {
		panic(fmt.Sprintf("reldb: Str on %s column", cv.kind))
	}
	if cv.nulls.get(c.id) {
		return ""
	}
	return c.h.text.get(cv.cells[c.id])
}

// IsNull reports whether the cell is NULL.
func (c Cells) IsNull(col int) bool { return c.h.cols[col].nulls.get(c.id) }
