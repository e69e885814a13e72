package core

import (
	"hash/maphash"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// termDict is the term dictionary: term → rdf_value$ row, for every row of
// the table. It is an open-addressing hash table of row numbers and nothing
// else — a term's text is the row's own bytes in rdf_value$'s arena
// (LONG_VALUE when it spilled), which a probe hashes to and compares
// against — so it holds no pointer for the garbage collector to follow and
// keeps alive no buffer a caller's term was cut from.
//
// Rows are entered by the one function that inserts them
// (insertValueRowLocked, through the applier) and are
// never deleted or rewritten, so the dictionary is complete and never
// stale. It is the store's only text → VALUE_ID access path — a miss means
// "not interned" — and what keeps a term to one row (insertValueRowLocked
// refuses a second; CheckInvariants' invariant 8 audits it against the
// table).
type termDict struct {
	rows *reldb.Table
	seed maphash.Seed
	// A slot is free (0), or a row ID + 1 below the high half of its
	// term's hash. That half places the slot, so the table grows without
	// reading a row, and spares a probe the reading of nearly every row
	// that holds some other term.
	slots []uint64
	n     int
}

// maxTerms is how many rows a slot can number.
const maxTerms = 1<<32 - 1

func newTermDict(rows *reldb.Table) termDict {
	return termDict{rows: rows, seed: maphash.MakeSeed()}
}

// hash covers everything term equality does: kind, text, datatype, language.
func (d *termDict) hash(t rdfterm.Term) uint64 {
	var h maphash.Hash
	h.SetSeed(d.seed)
	h.WriteByte(byte(t.Kind))
	h.WriteString(t.Value)
	h.WriteByte(0)
	h.WriteString(t.Datatype)
	h.WriteByte(0)
	h.WriteString(t.Language)
	return h.Sum64()
}

// find returns the VALUE_ID of term t, whose hash is h. The probe sequence
// (triangular steps over a power of two) visits every slot, and a table
// that is never full ends it at a free one.
func (d *termDict) find(t rdfterm.Term, h uint64) (id int64, ok bool) {
	if d.n == 0 {
		return 0, false
	}
	mask := uint64(len(d.slots) - 1)
	for i, step := h>>32&mask, uint64(1); d.slots[i] != 0; i, step = (i+step)&mask, step+1 {
		if d.slots[i]>>32 != h>>32 {
			continue
		}
		// A row the dictionary names is always there to read.
		_ = d.rows.Read(reldb.RowID(d.slots[i]&maxTerms-1), func(c reldb.Cells) {
			if termFromCells(c) == t {
				id, ok = c.Int(vcValueID), true
			}
		})
		if ok {
			return id, true
		}
	}
	return 0, false
}

// add enters row rid, which holds a term that hashes to h and that the
// dictionary does not have. The table doubles at three quarters full, so
// it spends 11 to 21 bytes a term.
func (d *termDict) add(rid reldb.RowID, h uint64) {
	if (d.n+1)*4 > len(d.slots)*3 {
		old := d.slots
		d.slots = make([]uint64, max(16, 2*len(old)))
		for _, slot := range old {
			if slot != 0 {
				d.place(slot)
			}
		}
	}
	d.place(h&^maxTerms | uint64(rid+1))
	d.n++
}

func (d *termDict) place(slot uint64) {
	mask := uint64(len(d.slots) - 1)
	i := slot >> 32 & mask
	for step := uint64(1); d.slots[i] != 0; step++ {
		i = (i + step) & mask
	}
	d.slots[i] = slot
}
