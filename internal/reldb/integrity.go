package reldb

import (
	"fmt"
	"strconv"
	"strings"
)

// CheckIntegrity validates a table's internal consistency — every index
// agrees exactly with the heap — returning all violations found. It backs
// the engine-level property tests and mirrors what a production engine
// would run in a consistency checker (DBVERIFY, CHECK TABLE, …).
//
// Checks per index:
//
//  1. every live heap row has exactly one entry under its computed key;
//  2. every index entry points at a live row whose computed key matches;
//  3. unique indexes hold at most one row per non-NULL key;
//  4. index cardinality equals the live row count;
//  5. a sequence index's column rises strictly from row to row, deleted
//     rows included (its probes search across them).
//
// And for a partitioned table: the zone map names exactly the partitions
// that hold live rows, with their counts, and every such row lies in its
// partition's row range.
func (t *Table) CheckIntegrity() []error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var errs []error
	addf := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	live := map[RowID]Row{}
	for id := RowID(0); id < RowID(t.heap.n); id++ {
		if !t.heap.dead.get(id) {
			live[id] = t.heap.row(make(Row, len(t.heap.cols)), id)
		}
	}
	if len(live) != t.live {
		addf("table %s: live counter %d, heap has %d live rows", t.name, t.live, len(live))
	}
	if t.partCol >= 0 {
		counts := map[int64]int{}
		for id, r := range live {
			part := r[t.partCol].i
			counts[part]++
			if z, ok := t.parts[part]; !ok || id < z.min || id > z.max {
				addf("table %s: row %d of partition %d outside its zone %+v (present: %v)", t.name, id, part, z, ok)
			}
		}
		for part, z := range t.parts {
			if z.live != counts[part] || z.live == 0 {
				addf("table %s: zone map counts %d rows in partition %d, heap has %d", t.name, z.live, part, counts[part])
			}
		}
	}
	for _, ix := range t.ordered {
		if ix.sequence() {
			cells := t.heap.cols[ix.cols[0]].cells
			for id := 1; id < t.heap.n; id++ {
				if cells[id] <= cells[id-1] {
					addf("index %s.%s: key %d of row %d does not rise above row %d's %d", t.name, ix.name, cells[id], id, id-1, cells[id-1])
				}
			}
		}
		entries := 0
		perKey := map[string][]RowID{}
		valid := true
		ix.ascendLocked(func(k Key, id RowID) bool {
			entries++
			r, ok := live[id]
			if !ok {
				addf("index %s.%s: entry %s -> dead row %d", t.name, ix.name, k, id)
				valid = false
				return true
			}
			if got := ix.keyOf(r); got.Compare(k) != 0 {
				addf("index %s.%s: row %d stored under %s, key function says %s",
					t.name, ix.name, id, k, got)
				valid = false
			}
			enc := encodeKey(k)
			perKey[enc] = append(perKey[enc], id)
			return true
		})
		if entries != len(live) {
			addf("index %s.%s: %d entries for %d live rows", t.name, ix.name, entries, len(live))
			valid = false
		}
		// Every live row must be findable under its key.
		for id, r := range live {
			k := ix.keyOf(r)
			found := false
			for _, got := range perKey[encodeKey(k)] {
				if got == id {
					found = true
					break
				}
			}
			if !found {
				addf("index %s.%s: live row %d missing under key %s", t.name, ix.name, id, k)
				valid = false
			}
		}
		if ix.unique && valid {
			for enc, ids := range perKey {
				if len(ids) > 1 && !keyHasNullEncoded(enc, perKey, ix, live, ids) {
					addf("index %s.%s: unique key duplicated across rows %v", t.name, ix.name, ids)
				}
			}
		}
	}
	return errs
}

// keyHasNullEncoded reports whether the duplicated key contains NULL (in
// which case uniqueness is not enforced, matching Insert's behaviour).
func keyHasNullEncoded(_ string, _ map[string][]RowID, ix *Index, live map[RowID]Row, ids []RowID) bool {
	r, ok := live[ids[0]]
	if !ok {
		return false
	}
	return keyHasNull(ix.keyOf(r))
}

// encodeKey produces a collision-free string encoding of a key, for
// grouping index entries by key (length-prefixed so ("ab","c") !=
// ("a","bc")).
func encodeKey(k Key) string {
	var b strings.Builder
	for _, v := range k {
		s := v.String()
		b.WriteString(strconv.Itoa(int(v.Kind())))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}
