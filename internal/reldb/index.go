package reldb

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/btree"
)

// KeyFunc derives an index key from a row. Function-based indexes (paper
// §7.2) pass arbitrary functions; column indexes use column extraction.
type KeyFunc func(Row) Key

// Index is a B-tree index over a table. Read methods take the owning
// table's lock, so an Index handle is safe for concurrent use.
//
// An index has one of three key layouts, decided by the schema when it is
// created. A unique index on one column the schema declares Ascending is a
// sequence index: the column vector is already sorted by key, so the index
// stores nothing — a probe is a search of the vector (heap.seek) and the
// dead bitmap, a scan a walk along it — and refuses a row whose key does
// not rise above the last row's. Any other column index whose columns are
// all NOT NULL NUMBER (at most maxIntKeyCols of them) is packed: its tree
// holds the integers inline, in entries as wide as the index and
// pointer-free (see packedTree). Every other index — string or nullable
// columns, function-based — holds Key entries. At most one of ints and tree
// is set; a sequence index has neither.
type Index struct {
	name   string
	unique bool
	keyOf  KeyFunc
	cols   []int // key column positions; nil for a function-based index
	ints   *packedTree
	tree   *btree.Tree[Key]
	slab   []Value // unused end of the slab tree's newest keys are cut from
	owner  *Table
	// probes and scans count the reads callers made through the index.
	probes, scans atomic.Uint64
}

// IndexStats says how often an index has been read: Probes by the point
// lookups (Lookup, LookupOne, LookupInts, Contains, ContainsInts), Scans by
// the range and prefix scans. Index maintenance counts as neither.
type IndexStats struct{ Probes, Scans uint64 }

// Stats returns the index's read counters.
func (ix *Index) Stats() IndexStats {
	return IndexStats{Probes: ix.probes.Load(), Scans: ix.scans.Load()}
}

// sequence reports whether ix is a sequence index.
func (ix *Index) sequence() bool { return ix.ints == nil && ix.tree == nil }

// EntryBytes is what a row costs in the index's tree: nothing in a sequence
// index; a row ID and 1, 2 or 4 key words in a packed one; a row ID and the
// header of a key, whose Values lie in the index's slab, in a generic one.
func (ix *Index) EntryBytes() int {
	switch {
	case ix.sequence():
		return 0
	case ix.ints == nil:
		return 32
	case len(ix.cols) > 2:
		return 40
	}
	return 8 * (len(ix.cols) + 1)
}

// keySlab is how many Values a generic index allocates at a time for keys.
const keySlab = 256

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Unique reports whether this is a unique index.
func (ix *Index) Unique() bool { return ix.unique }

// newIndex builds an empty index. cols is nil for a function-based index.
func newIndex(t *Table, name string, unique bool, cols []int, keyOf KeyFunc) *Index {
	ix := &Index{name: name, unique: unique, keyOf: keyOf, cols: cols, owner: t}
	packed := len(cols) > 0 && len(cols) <= maxIntKeyCols
	for _, p := range cols {
		c := t.schema.Column(p)
		packed = packed && c.Kind == KindInt && !c.Nullable
	}
	switch {
	case unique && len(cols) == 1 && t.schema.Column(cols[0]).Ascending:
		// A sequence index: the column is the index.
	case packed:
		ix.ints = newPackedTree(len(cols))
	default:
		ix.tree = btree.New(KeyCompare)
	}
	return ix
}

// columnKeyFunc builds a KeyFunc extracting the columns at pos in order.
func columnKeyFunc(pos []int) KeyFunc {
	return func(r Row) Key {
		k := make(Key, len(pos))
		for i, p := range pos {
			k[i] = r[p]
		}
		return k
	}
}

func (t *Table) newColumnIndex(name string, unique bool, columns []string) *Index {
	pos := make([]int, len(columns))
	for i, c := range columns {
		pos[i] = t.schema.MustColumnIndex(c)
	}
	return newIndex(t, name, unique, pos, columnKeyFunc(pos))
}

// CreateIndex builds a (optionally unique) index on the named columns,
// indexing existing rows. Creating a unique index over data that violates
// uniqueness fails and leaves the table without the index.
func (t *Table) CreateIndex(name string, unique bool, columns ...string) (*Index, error) {
	return t.attachIndex(t.newColumnIndex(name, unique, columns))
}

// CreateFunctionIndex builds an index whose keys are computed by fn — the
// engine's version of Oracle function-based indexes, used in §7.2 to index
// application tables on triple.GET_SUBJECT() etc.
func (t *Table) CreateFunctionIndex(name string, unique bool, fn KeyFunc) (*Index, error) {
	return t.attachIndex(newIndex(t, name, unique, nil, fn))
}

// attachIndex fills ix from the existing rows and registers it.
func (t *Table) attachIndex(ix *Index) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.indexes[ix.name]; dup {
		return nil, fmt.Errorf("%w: index %s on %s", ErrDuplicateObject, ix.name, t.name)
	}
	for id := RowID(0); id < RowID(t.heap.n); id++ {
		if ix.sequence() {
			// Deleted rows keep their cells, and a search crosses them.
			if cells := t.heap.cols[ix.cols[0]].cells; id > 0 && cells[id] <= cells[id-1] {
				return nil, fmt.Errorf("%w: building index %s, row %d", ErrOutOfSequence, ix.name, id)
			}
			continue
		}
		if t.heap.dead.get(id) {
			continue
		}
		r := t.heap.row(t.cur, id)
		if _, ok := ix.add(r, id); !ok {
			return nil, fmt.Errorf("%w: building index %s, key %s", ErrUniqueViolation, ix.name, ix.keyOf(r))
		}
	}
	t.indexes[ix.name] = ix
	t.ordered = append(t.ordered, ix)
	return ix, nil
}

// DropIndex removes an index.
func (t *Table) DropIndex(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[name]; !ok {
		return fmt.Errorf("%w: %s on %s", ErrNoSuchIndex, name, t.name)
	}
	delete(t.indexes, name)
	for i, ix := range t.ordered {
		if ix.name == name {
			t.ordered = append(t.ordered[:i], t.ordered[i+1:]...)
			break
		}
	}
	return nil
}

// Index returns a previously created index by name.
func (t *Table) Index(name string) (*Index, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoSuchIndex, name, t.name)
	}
	return ix, nil
}

// Indexes returns the table's indexes in the order they were created.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.ordered)
}

// MustIndex is Index but panics on unknown names (index names in this
// codebase are constants).
func (t *Table) MustIndex(name string) *Index {
	ix, err := t.Index(name)
	if err != nil {
		panic(err)
	}
	return ix
}

// --- maintenance (caller holds the table's write lock) ---

// packRow extracts a packed index's key from a validated row.
func (ix *Index) packRow(r Row) intKey {
	var k intKey
	for i, p := range ix.cols {
		k[i] = r[p].i
	}
	return k
}

// noRow is the row add names when it refuses a key no live row holds.
const noRow RowID = -1

// add enters row r, already stored under id, in one descent. A unique index
// refuses a key (without NULLs) that another row already holds: the tree is
// unchanged and add returns that row's ID and false. A sequence index takes
// only the newest row, and only with a key above its predecessor's; it
// names the live row that holds a key it refuses, or noRow — as it does for
// any older row, whose key an update has changed.
func (ix *Index) add(r Row, id RowID) (RowID, bool) {
	if ix.ints != nil {
		return ix.ints.insert(ix.packRow(r), id, ix.unique)
	}
	if ix.sequence() {
		h, c := &ix.owner.heap, ix.cols[0]
		cells := h.cols[c].cells
		if id != RowID(h.n-1) {
			return noRow, false // an update
		}
		if id == 0 || cells[id] > cells[id-1] {
			return id, true
		}
		if other := h.seek(c, cells[id], 0, id); cells[other] == cells[id] && !h.dead.get(other) {
			return other, false
		}
		return noRow, false
	}
	// The entry's key is cut from a slab the index owns: one allocation
	// per keySlab values rather than one per entry for the collector to
	// find. A slab is garbage once every key cut from it has left the tree.
	k, slab := ix.keyOf(r), ix.slab
	if len(slab) < len(k) {
		slab = make([]Value, max(keySlab, len(k)))
	}
	k, ix.slab = append(slab[:0:len(k)], k...), slab[len(k):]
	if ix.unique && !keyHasNull(k) {
		other, ok := ix.tree.InsertUnique(k, id)
		if !ok {
			ix.slab = slab // k did not go in
		}
		return other, ok
	}
	ix.tree.Insert(k, id)
	return id, true
}

// remove deletes row r's entry. A sequence index has none: the table's
// dead bitmap is what hides the row from it.
func (ix *Index) remove(r Row, id RowID) {
	switch {
	case ix.ints != nil:
		ix.ints.remove(ix.packRow(r), id)
	case ix.tree != nil:
		ix.tree.Delete(ix.keyOf(r), id)
	}
}

// sameKey reports whether rows a and b have the same key in this index.
func (ix *Index) sameKey(a, b Row) bool {
	if ix.cols == nil {
		return ix.keyOf(a).Compare(ix.keyOf(b)) == 0
	}
	for _, p := range ix.cols {
		if a[p].Compare(b[p]) != 0 {
			return false
		}
	}
	return true
}

// dependsOn reports whether a change to the column at pos can change the
// key. A function-based index may read any column.
func (ix *Index) dependsOn(pos int) bool {
	if ix.cols == nil {
		return true
	}
	for _, p := range ix.cols {
		if p == pos {
			return true
		}
	}
	return false
}

// --- reads ---

// keyInts returns the values of an all-integer key of at most
// maxIntKeyCols components, or false for any other key.
func keyInts(k Key, buf *intKey) ([]int64, bool) {
	if len(k) > maxIntKeyCols {
		return nil, false
	}
	for i, v := range k {
		if v.kind != KindInt {
			return nil, false
		}
		buf[i] = v.i
	}
	return buf[:len(k)], true
}

// intsKey is the Key form of an all-integer key.
func intsKey(ints []int64) Key {
	k := make(Key, len(ints))
	for i, v := range ints {
		k[i] = Int(v)
	}
	return k
}

// packFull packs a complete key of a packed or sequence index. No entry can equal a
// key of another length.
func (ix *Index) packFull(ints []int64) (intKey, bool) {
	var k intKey
	if len(ints) != len(ix.cols) {
		return k, false
	}
	copy(k[:], ints)
	return k, true
}

// packPrefix returns the inclusive range of packed keys that begin with
// prefix. No entry does when the prefix is longer than the key.
func (ix *Index) packPrefix(prefix []int64) (lo, hi intKey, ok bool) {
	if len(prefix) > len(ix.cols) {
		return lo, hi, false
	}
	copy(lo[:], prefix)
	copy(hi[:], prefix)
	for i := len(prefix); i < len(ix.cols); i++ {
		lo[i], hi[i] = math.MinInt64, math.MaxInt64
	}
	return lo, hi, true
}

// unpack writes packed key k into buf, which has one cell per key column.
func (ix *Index) unpack(buf Key, k intKey) Key {
	for i := range buf {
		buf[i] = Int(k[i])
	}
	return buf
}

// ascendInts visits the entries of a packed or sequence index with
// lo <= key <= hi in key order; a nil bound is open. Caller holds the lock.
func (ix *Index) ascendInts(lo, hi *intKey, fn func(k intKey, id RowID) bool) {
	if ix.ints != nil {
		ix.ints.ascend(lo, hi, fn)
		return
	}
	h, c := &ix.owner.heap, ix.cols[0]
	cells, id := h.cols[c].cells, RowID(0)
	if lo != nil {
		id = h.seek(c, lo[0], 0, RowID(h.n))
	}
	for ; id < RowID(h.n) && (hi == nil || cells[id] <= hi[0]); id++ {
		if !h.dead.get(id) && !fn(intKey{cells[id]}, id) {
			return
		}
	}
}

// firstLocked returns the lowest row ID under key. Caller holds the lock.
func (ix *Index) firstLocked(key Key) (RowID, bool) {
	if ix.tree != nil {
		return ix.tree.First(key)
	}
	var buf intKey
	if ints, ok := keyInts(key, &buf); ok {
		return ix.firstIntsLocked(ints)
	}
	return 0, false
}

func (ix *Index) firstIntsLocked(key []int64) (RowID, bool) {
	if ix.tree != nil {
		return ix.tree.First(intsKey(key))
	}
	k, ok := ix.packFull(key)
	switch {
	case !ok:
		return 0, false
	case ix.ints != nil:
		return ix.ints.first(k)
	}
	h, c := &ix.owner.heap, ix.cols[0]
	if id := h.seek(c, k[0], 0, RowID(h.n)); id < RowID(h.n) && h.cols[c].cells[id] == k[0] && !h.dead.get(id) {
		return id, true
	}
	return 0, false
}

// Lookup returns the IDs of rows whose index key equals key.
func (ix *Index) Lookup(key Key) []RowID {
	ix.probes.Add(1)
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	if ix.tree != nil {
		return ix.tree.Get(key)
	}
	var buf intKey
	if ints, ok := keyInts(key, &buf); ok {
		if k, ok := ix.packFull(ints); ok {
			var ids []RowID
			ix.ascendInts(&k, &k, func(_ intKey, id RowID) bool {
				ids = append(ids, id)
				return true
			})
			return ids
		}
	}
	return nil
}

// LookupOne returns the single row ID for key in a unique index, or
// (0, false) when absent.
func (ix *Index) LookupOne(key Key) (RowID, bool) {
	ix.probes.Add(1)
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	return ix.firstLocked(key)
}

// Contains reports whether any row has the given key.
func (ix *Index) Contains(key Key) bool {
	_, ok := ix.LookupOne(key)
	return ok
}

// LookupInts is LookupOne for a key of integers, given as such: on a
// packed or sequence index nothing is allocated.
func (ix *Index) LookupInts(key ...int64) (RowID, bool) {
	ix.probes.Add(1)
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	return ix.firstIntsLocked(key)
}

// ContainsInts is Contains for a key of integers.
func (ix *Index) ContainsInts(key ...int64) bool {
	_, ok := ix.LookupInts(key...)
	return ok
}

// The Key handed to a Scan, ScanPrefix or ScanPrefixRows callback is valid
// only during that call: a packed index rebuilds it in one per-scan buffer
// for every entry. Copy it to keep it.

// Scan visits (key, rowID) pairs with lo <= key <= hi in key order. Nil
// bounds are unbounded. fn returning false stops the scan.
func (ix *Index) Scan(lo, hi Key, fn func(key Key, id RowID) bool) {
	ix.scans.Add(1)
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	if ix.tree != nil {
		var lb, hb *Key
		if lo != nil {
			lb = &lo
		}
		if hi != nil {
			hb = &hi
		}
		ix.tree.AscendRange(lb, hb, fn)
		return
	}
	// A lower bound that is a prefix sorts before every key it begins, so
	// it packs exactly; so does a complete upper bound. Bounds of any
	// other shape (no caller has one) are applied entry by entry.
	var lb, hb *intKey
	var lbuf, hbuf intKey
	exact := true
	if lo != nil {
		ints, ok := keyInts(lo, &lbuf)
		plo, _, fits := ix.packPrefix(ints)
		lb, exact = &plo, ok && fits
	}
	if hi != nil {
		ints, ok := keyInts(hi, &hbuf)
		phi, full := ix.packFull(ints)
		hb, exact = &phi, exact && ok && full
	}
	buf := make(Key, len(ix.cols))
	if exact {
		ix.ascendInts(lb, hb, func(k intKey, id int64) bool {
			return fn(ix.unpack(buf, k), id)
		})
		return
	}
	ix.ascendInts(nil, nil, func(k intKey, id int64) bool {
		key := ix.unpack(buf, k)
		if lo != nil && key.Compare(lo) < 0 {
			return true
		}
		if hi != nil && key.Compare(hi) > 0 {
			return false
		}
		return fn(key, id)
	})
}

// scanPrefixLocked visits every entry whose key begins with prefix, in
// key order. Caller holds the lock.
func (ix *Index) scanPrefixLocked(prefix Key, fn func(key Key, id RowID) bool) {
	ix.scans.Add(1)
	if ix.tree != nil {
		ix.tree.AscendRange(&prefix, nil, func(key Key, id int64) bool {
			if len(key) < len(prefix) || key[:len(prefix)].Compare(prefix) != 0 {
				return false
			}
			return fn(key, id)
		})
		return
	}
	var pbuf intKey
	ints, ok := keyInts(prefix, &pbuf)
	if !ok {
		return
	}
	if lo, hi, ok := ix.packPrefix(ints); ok {
		buf := make(Key, len(ix.cols))
		ix.ascendInts(&lo, &hi, func(k intKey, id int64) bool {
			return fn(ix.unpack(buf, k), id)
		})
	}
}

// scanIntsLocked visits the row IDs under an integer key prefix, in key
// order, without building keys. Caller holds the lock.
func (ix *Index) scanIntsLocked(prefix []int64, fn func(id RowID) bool) {
	if ix.tree != nil {
		ix.scanPrefixLocked(intsKey(prefix), func(_ Key, id RowID) bool { return fn(id) })
		return
	}
	ix.scans.Add(1)
	if lo, hi, ok := ix.packPrefix(prefix); ok {
		ix.ascendInts(&lo, &hi, func(_ intKey, id int64) bool { return fn(id) })
	}
}

// ascendLocked visits every entry in key order. Caller holds the lock.
func (ix *Index) ascendLocked(fn func(key Key, id RowID) bool) {
	if ix.tree != nil {
		ix.tree.Ascend(fn)
		return
	}
	buf := make(Key, len(ix.cols))
	ix.ascendInts(nil, nil, func(k intKey, id int64) bool { return fn(ix.unpack(buf, k), id) })
}

// ScanPrefix visits every entry whose key begins with prefix, in key order.
func (ix *Index) ScanPrefix(prefix Key, fn func(key Key, id RowID) bool) {
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	ix.scanPrefixLocked(prefix, fn)
}

// ScanPrefixRows is ScanPrefix, but also hands fn the live row for each
// index entry, built under the same single read-lock hold (avoiding the
// per-row Table.Get re-lock and allocation). The row is one per-scan
// buffer, overwritten for the next entry: fn must not retain or mutate it;
// Clone it to keep it. Entries whose row has been tombstoned are skipped.
func (ix *Index) ScanPrefixRows(prefix Key, fn func(key Key, id RowID, r Row) bool) {
	t := ix.owner
	t.mu.RLock()
	defer t.mu.RUnlock()
	buf := make(Row, len(t.heap.cols))
	ix.scanPrefixLocked(prefix, func(key Key, id RowID) bool {
		return !t.heap.live(id) || fn(key, id, t.heap.row(buf, id))
	})
}

// ScanIntsCells visits the live rows under an integer key prefix, in key
// order, handing fn each row's cells in place: on a packed index nothing
// is built per entry.
func (ix *Index) ScanIntsCells(prefix []int64, fn func(c Cells) bool) {
	t := ix.owner
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix.scanIntsLocked(prefix, func(id RowID) bool {
		return !t.heap.live(id) || fn(Cells{&t.heap, id})
	})
}

// ScanIntsRows is ScanIntsCells with each row built in a per-scan buffer,
// under ScanPrefixRows' contract.
func (ix *Index) ScanIntsRows(prefix []int64, fn func(id RowID, r Row) bool) {
	buf := make(Row, len(ix.owner.heap.cols))
	ix.ScanIntsCells(prefix, func(c Cells) bool { return fn(c.id, c.h.row(buf, c.id)) })
}

// Len returns the number of entries in the index.
func (ix *Index) Len() int {
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	switch {
	case ix.ints != nil:
		n, _ := ix.ints.counts()
		return n
	case ix.tree != nil:
		return ix.tree.Len()
	}
	return ix.owner.live
}

// Mutations returns how many entries the index's tree has gained or lost
// over its life, for tests and diagnostics: an update that changes no
// indexed column must leave it alone. A sequence index has no tree to
// mutate.
func (ix *Index) Mutations() uint64 {
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	switch {
	case ix.ints != nil:
		_, muts := ix.ints.counts()
		return muts
	case ix.tree != nil:
		return ix.tree.Mutations()
	}
	return 0
}
