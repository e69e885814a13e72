package reldb

import (
	"fmt"
	"sync"
)

// RowID identifies a row within one table. Row IDs are stable for the life
// of the row and never reused (deleted slots are tombstoned), which lets
// other tables reference rows by ID — the way the RDF application tables
// reference rdf_link$ rows.
type RowID = int64

// Table is a heap table with optional secondary indexes and optional list
// partitioning on one integer column. All methods are safe for concurrent
// use.
//
// Rows are stored by column (see heap), and Row and Value are the currency
// at the edges: Insert takes a Row, Get builds one, and a scan callback is
// handed either the row's Cells, to read in place, or a Row built in a
// buffer the scan reuses for every row it visits — such a Row must not be
// retained or mutated; Clone it to keep it. Its strings, like every string
// the table hands out, alias the arena and stay valid.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *Schema
	heap    heap
	live    int
	indexes map[string]*Index
	ordered []*Index // maintenance order, deterministic
	partCol int      // -1 when unpartitioned
	partIdx *Index   // hidden partition index when partCol >= 0
	// old and cur are the write paths' row buffers, under the write lock.
	old, cur Row
}

// NewTable creates an unpartitioned table.
func NewTable(schema *Schema) *Table {
	return &Table{
		name:    schema.Table(),
		schema:  schema,
		heap:    newHeap(schema),
		indexes: make(map[string]*Index),
		partCol: -1,
		old:     make(Row, schema.NumColumns()),
		cur:     make(Row, schema.NumColumns()),
	}
}

// NewPartitionedTable creates a table list-partitioned on the named integer
// column. Partition pruning is available through ScanPartition, and
// partition-local access paths are composite indexes prefixed with the
// partition column. This mirrors how the paper's rdf_link$ table is
// partitioned by MODEL_ID (§4).
func NewPartitionedTable(schema *Schema, partColumn string) *Table {
	t := NewTable(schema)
	t.partCol = schema.MustColumnIndex(partColumn)
	if schema.Column(t.partCol).Kind != KindInt {
		panic(fmt.Sprintf("reldb: partition column %s.%s must be NUMBER", schema.Table(), partColumn))
	}
	t.partIdx = t.newColumnIndex("__part$"+partColumn, false, []string{partColumn})
	t.indexes[t.partIdx.name] = t.partIdx
	t.ordered = append(t.ordered, t.partIdx)
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Insert validates and appends a row, maintaining all indexes. It returns
// the new row's ID. On a unique-index conflict nothing is modified.
func (t *Table) Insert(r Row) (RowID, error) {
	if err := t.schema.Validate(r); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, _, err := t.insertLocked(r, nil)
	return id, err
}

// InsertOrGet is Insert, except that when unique index ix already holds
// r's key it reports the row that does — (its ID, false, nil) — instead of
// failing: INSERT … ON CONFLICT DO NOTHING. Either way ix is descended
// once, so a caller need not probe it before inserting.
func (t *Table) InsertOrGet(ix *Index, r Row) (RowID, bool, error) {
	if ix.owner != t || !ix.unique {
		panic(fmt.Sprintf("reldb: InsertOrGet on %s needs one of its unique indexes, got %s", t.name, ix.name))
	}
	if err := t.schema.Validate(r); err != nil {
		return 0, false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(r, ix)
}

// insertLocked appends r to the heap and enters it in every index — the
// unique check and the insert are one descent each. With first set, that
// index goes first and a conflict in it is an answer (the row holding the
// key, false), not an error. Nothing stored refers to r or to its strings:
// the indexes key the row as stored, whose strings are the arena's.
func (t *Table) insertLocked(r Row, first *Index) (RowID, bool, error) {
	id := RowID(t.heap.n)
	if first != nil && first.ints != nil {
		// A packed key can be read from r with the heap still untouched: a
		// caller whose key is already present pays one descent.
		if other, ok := first.ints.insert(first.packRow(r), id, true); !ok {
			return other, false, nil
		}
	}
	t.heap.append(r)
	stored := t.heap.row(t.cur, id)
	if first != nil && first.ints == nil {
		if other, ok := first.add(stored, id); !ok {
			t.heap.pop()
			return other, false, nil
		}
	}
	for n, ix := range t.ordered {
		if ix == first {
			continue
		}
		if _, ok := ix.add(stored, id); !ok {
			for m, done := range t.ordered {
				if m < n || done == first {
					done.remove(stored, id)
				}
			}
			t.heap.pop()
			return 0, false, uniqueViolation(ix, stored)
		}
	}
	t.live++
	return id, true, nil
}

func uniqueViolation(ix *Index, r Row) error {
	return fmt.Errorf("%w: index %s key %s", ErrUniqueViolation, ix.name, ix.keyOf(r))
}

func (t *Table) noSuchRow(id RowID) error {
	return fmt.Errorf("%w: %s row %d", ErrNoSuchRow, t.name, id)
}

// Get returns the row with the given ID, newly built.
func (t *Table) Get(id RowID) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.heap.live(id) {
		return nil, t.noSuchRow(id)
	}
	return t.heap.row(make(Row, len(t.heap.cols)), id), nil
}

// Read hands fn the cells of the row with the given ID, in place.
func (t *Table) Read(id RowID, fn func(c Cells)) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.heap.live(id) {
		return t.noSuchRow(id)
	}
	fn(Cells{&t.heap, id})
	return nil
}

// Update replaces the row with the given ID, maintaining indexes. Unique
// checks exclude the row being updated. An index whose key the new row
// leaves unchanged is not touched.
func (t *Table) Update(id RowID, r Row) error {
	if err := t.schema.Validate(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.heap.live(id) {
		return t.noSuchRow(id)
	}
	return t.updateLocked(id, r)
}

// write overwrites the cells of row id, which reads from, that differ from
// r's — to the bit: Compare calls NaN equal to every FLOAT.
func (t *Table) write(id RowID, from, r Row) {
	for c, v := range r {
		if o := from[c]; o.kind != v.kind || o.i != v.i || v.kind == KindString && o.str() != v.str() {
			t.heap.set(id, c, v)
		}
	}
}

// updateLocked overwrites row id with r. The cells go first, so that the
// keys are built from the stored row (see insertLocked). A changed key
// enters its index before the old one leaves, so a unique conflict is
// found in that one descent; the indexes already moved are then moved
// back, and the cells put back.
func (t *Table) updateLocked(id RowID, r Row) error {
	old := t.heap.row(t.old, id)
	t.write(id, old, r)
	cur := t.heap.row(t.cur, id)
	for n, ix := range t.ordered {
		if ix.sameKey(old, cur) {
			continue
		}
		if _, ok := ix.add(cur, id); !ok {
			for _, done := range t.ordered[:n] {
				if !done.sameKey(old, cur) {
					done.remove(cur, id)
					done.add(old, id)
				}
			}
			err := uniqueViolation(ix, cur)
			t.write(id, cur, old)
			return err
		}
		ix.remove(old, id)
	}
	return nil
}

// UpdateColumn replaces one column of one row. When no index can depend
// on the column the cell is overwritten in place and no index is visited.
func (t *Table) UpdateColumn(id RowID, column string, v Value) error {
	pos := t.schema.MustColumnIndex(column)
	if err := t.schema.validateCell(pos, v); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.heap.live(id) {
		return t.noSuchRow(id)
	}
	for _, ix := range t.ordered {
		if ix.dependsOn(pos) {
			r := t.heap.row(make(Row, len(t.heap.cols)), id)
			r[pos] = v
			return t.updateLocked(id, r)
		}
	}
	t.heap.set(id, pos, v)
	return nil
}

// Delete tombstones the row and removes its index entries.
func (t *Table) Delete(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.heap.live(id) {
		return t.noSuchRow(id)
	}
	r := t.heap.row(t.old, id)
	for _, ix := range t.ordered {
		ix.remove(r, id)
	}
	t.heap.dead.set(id, true)
	t.live--
	return nil
}

// ScanCells visits every live row in row-ID order until fn returns false,
// handing fn the row's cells in place.
func (t *Table) ScanCells(fn func(c Cells) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id := RowID(0); id < RowID(t.heap.n); id++ {
		if !t.heap.dead.get(id) && !fn(Cells{&t.heap, id}) {
			return
		}
	}
}

// Scan is ScanCells with each row built in a per-scan buffer: the row
// passed to fn must not be retained or mutated; Clone it to keep it.
func (t *Table) Scan(fn func(id RowID, r Row) bool) {
	buf := make(Row, len(t.heap.cols))
	t.ScanCells(func(c Cells) bool { return fn(c.id, t.heap.row(buf, c.id)) })
}

// ScanPartitionCells visits the live rows of one partition (partition-
// pruned scan), handing fn each row's cells in place. It requires a
// partitioned table.
func (t *Table) ScanPartitionCells(part int64, fn func(c Cells) bool) error {
	if t.partCol < 0 {
		return fmt.Errorf("%w: table %s is not partitioned", ErrNoSuchPartition, t.name)
	}
	t.partIdx.ScanIntsCells([]int64{part}, fn)
	return nil
}

// ScanPartition is ScanPartitionCells with each row built in a per-scan
// buffer, under Scan's contract.
func (t *Table) ScanPartition(part int64, fn func(id RowID, r Row) bool) error {
	buf := make(Row, len(t.heap.cols))
	return t.ScanPartitionCells(part, func(c Cells) bool { return fn(c.id, t.heap.row(buf, c.id)) })
}

// PartitionLen returns the number of live rows in one partition.
func (t *Table) PartitionLen(part int64) int {
	n := 0
	if err := t.ScanPartitionCells(part, func(Cells) bool { n++; return true }); err != nil {
		return 0
	}
	return n
}

// Partitions returns the distinct partition key values that currently hold
// rows, in ascending order.
func (t *Table) Partitions() []int64 {
	if t.partCol < 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var parts []int64
	var last *int64
	t.partIdx.ascendLocked(func(key Key, _ RowID) bool {
		v := key[0].Int64()
		if last == nil || *last != v {
			parts = append(parts, v)
			v2 := v
			last = &v2
		}
		return true
	})
	return parts
}

func keyHasNull(k Key) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// TruncatePartition deletes every row in one partition, returning the
// number of rows removed. Used when an RDF model is dropped.
func (t *Table) TruncatePartition(part int64) (int, error) {
	if t.partCol < 0 {
		return 0, fmt.Errorf("%w: table %s is not partitioned", ErrNoSuchPartition, t.name)
	}
	var ids []RowID
	if err := t.ScanPartitionCells(part, func(c Cells) bool {
		ids = append(ids, c.id)
		return true
	}); err != nil {
		return 0, err
	}
	for _, id := range ids {
		if err := t.Delete(id); err != nil {
			return 0, err
		}
	}
	return len(ids), nil
}
