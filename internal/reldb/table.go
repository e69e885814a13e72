package reldb

import (
	"fmt"
	"slices"
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
	// parts is the partitioned table's zone map: for every partition that
	// holds rows, how many, and the row IDs they lie between. A partition's
	// rows are found by sweeping the partition column over that range.
	parts map[int64]zone
	// old and cur are the write paths' row buffers, under the write lock.
	old, cur Row
}

// zone describes one partition: live rows, all of them in [min, max]. The
// range only ever widens while the partition has rows.
type zone struct {
	live     int
	min, max RowID
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
// column. Partition pruning is available through ScanPartition (a sweep of
// the partition's row range, see zone), and partition-local access paths
// are composite indexes that include the partition column. This mirrors how
// the paper's rdf_link$ table is partitioned by MODEL_ID (§4).
func NewPartitionedTable(schema *Schema, partColumn string) *Table {
	t := NewTable(schema)
	t.partCol = schema.MustColumnIndex(partColumn)
	if schema.Column(t.partCol).Kind != KindInt {
		panic(fmt.Sprintf("reldb: partition column %s.%s must be NUMBER", schema.Table(), partColumn))
	}
	t.parts = make(map[int64]zone)
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
			if other == noRow {
				return 0, false, refused(first, stored, other)
			}
			return other, false, nil
		}
	}
	for n, ix := range t.ordered {
		if ix == first {
			continue
		}
		if other, ok := ix.add(stored, id); !ok {
			for m, done := range t.ordered {
				if m < n || done == first {
					done.remove(stored, id)
				}
			}
			t.heap.pop()
			return 0, false, refused(ix, stored, other)
		}
	}
	t.live++
	t.enter(stored, id)
	return id, true, nil
}

// refused is the error for row r, which ix would not take because row
// other holds its key — or, other being noRow, because ix is a sequence
// index and the key is out of order.
func refused(ix *Index, r Row, other RowID) error {
	why := ErrUniqueViolation
	if other == noRow {
		why = ErrOutOfSequence
	}
	return fmt.Errorf("%w: index %s key %s", why, ix.name, ix.keyOf(r))
}

// enter and leave keep the zone map: row id, whose cells are r's, has
// joined or left its partition. Caller holds the write lock.
func (t *Table) enter(r Row, id RowID) {
	if t.partCol < 0 {
		return
	}
	z, ok := t.parts[r[t.partCol].i]
	if !ok {
		z.min, z.max = id, id
	}
	t.parts[r[t.partCol].i] = zone{z.live + 1, min(z.min, id), max(z.max, id)}
}

func (t *Table) leave(r Row) {
	if t.partCol < 0 {
		return
	}
	z := t.parts[r[t.partCol].i]
	if z.live--; z.live > 0 {
		t.parts[r[t.partCol].i] = z
	} else {
		delete(t.parts, r[t.partCol].i)
	}
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
		if other, ok := ix.add(cur, id); !ok {
			for _, done := range t.ordered[:n] {
				if !done.sameKey(old, cur) {
					done.remove(cur, id)
					done.add(old, id)
				}
			}
			err := refused(ix, cur, other)
			t.write(id, cur, old)
			return err
		}
		ix.remove(old, id)
	}
	if t.partCol >= 0 && old[t.partCol].i != cur[t.partCol].i {
		t.leave(old)
		t.enter(cur, id)
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
	depends := pos == t.partCol
	for _, ix := range t.ordered {
		depends = depends || ix.dependsOn(pos)
	}
	if depends {
		r := t.heap.row(make(Row, len(t.heap.cols)), id)
		r[pos] = v
		return t.updateLocked(id, r)
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
	t.leave(r)
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

// ScanPartitionCells visits the live rows of one partition in row-ID order
// (partition-pruned scan: only the partition's row range is swept), handing
// fn each row's cells in place. It requires a partitioned table.
func (t *Table) ScanPartitionCells(part int64, fn func(c Cells) bool) error {
	if t.partCol < 0 {
		return fmt.Errorf("%w: table %s is not partitioned", ErrNoSuchPartition, t.name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	z, ok := t.parts[part]
	if !ok {
		return nil
	}
	cells := t.heap.cols[t.partCol].cells
	for id := z.min; id <= z.max; id++ {
		if cells[id] == part && !t.heap.dead.get(id) && !fn(Cells{&t.heap, id}) {
			break
		}
	}
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parts[part].live
}

// Partitions returns the distinct partition key values that currently hold
// rows, in ascending order.
func (t *Table) Partitions() []int64 {
	if t.partCol < 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	parts := make([]int64, 0, len(t.parts))
	for part := range t.parts {
		parts = append(parts, part)
	}
	slices.Sort(parts)
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
