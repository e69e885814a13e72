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
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *Schema
	rows    []Row // index = RowID; nil = tombstone
	live    int
	indexes map[string]*Index
	ordered []*Index // maintenance order, deterministic
	partCol int      // -1 when unpartitioned
	partIdx *Index   // hidden partition index when partCol >= 0
}

// NewTable creates an unpartitioned table.
func NewTable(schema *Schema) *Table {
	return &Table{
		name:    schema.Table(),
		schema:  schema,
		indexes: make(map[string]*Index),
		partCol: -1,
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

// insertLocked enters r in every index — the unique check and the insert
// are one descent each — and appends it to the heap. With first set, that
// index goes first and a conflict in it is an answer (the row holding the
// key, false), not an error. Nothing stored refers to r itself.
func (t *Table) insertLocked(r Row, first *Index) (RowID, bool, error) {
	id := RowID(len(t.rows))
	var owned Row
	if first != nil && first.ints != nil {
		// Packed keys are read straight from r, so a caller whose key is
		// already present pays no copy of the row.
		if other, ok := first.ints.InsertUnique(first.packRow(r), id); !ok {
			return other, false, nil
		}
		owned = r.Clone()
	} else {
		owned = r.Clone()
		if first != nil {
			if other, ok := first.add(owned, id); !ok {
				return other, false, nil
			}
		}
	}
	for n, ix := range t.ordered {
		if ix == first {
			continue
		}
		if _, ok := ix.add(owned, id); !ok {
			for m, done := range t.ordered {
				if m < n || done == first {
					done.remove(owned, id)
				}
			}
			return 0, false, uniqueViolation(ix, owned)
		}
	}
	t.rows = append(t.rows, owned)
	t.live++
	return id, true, nil
}

func uniqueViolation(ix *Index, r Row) error {
	return fmt.Errorf("%w: index %s key %s", ErrUniqueViolation, ix.name, ix.keyOf(r))
}

// Get returns a copy of the row with the given ID.
func (t *Table) Get(id RowID) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, err := t.getLocked(id)
	if err != nil {
		return nil, err
	}
	return r.Clone(), nil
}

func (t *Table) getLocked(id RowID) (Row, error) {
	if id < 0 || id >= int64(len(t.rows)) || t.rows[id] == nil {
		return nil, fmt.Errorf("%w: %s row %d", ErrNoSuchRow, t.name, id)
	}
	return t.rows[id], nil
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
	old, err := t.getLocked(id)
	if err != nil {
		return err
	}
	return t.updateLocked(id, old, r.Clone())
}

// updateLocked swaps row id from old to r (which the table keeps). A
// changed key enters its index before the old one leaves, so a unique
// conflict is found in that one descent and the indexes already moved are
// moved back.
func (t *Table) updateLocked(id RowID, old, r Row) error {
	for n, ix := range t.ordered {
		if ix.sameKey(old, r) {
			continue
		}
		if _, ok := ix.add(r, id); !ok {
			for _, done := range t.ordered[:n] {
				if !done.sameKey(old, r) {
					done.remove(r, id)
					done.add(old, id)
				}
			}
			return uniqueViolation(ix, r)
		}
		ix.remove(old, id)
	}
	t.rows[id] = r
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
	old, err := t.getLocked(id)
	if err != nil {
		return err
	}
	for _, ix := range t.ordered {
		if ix.dependsOn(pos) {
			r := old.Clone()
			r[pos] = v
			return t.updateLocked(id, old, r)
		}
	}
	old[pos] = v
	return nil
}

// Delete tombstones the row and removes its index entries.
func (t *Table) Delete(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, err := t.getLocked(id)
	if err != nil {
		return err
	}
	for _, ix := range t.ordered {
		ix.remove(r, id)
	}
	t.rows[id] = nil
	t.live--
	return nil
}

// Scan visits every live row in row-ID order until fn returns false. The
// row passed to fn must not be retained or mutated; Clone it to keep it.
func (t *Table) Scan(fn func(id RowID, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id, r := range t.rows {
		if r == nil {
			continue
		}
		if !fn(RowID(id), r) {
			return
		}
	}
}

// ScanPartition visits live rows of one partition (partition-pruned scan).
// It requires a partitioned table.
func (t *Table) ScanPartition(part int64, fn func(id RowID, r Row) bool) error {
	if t.partCol < 0 {
		return fmt.Errorf("%w: table %s is not partitioned", ErrNoSuchPartition, t.name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.partIdx.scanIntsLocked([]int64{part}, func(id RowID) bool {
		return fn(id, t.rows[id])
	})
	return nil
}

// PartitionLen returns the number of live rows in one partition.
func (t *Table) PartitionLen(part int64) int {
	n := 0
	if err := t.ScanPartition(part, func(RowID, Row) bool { n++; return true }); err != nil {
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
	if err := t.ScanPartition(part, func(id RowID, _ Row) bool {
		ids = append(ids, id)
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
