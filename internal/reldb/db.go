package reldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Sequence generates unique ascending int64 IDs, like an Oracle sequence.
// The paper's VALUE_ID, LINK_ID, and MODEL_ID generators are sequences.
type Sequence struct {
	next atomic.Int64
}

// NewSequence returns a sequence whose first value is start.
func NewSequence(start int64) *Sequence {
	s := &Sequence{}
	s.next.Store(start)
	return s
}

// Next returns the next value.
func (s *Sequence) Next() int64 { return s.next.Add(1) - 1 }

// Current returns the value Next would return, without consuming it.
func (s *Sequence) Current() int64 { return s.next.Load() }

// AdvanceTo moves the sequence forward so Current() >= v; it never moves
// the sequence backwards. Used when restoring snapshots.
func (s *Sequence) AdvanceTo(v int64) {
	for {
		cur := s.next.Load()
		if cur >= v {
			return
		}
		if s.next.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Database is a named collection of tables, sequences, and views — one
// "schema" in Oracle terms. The RDF central schema (MDSYS in the paper) is
// a Database; user application schemas can be separate Databases or share
// one.
type Database struct {
	mu     sync.RWMutex
	name   string
	tables map[string]*Table
	seqs   map[string]*Sequence
	views  map[string]*View
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{
		name:   name,
		tables: make(map[string]*Table),
		seqs:   make(map[string]*Sequence),
		views:  make(map[string]*View),
	}
}

// Name returns the database (schema) name.
func (d *Database) Name() string { return d.name }

// CreateTable registers a new unpartitioned table.
func (d *Database) CreateTable(schema *Schema) (*Table, error) {
	return d.addTable(NewTable(schema))
}

// CreatePartitionedTable registers a new list-partitioned table.
func (d *Database) CreatePartitionedTable(schema *Schema, partColumn string) (*Table, error) {
	return d.addTable(NewPartitionedTable(schema, partColumn))
}

func (d *Database) addTable(t *Table) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[t.Name()]; dup {
		return nil, fmt.Errorf("%w: table %s.%s", ErrDuplicateObject, d.name, t.Name())
	}
	d.tables[t.Name()] = t
	return t, nil
}

// Table returns a table by name.
func (d *Database) Table(name string) (*Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchTable, d.name, name)
	}
	return t, nil
}

// MustTable is Table but panics on unknown names.
func (d *Database) MustTable(name string) *Table {
	t, err := d.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// DropTable removes a table and its dependent views.
func (d *Database) DropTable(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tables[name]; !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchTable, d.name, name)
	}
	delete(d.tables, name)
	for vname, v := range d.views {
		if v.base.Name() == name {
			delete(d.views, vname)
		}
	}
	return nil
}

// TableNames returns the names of all tables, sorted.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateSequence registers a new sequence starting at start.
func (d *Database) CreateSequence(name string, start int64) (*Sequence, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.seqs[name]; dup {
		return nil, fmt.Errorf("%w: sequence %s.%s", ErrDuplicateObject, d.name, name)
	}
	s := NewSequence(start)
	d.seqs[name] = s
	return s, nil
}

// Sequence returns a sequence by name.
func (d *Database) Sequence(name string) (*Sequence, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.seqs[name]
	if !ok {
		return nil, fmt.Errorf("%w: sequence %s.%s", ErrNoSuchTable, d.name, name)
	}
	return s, nil
}

// View is a read-only filtered projection of a base table. Model views
// (rdfm_<model>, §4.3) are Views whose predicate selects one MODEL_ID
// partition.
type View struct {
	name    string
	base    *Table
	pred    func(Row) bool
	columns []int // projection; nil = all columns
}

// CreateView registers a view over base selecting rows where pred is true,
// projecting the named columns (all columns when none given).
func (d *Database) CreateView(name string, base *Table, pred func(Row) bool, columns ...string) (*View, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.views[name]; dup {
		return nil, fmt.Errorf("%w: view %s.%s", ErrDuplicateObject, d.name, name)
	}
	var proj []int
	for _, c := range columns {
		proj = append(proj, base.Schema().MustColumnIndex(c))
	}
	v := &View{name: name, base: base, pred: pred, columns: proj}
	d.views[name] = v
	return v, nil
}

// View returns a view by name.
func (d *Database) View(name string) (*View, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, ok := d.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: view %s.%s", ErrNoSuchTable, d.name, name)
	}
	return v, nil
}

// DropView removes a view.
func (d *Database) DropView(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.views[name]; !ok {
		return fmt.Errorf("%w: view %s.%s", ErrNoSuchTable, d.name, name)
	}
	delete(d.views, name)
	return nil
}

// Name returns the view name.
func (v *View) Name() string { return v.name }

// Scan visits the view's rows (projected if the view has a column list),
// under Table.Scan's contract: fn must not retain the row it is handed.
func (v *View) Scan(fn func(id RowID, r Row) bool) {
	v.base.Scan(func(id RowID, r Row) bool {
		if v.pred != nil && !v.pred(r) {
			return true
		}
		if v.columns == nil {
			return fn(id, r)
		}
		out := make(Row, len(v.columns))
		for i, c := range v.columns {
			out[i] = r[c]
		}
		return fn(id, out)
	})
}

// Len counts the view's rows.
func (v *View) Len() int {
	n := 0
	v.Scan(func(RowID, Row) bool { n++; return true })
	return n
}
