package reldb

import (
	"fmt"
	"strings"
)

// Column describes one table column.
type Column struct {
	Name     string
	Kind     Kind
	Nullable bool
	// Ascending declares that the column's values rise strictly with the
	// row ID: fed by a sequence, never updated (LINK_ID, VALUE_ID). The
	// column vector is then sorted, and a unique index on the column alone
	// is that vector — it stores nothing and refuses a row out of order
	// (see Index). Only a NOT NULL NUMBER column can be.
	Ascending bool
}

// Schema is an ordered list of columns.
type Schema struct {
	cols    []Column
	byName  map[string]int
	tabName string
}

// NewSchema builds a schema. Column names are case-insensitive and must be
// unique; NewSchema panics on duplicates because schemas are always
// programmer-defined constants in this engine.
func NewSchema(table string, cols ...Column) *Schema {
	s := &Schema{cols: cols, byName: make(map[string]int, len(cols)), tabName: table}
	for i, c := range cols {
		key := strings.ToUpper(c.Name)
		if _, dup := s.byName[key]; dup {
			panic(fmt.Sprintf("reldb: duplicate column %q in table %q", c.Name, table))
		}
		s.byName[key] = i
		if c.Ascending && (c.Kind != KindInt || c.Nullable) {
			panic(fmt.Sprintf("reldb: ascending column %s.%s must be NOT NULL NUMBER", table, c.Name))
		}
	}
	return s
}

// Table returns the table name the schema was declared for.
func (s *Schema) Table() string { return s.tabName }

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[strings.ToUpper(name)]; ok {
		return i
	}
	return -1
}

// MustColumnIndex is ColumnIndex but panics on unknown names; schema
// references in this codebase are compile-time constants, so a miss is a
// programming error.
func (s *Schema) MustColumnIndex(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("reldb: no column %q in table %q", name, s.tabName))
	}
	return i
}

// Validate checks that a row matches the schema: correct arity, and each
// cell either NULL (if the column is nullable) or of the column's kind.
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.cols) {
		return fmt.Errorf("%w: table %s expects %d columns, row has %d",
			ErrSchemaMismatch, s.tabName, len(s.cols), len(r))
	}
	for i, v := range r {
		if err := s.validateCell(i, v); err != nil {
			return err
		}
	}
	return nil
}

// validateCell checks one value against the i-th column.
func (s *Schema) validateCell(i int, v Value) error {
	c := s.cols[i]
	if v.IsNull() {
		if !c.Nullable {
			return fmt.Errorf("%w: column %s.%s is NOT NULL",
				ErrSchemaMismatch, s.tabName, c.Name)
		}
		return nil
	}
	if v.Kind() != c.Kind {
		return fmt.Errorf("%w: column %s.%s expects %s, got %s",
			ErrSchemaMismatch, s.tabName, c.Name, c.Kind, v.Kind())
	}
	if c.Kind == KindString && v.i > maxStringLen {
		return fmt.Errorf("%w: column %s.%s: string of %d bytes, limit %d",
			ErrSchemaMismatch, s.tabName, c.Name, v.i, maxStringLen)
	}
	return nil
}
