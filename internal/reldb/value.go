// Package reldb is a small embedded, in-memory relational engine: typed
// rows, heap tables with stable row IDs, B-tree secondary and unique
// indexes, function-based indexes, list partitioning, sequences, views, and
// integrity checks.
//
// It is this reproduction's stand-in for the Oracle storage layer the paper
// builds on: the RDF central schema (rdf_value$, rdf_link$, …), the Jena1
// and Jena2 baseline schemas, and user application tables are all ordinary
// reldb tables, so every experiment compares schema designs on the same
// engine — exactly the variable the paper varies.
package reldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported kinds. KindNull sorts before every other value, mirroring a
// NULLS FIRST ordering.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "NUMBER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR2"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single typed cell. The zero Value is NULL. It is three words:
// a string's bytes and length, or a number in the length word.
type Value struct {
	p    *byte // KindString: the string's bytes
	i    int64 // KindInt, KindBool (0/1), KindFloat (IEEE 754 bits), KindString (length)
	kind Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(v string) Value {
	return Value{kind: KindString, p: unsafe.StringData(v), i: int64(len(v))}
}

// str and float decode the payload of a value known to be of that kind.
func (v Value) str() string    { return unsafe.String(v.p, int(v.i)) }
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the integer payload. It panics if the value is not an
// integer, catching type-confusion bugs at the call site.
func (v Value) Int64() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("reldb: Int64 on %s value", v.kind))
	}
	return v.i
}

// Float64 returns the float payload.
func (v Value) Float64() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("reldb: Float64 on %s value", v.kind))
	}
	return v.float()
}

// Str returns the string payload.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("reldb: Str on %s value", v.kind))
	}
	return v.str()
}

// BoolVal returns the boolean payload.
func (v Value) BoolVal() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("reldb: BoolVal on %s value", v.kind))
	}
	return v.i != 0
}

// String renders the value for diagnostics and table printing.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Compare orders two values. NULL < everything; across kinds the order is
// by kind tag; within a kind, natural order. It defines the total order
// used by all indexes.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindFloat:
		switch a, b := v.float(), o.float(); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(v.str(), o.str())
	}
	return 0
}

// Equal reports value equality (same kind and payload).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Key is a composite index key: an ordered tuple of values.
type Key []Value

// Compare orders keys lexicographically. A shorter key that is a prefix of
// a longer one sorts first, which is what makes prefix range scans work.
func (k Key) Compare(o Key) int {
	n := len(k)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		a, b := k[i], o[i]
		// Fast paths for what generic keys are made of: IDs next to a
		// string or nullable column, and text.
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			}
			continue
		}
		if a.kind == KindString && b.kind == KindString {
			if c := strings.Compare(a.str(), b.str()); c != 0 {
				return c
			}
			continue
		}
		if c := a.Compare(b); c != 0 {
			return c
		}
	}
	switch {
	case len(k) < len(o):
		return -1
	case len(k) > len(o):
		return 1
	}
	return 0
}

// KeyCompare adapts Key.Compare to the btree comparator signature.
func KeyCompare(a, b Key) int { return a.Compare(b) }

// String renders the key for diagnostics.
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, v := range k {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Row is a tuple of values, positionally matching a table's schema.
type Row []Value

// Clone returns a copy of the row so callers can retain results across
// subsequent table mutations.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}
