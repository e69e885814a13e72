package reldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Iterator is a pull-based row stream. Next returns the next row and true,
// or (nil, false) when exhausted. Rows returned by an iterator are safe to
// retain (operators copy when needed).
type Iterator interface {
	Next() (Row, bool)
}

// Collect drains an iterator into a slice.
func Collect(it Iterator) []Row {
	var out []Row
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Count drains an iterator, returning the number of rows.
func Count(it Iterator) int {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// --- scans ---

type sliceIter struct {
	rows []Row
	i    int
}

func (s *sliceIter) Next() (Row, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

// NewSliceIter returns an iterator over a fixed row slice.
func NewSliceIter(rows []Row) Iterator { return &sliceIter{rows: rows} }

// rowFetchIter lazily fetches rows for a pre-materialized ID list. The ID
// list is snapshotted at construction; rows deleted afterwards are skipped.
type rowFetchIter struct {
	t   *Table
	ids []RowID
	i   int
}

func (f *rowFetchIter) Next() (Row, bool) {
	for f.i < len(f.ids) {
		id := f.ids[f.i]
		f.i++
		if r, err := f.t.Get(id); err == nil {
			return r, true
		}
	}
	return nil, false
}

// NewTableScan returns a full-table scan.
func NewTableScan(t *Table) Iterator {
	var ids []RowID
	t.ScanCells(func(c Cells) bool { ids = append(ids, c.id); return true })
	return &rowFetchIter{t: t, ids: ids}
}

// NewPartitionScan returns a partition-pruned scan.
func NewPartitionScan(t *Table, part int64) (Iterator, error) {
	var ids []RowID
	if err := t.ScanPartitionCells(part, func(c Cells) bool { ids = append(ids, c.id); return true }); err != nil {
		return nil, err
	}
	return &rowFetchIter{t: t, ids: ids}, nil
}

// NewIndexEq returns an index equality scan: all rows whose index key is
// exactly key.
func NewIndexEq(t *Table, ix *Index, key Key) Iterator {
	return &rowFetchIter{t: t, ids: ix.Lookup(key)}
}

// NewIndexPrefix returns an index prefix scan: all rows whose index key
// starts with prefix, in key order.
func NewIndexPrefix(t *Table, ix *Index, prefix Key) Iterator {
	var ids []RowID
	ix.ScanPrefix(prefix, func(_ Key, id RowID) bool { ids = append(ids, id); return true })
	return &rowFetchIter{t: t, ids: ids}
}

// NewIndexRange returns an index range scan over lo <= key <= hi (nil
// bounds unbounded).
func NewIndexRange(t *Table, ix *Index, lo, hi Key) Iterator {
	var ids []RowID
	ix.Scan(lo, hi, func(_ Key, id RowID) bool { ids = append(ids, id); return true })
	return &rowFetchIter{t: t, ids: ids}
}

// --- operators ---

type filterIter struct {
	in   Iterator
	pred func(Row) bool
}

func (f *filterIter) Next() (Row, bool) {
	for {
		r, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		if f.pred(r) {
			return r, true
		}
	}
}

// NewFilter returns rows of in for which pred is true.
func NewFilter(in Iterator, pred func(Row) bool) Iterator {
	return &filterIter{in: in, pred: pred}
}

type projectIter struct {
	in   Iterator
	cols []int
}

func (p *projectIter) Next() (Row, bool) {
	r, ok := p.in.Next()
	if !ok {
		return nil, false
	}
	out := make(Row, len(p.cols))
	for i, c := range p.cols {
		out[i] = r[c]
	}
	return out, true
}

// NewProject keeps only the given column positions, in order.
func NewProject(in Iterator, cols ...int) Iterator {
	return &projectIter{in: in, cols: cols}
}

type limitIter struct {
	in   Iterator
	left int
}

func (l *limitIter) Next() (Row, bool) {
	if l.left <= 0 {
		return nil, false
	}
	l.left--
	return l.in.Next()
}

// NewLimit stops after n rows.
func NewLimit(in Iterator, n int) Iterator { return &limitIter{in: in, left: n} }

// --- joins ---

// indexJoinIter is an index nested-loop join: for each outer row, probe an
// index on the inner table and emit outer ++ inner. This is the access path
// behind the paper's Experiment I "flat storage tables" query (rdf_link$
// joined three ways to rdf_value$ on VALUE_ID).
type indexJoinIter struct {
	outer   Iterator
	inner   *Table
	ix      *Index
	keyFn   func(Row) Key
	cur     Row
	matches []RowID
	mi      int
}

func (j *indexJoinIter) Next() (Row, bool) {
	for {
		for j.mi < len(j.matches) {
			id := j.matches[j.mi]
			j.mi++
			inner, err := j.inner.Get(id)
			if err != nil {
				continue
			}
			out := make(Row, 0, len(j.cur)+len(inner))
			out = append(out, j.cur...)
			out = append(out, inner...)
			return out, true
		}
		r, ok := j.outer.Next()
		if !ok {
			return nil, false
		}
		j.cur = r
		j.matches = j.ix.Lookup(j.keyFn(r))
		j.mi = 0
	}
}

// NewIndexJoin joins outer rows to inner-table rows found by probing ix
// with keyFn(outerRow). Output rows are the concatenation outer ++ inner.
func NewIndexJoin(outer Iterator, inner *Table, ix *Index, keyFn func(Row) Key) Iterator {
	return &indexJoinIter{outer: outer, inner: inner, ix: ix, keyFn: keyFn}
}

// encodeKey produces a collision-free string encoding of a key for hash
// join buckets (length-prefixed so ("ab","c") != ("a","bc")).
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

type hashJoinIter struct {
	probe   Iterator
	probeFn func(Row) Key
	buckets map[string][]Row
	cur     Row
	matches []Row
	mi      int
}

func (j *hashJoinIter) Next() (Row, bool) {
	for {
		for j.mi < len(j.matches) {
			b := j.matches[j.mi]
			j.mi++
			out := make(Row, 0, len(j.cur)+len(b))
			out = append(out, j.cur...)
			out = append(out, b...)
			return out, true
		}
		r, ok := j.probe.Next()
		if !ok {
			return nil, false
		}
		j.cur = r
		j.matches = j.buckets[encodeKey(j.probeFn(r))]
		j.mi = 0
	}
}

// NewHashJoin builds a hash table over build (keyed by buildFn) and probes
// it with probe rows (keyed by probeFn). Output rows are probe ++ build.
func NewHashJoin(probe Iterator, probeFn func(Row) Key, build Iterator, buildFn func(Row) Key) Iterator {
	buckets := make(map[string][]Row)
	for {
		r, ok := build.Next()
		if !ok {
			break
		}
		k := encodeKey(buildFn(r))
		buckets[k] = append(buckets[k], r)
	}
	return &hashJoinIter{probe: probe, probeFn: probeFn, buckets: buckets}
}

// ColKey returns a key function extracting the given row positions — a
// convenience for building join keys.
func ColKey(positions ...int) func(Row) Key {
	return func(r Row) Key {
		k := make(Key, len(positions))
		for i, p := range positions {
			k[i] = r[p]
		}
		return k
	}
}

// FormatRows renders rows as an aligned text table with the given headers;
// used by the CLI tools and examples to print paper-style result tables.
func FormatRows(headers []string, rows []Row) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(rows))
	for ri, r := range rows {
		cells[ri] = make([]string, len(headers))
		for ci := range headers {
			s := ""
			if ci < len(r) {
				s = r[ci].String()
			}
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	dashes := make([]string, len(headers))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	writeRow(dashes)
	for _, r := range cells {
		writeRow(r)
	}
	return b.String()
}
