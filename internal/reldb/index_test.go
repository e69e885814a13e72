package reldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The packed layout must be indistinguishable from the generic one through
// every read of the Index API. The oracle is the generic layout itself: a
// function-based index always stores Key entries, so the same columns are
// indexed twice on one table — once by CreateIndex (packed) and once by a
// key function (generic) — and every read is asked of both.

// pairedIndexes is one packed index and its generic twin.
type pairedIndexes struct {
	name            string
	packed, generic *Index
	cols            []int
}

var diffSchema = NewSchema("diff",
	Column{Name: "A", Kind: KindInt},
	Column{Name: "B", Kind: KindInt},
	Column{Name: "C", Kind: KindInt},
	Column{Name: "D", Kind: KindInt},
	Column{Name: "S", Kind: KindString},
)

func newPairedTable(t *testing.T) (*Table, []pairedIndexes) {
	t.Helper()
	tab := NewTable(diffSchema)
	var pairs []pairedIndexes
	add := func(name string, unique bool, cols ...string) {
		pos := make([]int, len(cols))
		for i, c := range cols {
			pos[i] = diffSchema.MustColumnIndex(c)
		}
		packed, err := tab.CreateIndex(name+"_packed", unique, cols...)
		if err != nil {
			t.Fatal(err)
		}
		generic, err := tab.CreateFunctionIndex(name+"_generic", unique, columnKeyFunc(pos))
		if err != nil {
			t.Fatal(err)
		}
		if packed.ints == nil || generic.tree == nil {
			t.Fatalf("%s: layouts are packed=%v generic=%v, want both true", name, packed.ints != nil, generic.tree != nil)
		}
		pairs = append(pairs, pairedIndexes{name, packed, generic, pos})
	}
	add("uniq2", true, "A", "B")
	add("dup1", false, "C")
	add("dup2", false, "C", "D")
	add("full4", false, "A", "B", "C", "D")
	return tab, pairs
}

// diffValues is a small domain, so keys collide, with the extremes a
// packed bound is padded with.
var diffValues = []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, 3, math.MaxInt64 - 1, math.MaxInt64}

func diffValue(rng *rand.Rand) Value { return Int(diffValues[rng.Intn(len(diffValues))]) }

type scanned struct {
	key string
	id  RowID
	row string
}

func collect(scan func(fn func(Key, RowID, Row) bool)) []scanned {
	var out []scanned
	scan(func(k Key, id RowID, r Row) bool {
		out = append(out, scanned{k.String(), id, fmt.Sprint(r)}) // the key is a per-scan buffer: copy it
		return true
	})
	return out
}

func sameScan(a, b []scanned) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPair asks one random question of every read method of both indexes.
func checkPair(t *testing.T, rng *rand.Rand, step int, p pairedIndexes) {
	t.Helper()
	// A probe key: usually of the index's width, sometimes shorter, longer,
	// or with a cell no integer column can hold.
	n := len(p.cols)
	switch rng.Intn(8) {
	case 0:
		n = rng.Intn(n + 1)
	case 1:
		n++
	}
	key := make(Key, n)
	ints := make([]int64, n)
	for i := range key {
		key[i] = diffValue(rng)
		ints[i] = key[i].i
	}
	allInts := true
	switch rng.Intn(12) {
	case 0:
		if n > 0 {
			key[rng.Intn(n)], allInts = Null(), false
		}
	case 1:
		if n > 0 {
			key[rng.Intn(n)], allInts = String_("x"), false
		}
	}

	if got, want := fmt.Sprint(p.packed.Lookup(key)), fmt.Sprint(p.generic.Lookup(key)); got != want {
		t.Fatalf("step %d %s: Lookup(%s) = %s, generic layout says %s", step, p.name, key, got, want)
	}
	gid, gok := p.packed.LookupOne(key)
	wid, wok := p.generic.LookupOne(key)
	if gid != wid || gok != wok {
		t.Fatalf("step %d %s: LookupOne(%s) = (%d,%v), generic layout says (%d,%v)", step, p.name, key, gid, gok, wid, wok)
	}
	if got := p.packed.Contains(key); got != wok {
		t.Fatalf("step %d %s: Contains(%s) = %v, generic layout says %v", step, p.name, key, got, wok)
	}
	if allInts {
		for _, ix := range []*Index{p.packed, p.generic} {
			if id, ok := ix.LookupInts(ints...); id != wid || ok != wok {
				t.Fatalf("step %d %s: LookupInts(%v) = (%d,%v), LookupOne says (%d,%v)", step, ix.name, ints, id, ok, wid, wok)
			}
			if ix.ContainsInts(ints...) != wok {
				t.Fatalf("step %d %s: ContainsInts(%v) != %v", step, ix.name, ints, wok)
			}
		}
	}

	prefixOf := func(ix *Index) []scanned {
		return collect(func(fn func(Key, RowID, Row) bool) {
			ix.ScanPrefix(key, func(k Key, id RowID) bool { return fn(k, id, nil) })
		})
	}
	want := prefixOf(p.generic)
	if got := prefixOf(p.packed); !sameScan(got, want) {
		t.Fatalf("step %d %s: ScanPrefix(%s) = %v, generic layout says %v", step, p.name, key, got, want)
	}
	rowsOf := func(ix *Index) []scanned {
		return collect(func(fn func(Key, RowID, Row) bool) { ix.ScanPrefixRows(key, fn) })
	}
	wantRows := rowsOf(p.generic)
	if got := rowsOf(p.packed); !sameScan(got, wantRows) {
		t.Fatalf("step %d %s: ScanPrefixRows(%s) = %v, generic layout says %v", step, p.name, key, got, wantRows)
	}
	if allInts {
		for _, ix := range []*Index{p.packed, p.generic} {
			var got []scanned
			ix.ScanIntsRows(ints, func(id RowID, r Row) bool {
				got = append(got, scanned{id: id, row: fmt.Sprint(r)})
				return true
			})
			if len(got) != len(wantRows) {
				t.Fatalf("step %d %s: ScanIntsRows(%v) visited %d rows, ScanPrefixRows %d", step, ix.name, ints, len(got), len(wantRows))
			}
			for i := range got {
				if got[i].id != wantRows[i].id || got[i].row != wantRows[i].row {
					t.Fatalf("step %d %s: ScanIntsRows(%v)[%d] = %v, ScanPrefixRows says %v", step, ix.name, ints, i, got[i], wantRows[i])
				}
			}
		}
	}

	// Range scan: key is one bound, a second random key the other; either
	// may be nil, short, long or hold a non-integer.
	lo, hi := key, make(Key, rng.Intn(len(p.cols)+2))
	for i := range hi {
		hi[i] = diffValue(rng)
	}
	switch rng.Intn(6) {
	case 0:
		lo = nil
	case 1:
		hi = nil
	case 2:
		lo, hi = hi, lo
	}
	rangeOf := func(ix *Index) []scanned {
		return collect(func(fn func(Key, RowID, Row) bool) {
			ix.Scan(lo, hi, func(k Key, id RowID) bool { return fn(k, id, nil) })
		})
	}
	want = rangeOf(p.generic)
	if got := rangeOf(p.packed); !sameScan(got, want) {
		t.Fatalf("step %d %s: Scan(%v, %v) = %v, generic layout says %v", step, p.name, lo, hi, got, want)
	}
}

func TestPackedIndexMatchesGeneric(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		tab, pairs := newPairedTable(t)
		randomRow := func() Row {
			return Row{diffValue(rng), diffValue(rng), diffValue(rng), diffValue(rng), String_(fmt.Sprint(rng.Intn(1000)))}
		}
		var live []RowID
		violations := 0
		for step := 0; step < 3000; step++ {
			var err error
			switch op := rng.Intn(10); {
			case op < 5 || len(live) == 0:
				var id RowID
				if id, err = tab.Insert(randomRow()); err == nil {
					live = append(live, id)
				}
			case op < 7:
				err = tab.Update(live[rng.Intn(len(live))], randomRow())
			case op < 8:
				err = tab.UpdateColumn(live[rng.Intn(len(live))], []string{"A", "C", "D", "S"}[rng.Intn(4)], diffValue(rng))
				if errors.Is(err, ErrSchemaMismatch) { // an integer into S
					err = nil
				}
			default:
				i := rng.Intn(len(live))
				err = tab.Delete(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if errors.Is(err, ErrUniqueViolation) {
				violations++
			} else if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			checkPair(t, rng, step, pairs[rng.Intn(len(pairs))])
		}
		if violations == 0 {
			t.Errorf("seed %d: no unique violation was exercised", seed)
		}
		if errs := tab.CheckIntegrity(); len(errs) > 0 {
			t.Fatalf("seed %d: %v", seed, errs)
		}
		for _, p := range pairs {
			if p.packed.Len() != len(live) || p.generic.Len() != len(live) {
				t.Fatalf("seed %d %s: %d/%d entries for %d live rows", seed, p.name, p.packed.Len(), p.generic.Len(), len(live))
			}
		}
	}
}

// TestIndexLayoutFollowsSchema: the layout is decided by the key columns'
// declared types and by nothing else.
func TestIndexLayoutFollowsSchema(t *testing.T) {
	tab := NewTable(NewSchema("t",
		Column{Name: "I1", Kind: KindInt}, Column{Name: "I2", Kind: KindInt},
		Column{Name: "I3", Kind: KindInt}, Column{Name: "I4", Kind: KindInt},
		Column{Name: "I5", Kind: KindInt},
		Column{Name: "N", Kind: KindInt, Nullable: true},
		Column{Name: "S", Kind: KindString},
	))
	for _, tc := range []struct {
		cols   []string
		packed bool
	}{
		{[]string{"I1"}, true},
		{[]string{"I1", "I2", "I3", "I4"}, true},
		{[]string{"I1", "I2", "I3", "I4", "I5"}, false}, // wider than a packed key
		{[]string{"I1", "N"}, false},                    // a NULL has no packed form
		{[]string{"I1", "S"}, false},
		{[]string{"S"}, false},
	} {
		ix, err := tab.CreateIndex(fmt.Sprint(tc.cols), false, tc.cols...)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.ints != nil; got != tc.packed {
			t.Errorf("index on %v: packed = %v, want %v", tc.cols, got, tc.packed)
		}
	}
	part := NewPartitionedTable(NewSchema("p", Column{Name: "M", Kind: KindInt}), "M")
	if part.partIdx.ints == nil {
		t.Error("partition index on a NOT NULL NUMBER column is not packed")
	}
}

// linkShapedTable is rdf_link$ as core declares it: ten columns, the
// hidden partition index and six more, all but none of them packed.
func linkShapedTable(t testing.TB) (*Table, *Index) {
	tab := NewPartitionedTable(NewSchema("link",
		Column{Name: "LINK_ID", Kind: KindInt},
		Column{Name: "START_NODE_ID", Kind: KindInt},
		Column{Name: "P_VALUE_ID", Kind: KindInt},
		Column{Name: "END_NODE_ID", Kind: KindInt},
		Column{Name: "CANON_END_NODE_ID", Kind: KindInt},
		Column{Name: "LINK_TYPE", Kind: KindString},
		Column{Name: "COST", Kind: KindInt},
		Column{Name: "CONTEXT", Kind: KindString},
		Column{Name: "REIF_LINK", Kind: KindString},
		Column{Name: "MODEL_ID", Kind: KindInt},
	), "MODEL_ID")
	var mspo *Index
	for _, def := range []struct {
		name   string
		unique bool
		cols   []string
	}{
		{"pk", true, []string{"LINK_ID"}},
		{"mspo", true, []string{"MODEL_ID", "START_NODE_ID", "P_VALUE_ID", "CANON_END_NODE_ID"}},
		{"mp", false, []string{"MODEL_ID", "P_VALUE_ID"}},
		{"mo", false, []string{"MODEL_ID", "CANON_END_NODE_ID"}},
		{"start", false, []string{"START_NODE_ID"}},
		{"end", false, []string{"END_NODE_ID"}},
	} {
		ix, err := tab.CreateIndex(def.name, def.unique, def.cols...)
		if err != nil {
			t.Fatal(err)
		}
		if def.name == "mspo" {
			mspo = ix
		}
	}
	return tab, mspo
}

func linkShapedRow(id int64) Row {
	return Row{
		Int(id), Int(id / 12), Int(id % 12), Int(id), Int(id),
		String_("STANDARD"), Int(1), String_("D"), String_("N"), Int(1),
	}
}

// TestLinkInsertAllocBudget holds the line on the write path's
// allocations: an rdf_link$-shaped insert appends ten words to the column
// vectors and an entry to each tree, and allocates for neither the row nor
// any index entry. (The vectors and the tree nodes grow, but amortised
// over the run that is well under one allocation per insert; a []Value
// heap paid a copy of the row, the generic layout a Key per index, twice
// for unique ones.)
func TestLinkInsertAllocBudget(t *testing.T) {
	tab, mspo := linkShapedTable(t)
	id := int64(0)
	for ; id < 5000; id++ {
		if _, err := tab.Insert(linkShapedRow(id)); err != nil {
			t.Fatal(err)
		}
	}
	row := linkShapedRow(id) // the caller's row: Insert keeps its cells, not this
	if got := testing.AllocsPerRun(2000, func() {
		id++
		row[0], row[1], row[2], row[3], row[4] = Int(id), Int(id/12), Int(id%12), Int(id), Int(id)
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("Table.Insert: %.0f allocations per rdf_link$-shaped row, budget 0", got)
	}
	// A key already present costs its descent and nothing else.
	if got := testing.AllocsPerRun(2000, func() {
		if _, inserted, err := tab.InsertOrGet(mspo, row); inserted || err != nil {
			t.Fatalf("InsertOrGet of a stored row: inserted=%v err=%v", inserted, err)
		}
	}); got > 0 {
		t.Errorf("InsertOrGet of a stored key: %.0f allocations, budget 0", got)
	}
	if got := testing.AllocsPerRun(2000, func() { mspo.LookupInts(1, id/12, id%12, id) }); got > 0 {
		t.Errorf("LookupInts: %.0f allocations, budget 0", got)
	}
}

// mutations sums the B-tree mutation counts of a table's indexes.
func mutations(tab *Table) uint64 {
	var n uint64
	for _, ix := range tab.ordered {
		n += ix.Mutations()
	}
	return n
}

// TestUpdateSkipsUnchangedKeys: a write to a column no index covers (the
// COST bump and I→D upgrade of a repeated triple) visits no index; a write
// to an indexed column moves exactly the entries whose key it changes.
func TestUpdateSkipsUnchangedKeys(t *testing.T) {
	tab, _ := linkShapedTable(t)
	var id RowID
	for i := int64(0); i < 100; i++ {
		id, _ = tab.Insert(linkShapedRow(i))
	}
	before := mutations(tab)
	if err := tab.UpdateColumn(id, "COST", Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateColumn(id, "CONTEXT", String_("I")); err != nil {
		t.Fatal(err)
	}
	r, _ := tab.Get(id)
	r[6] = Int(3)
	if err := tab.Update(id, r); err != nil {
		t.Fatal(err)
	}
	if got := mutations(tab) - before; got != 0 {
		t.Errorf("three updates of unindexed columns made %d B-tree mutations, want 0", got)
	}
	if r, _ := tab.Get(id); r[6].Int64() != 3 || r[7].Str() != "I" {
		t.Errorf("row after updates = %v", r)
	}

	// END_NODE_ID is in one index: one entry leaves, one enters.
	before = mutations(tab)
	if err := tab.UpdateColumn(id, "END_NODE_ID", Int(12345)); err != nil {
		t.Fatal(err)
	}
	if got := mutations(tab) - before; got != 2 {
		t.Errorf("update of one indexed column made %d B-tree mutations, want 2", got)
	}
	// A unique conflict found part-way leaves every index as it was.
	if err := tab.UpdateColumn(id, "LINK_ID", Int(0)); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("duplicate LINK_ID: err = %v", err)
	}
	other, _ := tab.Get(0)
	other[0] = Int(1000) // free LINK_ID: pk moves …
	other[1], other[2], other[4] = r[1], r[2], r[4]
	if err := tab.Update(0, other); !errors.Is(err, ErrUniqueViolation) { // … then mspo collides with row id
		t.Fatalf("duplicate MSPO: err = %v", err)
	}
	if errs := tab.CheckIntegrity(); len(errs) > 0 {
		t.Fatal(errs)
	}
	if err := tab.UpdateColumn(id, "COST", String_("x")); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("string into COST: err = %v", err)
	}
}

func TestInsertOrGet(t *testing.T) {
	tab, mspo := linkShapedTable(t)
	first, inserted, err := tab.InsertOrGet(mspo, linkShapedRow(7))
	if err != nil || !inserted {
		t.Fatalf("first InsertOrGet = (%d,%v,%v)", first, inserted, err)
	}
	again := linkShapedRow(7)
	again[0] = Int(8) // another LINK_ID, the same MSPO key
	if id, inserted, err := tab.InsertOrGet(mspo, again); err != nil || inserted || id != first {
		t.Fatalf("InsertOrGet of a held key = (%d,%v,%v), want (%d,false,nil)", id, inserted, err, first)
	}
	// A conflict in any other unique index is still an error, and undoes
	// the entry already made in the index given.
	clash := linkShapedRow(9)
	clash[0] = Int(7) // LINK_ID of the first row
	if _, _, err := tab.InsertOrGet(mspo, clash); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("duplicate LINK_ID through InsertOrGet: err = %v", err)
	}
	if tab.Len() != 1 || mspo.Len() != 1 {
		t.Fatalf("after a refused insert: %d rows, %d mspo entries", tab.Len(), mspo.Len())
	}
	if errs := tab.CheckIntegrity(); len(errs) > 0 {
		t.Fatal(errs)
	}

	// The same through the generic layout, NULLs exempt as in Insert.
	people := NewTable(NewSchema("p", Column{Name: "NAME", Kind: KindString, Nullable: true}))
	byName, _ := people.CreateIndex("name", true, "NAME")
	a, _, _ := people.InsertOrGet(byName, Row{String_("ada")})
	if id, inserted, _ := people.InsertOrGet(byName, Row{String_("ada")}); inserted || id != a {
		t.Fatalf("generic InsertOrGet of a held key = (%d,%v)", id, inserted)
	}
	for i := 0; i < 2; i++ {
		if _, inserted, err := people.InsertOrGet(byName, Row{Null()}); !inserted || err != nil {
			t.Fatalf("NULL key %d: inserted=%v err=%v", i, inserted, err)
		}
	}
}
