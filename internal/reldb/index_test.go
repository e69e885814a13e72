package reldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The packed and sequence layouts must be indistinguishable from the
// generic one through every read of the Index API. The oracle is the
// generic layout itself: a function-based index always stores Key entries,
// so the same columns are indexed twice on one table — once by CreateIndex
// (packed, or a sequence index that stores nothing) and once by a key
// function (generic) — and every read is asked of both.

// pairedIndexes is one packed or sequence index and its generic twin.
type pairedIndexes struct {
	name            string
	packed, generic *Index
	cols            []int
	probe           func(*rand.Rand) Value // a cell of a key to ask about
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
		pairs = append(pairs, pairedIndexes{name, packed, generic, pos, diffValue})
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
		key[i] = p.probe(rng)
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
		hi[i] = p.probe(rng)
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

// TestSequenceIndexMatchesGeneric: the same differential for a sequence
// index. Keys arrive as a sequence hands them out — rising, with gaps —
// and now and then one that is taken, was deleted or was skipped, which
// the index must refuse (as a duplicate only if a live row holds it); rows
// leave one by one and a partition at a time.
func TestSequenceIndexMatchesGeneric(t *testing.T) {
	schema := NewSchema("seq",
		Column{Name: "ID", Kind: KindInt, Ascending: true},
		Column{Name: "PART", Kind: KindInt},
		Column{Name: "S", Kind: KindString},
	)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		tab := NewPartitionedTable(schema, "PART")
		seq, err := tab.CreateIndex("seq", true, "ID")
		if err != nil {
			t.Fatal(err)
		}
		generic, err := tab.CreateFunctionIndex("generic", true, columnKeyFunc([]int{0}))
		if err != nil {
			t.Fatal(err)
		}
		if !seq.sequence() || generic.tree == nil {
			t.Fatalf("layouts are sequence=%v generic=%v, want both true", seq.sequence(), generic.tree != nil)
		}
		next := int64(1068) // rdf_value$'s first VALUE_ID
		pair := pairedIndexes{"seq", seq, generic, []int{0}, func(rng *rand.Rand) Value {
			if rng.Intn(6) == 0 {
				return diffValue(rng)
			}
			return Int(1060 + rng.Int63n(next-1050))
		}}
		keyOf := map[RowID]int64{} // live rows
		var past []int64           // every key handed out
		duplicates, disorders := 0, 0
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 10 || len(keyOf) == 0:
				next += 1 + rng.Int63n(3)*rng.Int63n(2)
				id, err := tab.Insert(Row{Int(next), Int(rng.Int63n(3)), String_(fmt.Sprint(next))})
				if err != nil {
					t.Fatalf("seed %d step %d: insert of %d: %v", seed, step, next, err)
				}
				keyOf[id], past = next, append(past, next)
			case op < 13: // a key the sequence is past
				key := past[rng.Intn(len(past))] - rng.Int63n(2)
				held := false
				for _, k := range keyOf {
					held = held || k == key
				}
				_, err := tab.Insert(Row{Int(key), Int(0), String_("late")})
				if held && errors.Is(err, ErrUniqueViolation) {
					duplicates++
				} else if !held && errors.Is(err, ErrOutOfSequence) {
					disorders++
				} else {
					t.Fatalf("seed %d step %d: insert of past key %d (held by a live row: %v): %v", seed, step, key, held, err)
				}
			case op < 19:
				for id := range keyOf { // whichever the map yields first
					if err := tab.Delete(id); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					delete(keyOf, id)
					break
				}
			default:
				part := rng.Int63n(3)
				want := tab.PartitionLen(part)
				if n, err := tab.TruncatePartition(part); err != nil || n != want {
					t.Fatalf("seed %d step %d: TruncatePartition(%d) = %d, %v; PartitionLen said %d", seed, step, part, n, err, want)
				}
				for id := range keyOf {
					if !tab.heap.live(id) {
						delete(keyOf, id)
					}
				}
			}
			checkPair(t, rng, step, pair)
		}
		if duplicates == 0 || disorders == 0 {
			t.Errorf("seed %d: %d duplicate and %d out-of-order keys were refused, want some of each", seed, duplicates, disorders)
		}
		if errs := tab.CheckIntegrity(); len(errs) > 0 {
			t.Fatalf("seed %d: %v", seed, errs)
		}
		if seq.Len() != len(keyOf) || generic.Len() != len(keyOf) || seq.Mutations() != 0 {
			t.Fatalf("seed %d: %d/%d entries for %d live rows, %d mutations of a tree that is not there", seed, seq.Len(), generic.Len(), len(keyOf), seq.Mutations())
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
	// A sequence index is one a unique index on one Ascending column; the
	// same column in a wider or a non-unique index is packed like any other.
	seq := NewTable(NewSchema("s", Column{Name: "ID", Kind: KindInt, Ascending: true}, Column{Name: "I", Kind: KindInt}))
	for _, tc := range []struct {
		unique   bool
		cols     []string
		sequence bool
	}{
		{true, []string{"ID"}, true},
		{false, []string{"ID"}, false},
		{true, []string{"ID", "I"}, false},
		{true, []string{"I"}, false},
	} {
		ix, err := seq.CreateIndex(fmt.Sprint(tc.unique, tc.cols), tc.unique, tc.cols...)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.sequence(); got != tc.sequence || got == (ix.ints != nil) {
			t.Errorf("index on %v (unique %v): sequence = %v, packed = %v", tc.cols, tc.unique, got, ix.ints != nil)
		}
	}
}

// linkShapedTable is rdf_link$ as core declares it: ten columns, a
// sequence index on LINK_ID and three packed trees.
func linkShapedTable(t testing.TB) (*Table, *Index) {
	tab := NewPartitionedTable(NewSchema("link",
		Column{Name: "LINK_ID", Kind: KindInt, Ascending: true},
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
	var smpo *Index
	for _, def := range []struct {
		name   string
		unique bool
		cols   []string
	}{
		{"pk", true, []string{"LINK_ID"}},
		{"smpo", true, []string{"START_NODE_ID", "MODEL_ID", "P_VALUE_ID", "CANON_END_NODE_ID"}},
		{"mp", false, []string{"MODEL_ID", "P_VALUE_ID"}},
		{"om", false, []string{"CANON_END_NODE_ID", "MODEL_ID"}},
	} {
		ix, err := tab.CreateIndex(def.name, def.unique, def.cols...)
		if err != nil {
			t.Fatal(err)
		}
		if def.name == "smpo" {
			smpo = ix
		}
	}
	return tab, smpo
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
	tab, smpo := linkShapedTable(t)
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
		if _, inserted, err := tab.InsertOrGet(smpo, row); inserted || err != nil {
			t.Fatalf("InsertOrGet of a stored row: inserted=%v err=%v", inserted, err)
		}
	}); got > 0 {
		t.Errorf("InsertOrGet of a stored key: %.0f allocations, budget 0", got)
	}
	if got := testing.AllocsPerRun(2000, func() { smpo.LookupInts(id/12, 1, id%12, id) }); got > 0 {
		t.Errorf("LookupInts: %.0f allocations, budget 0", got)
	}
	// The sequence-key probe: a search of the LINK_ID column.
	pk := tab.MustIndex("pk")
	if got := testing.AllocsPerRun(2000, func() {
		if rid, ok := pk.LookupInts(id - 7); !ok || tab.heap.cols[0].cells[rid] != id-7 {
			t.Fatalf("pk.LookupInts(%d) = (%d,%v)", id-7, rid, ok)
		}
	}); got > 0 {
		t.Errorf("sequence-key LookupInts: %.0f allocations, budget 0", got)
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

	// P_VALUE_ID is in two indexes: from each one entry leaves, one enters.
	before = mutations(tab)
	if err := tab.UpdateColumn(id, "P_VALUE_ID", Int(12345)); err != nil {
		t.Fatal(err)
	}
	if got := mutations(tab) - before; got != 4 {
		t.Errorf("update of a column in two indexes made %d B-tree mutations, want 4", got)
	}
	// A sequence key is never updated, to a taken value or a free one.
	for _, linkID := range []int64{0, 1000} {
		if err := tab.UpdateColumn(id-1, "LINK_ID", Int(linkID)); !errors.Is(err, ErrOutOfSequence) {
			t.Fatalf("LINK_ID %d into an old row: err = %v", linkID, err)
		}
	}
	// A unique conflict found part-way leaves every index as it was.
	other, _ := tab.Get(0)
	other[4] = r[4] // om moves …
	other[1], other[2] = r[1], Int(12345)
	if err := tab.Update(0, other); !errors.Is(err, ErrUniqueViolation) { // … then smpo collides with row id
		t.Fatalf("duplicate SMPO: err = %v", err)
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
