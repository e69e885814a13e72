package reldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The columnar heap must be indistinguishable, through the Table and Index
// API, from the obvious representation: a slice of Rows with nil for a
// deleted one. modelTable is that representation, kept here; runTableOps
// decodes a byte string into a sequence of operations and applies each to
// both, comparing every result. TestTableAgainstRowModel feeds it seeded
// random bytes, FuzzTableOps whatever the fuzzer finds.
//
// The table under test is partitioned and carries every index layout: a
// packed unique key (ID), packed and generic composites, a function-based
// index, and — on SEQ, an ascending column — a sequence index, which stores
// nothing and must still answer like a tree and refuse like a unique one.

var modelSchema = NewSchema("model",
	Column{Name: "ID", Kind: KindInt},
	Column{Name: "PART", Kind: KindInt},
	Column{Name: "A", Kind: KindInt},
	Column{Name: "S", Kind: KindString, Nullable: true},
	Column{Name: "LONG_VALUE", Kind: KindString, Nullable: true},
	Column{Name: "F", Kind: KindFloat, Nullable: true},
	Column{Name: "B", Kind: KindBool},
	Column{Name: "U", Kind: KindString}, // in no index
	Column{Name: "C", Kind: KindInt},    // in no index
	Column{Name: "K", Kind: KindInt},
	Column{Name: "SEQ", Kind: KindInt, Ascending: true},
)

const (
	mID = iota
	mPart
	mA
	mS
	mLong
	mF
	mB
	mU
	mC
	mK
	mSeq
)

// modelTable is the reference: rows by ID, nil once deleted, and the
// unique constraints checked by looking at every row.
type modelTable struct {
	rows []Row
	seqs []int64 // SEQ of every row ever stored: a deleted row keeps its place in the sequence
}

// refusal is what the sequence index on SEQ says to row id (the next row ID
// for an insert) arriving with key v. An older row keeps the key it has.
// The newest may take any key above its predecessor's; any other is a live
// row's, or out of order.
func (m *modelTable) refusal(id RowID, v int64) error {
	switch {
	case id < RowID(len(m.seqs)) && m.seqs[id] == v:
		return nil // an update that leaves the key alone
	case id < RowID(len(m.seqs))-1:
		return ErrOutOfSequence
	case id == 0 || v > m.seqs[id-1]:
		return nil
	}
	for o, r := range m.rows {
		if r != nil && RowID(o) != id && m.seqs[o] == v {
			return ErrUniqueViolation
		}
	}
	return ErrOutOfSequence
}

// The unique constraints of the table under test, in index order: ID, then
// (PART, S) where S is not NULL, then K — which goes last of the trees, so
// that a conflict on it finds every other one already entered. The sequence
// index on SEQ comes after them all: see refusal.
func (m *modelTable) conflict(r Row, self RowID) (pkHolder RowID, pk, other bool) {
	for id, o := range m.rows {
		if o == nil || RowID(id) == self {
			continue
		}
		if o[mID].Compare(r[mID]) == 0 {
			return RowID(id), true, false
		}
		if !r[mS].IsNull() && o[mPart].Compare(r[mPart]) == 0 && o[mS].Compare(r[mS]) == 0 {
			other = true
		}
		if o[mK].Compare(r[mK]) == 0 {
			other = true
		}
	}
	return 0, false, other
}

func (m *modelTable) live(id RowID) bool {
	return id >= 0 && id < RowID(len(m.rows)) && m.rows[id] != nil
}

// ids returns the live row IDs that keep satisfies, ordered by less (row ID
// order when nil).
func (m *modelTable) ids(keep func(Row) bool, less func(a, b Row) int) []RowID {
	var out []RowID
	for id, r := range m.rows {
		if r != nil && keep(r) {
			out = append(out, RowID(id))
		}
	}
	if less != nil {
		sort.SliceStable(out, func(i, j int) bool { return less(m.rows[out[i]], m.rows[out[j]]) < 0 })
	}
	return out
}

func sameValue(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == KindFloat { // Compare calls NaN equal to everything
		return math.Float64bits(a.Float64()) == math.Float64bits(b.Float64())
	}
	return a.Compare(b) == 0
}

// brief renders a row with its long strings cut short.
func brief(r Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
		if len(parts[i]) > 12 {
			parts[i] = fmt.Sprintf("%s…(%d)", parts[i][:8], len(parts[i]))
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// opBytes hands out the bytes of an operation string; zeros once it is spent.
type opBytes struct {
	data []byte
	pos  int
}

func (o *opBytes) next() int {
	if o.pos >= len(o.data) {
		o.pos++
		return 0
	}
	o.pos++
	return int(o.data[o.pos-1])
}

func (o *opBytes) spent() bool { return o.pos >= len(o.data) }

// Mostly short strings, some repeated back to back (the heap stores a
// repeat once); one past LONG_VALUE's 4000 bytes, one past an arena chunk.
var modelStrings = []string{
	"", "a", "b", "ab", "STANDARD", "STANDARD", "D", "I", "", "a", "urn:lsid:uniprot.org:uniprot:P93259", "N", "Y", "b",
	strings.Repeat("long literal ", 400), strings.Repeat("x", 70_000),
}

var modelFloats = []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1)}

func (o *opBytes) str(nullable bool) Value {
	b := o.next()
	if nullable && b%4 == 0 {
		return Null()
	}
	return String_(modelStrings[b/4%len(modelStrings)])
}

func (o *opBytes) row() Row {
	r := Row{
		mID: Int(int64(o.next() % 24)), mPart: Int(int64(o.next() % 3)), mA: Int(int64(o.next() % 4)),
		mS: o.str(true), mLong: o.str(true), mF: Null(), mB: Bool(o.next()%2 == 0),
		mU: o.str(false), mC: Int(int64(o.next())), mK: Int(int64(o.next() % 32)),
		mSeq: Int(0), // the caller knows where the sequence stands
	}
	if b := o.next(); b%3 != 0 {
		r[mF] = Float(modelFloats[b%len(modelFloats)])
	}
	switch o.next() { // now and then a row the schema must refuse
	case 1:
		r[mU] = Null()
	case 2:
		r[mA] = String_("not a number")
	case 3:
		r = r[:mK]
	}
	return r
}

func runTableOps(t *testing.T, data []byte) {
	t.Helper()
	tab := NewPartitionedTable(modelSchema, "PART")
	mustIndex := func(ix *Index, err error) *Index {
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	pk := mustIndex(tab.CreateIndex("pk", true, "ID"))
	pa := mustIndex(tab.CreateIndex("pa", false, "PART", "A"))
	mustIndex(tab.CreateIndex("ps", true, "PART", "S"))
	byLen := mustIndex(tab.CreateFunctionIndex("longlen", false, func(r Row) Key {
		if r[mLong].IsNull() {
			return Key{Int(-1)}
		}
		return Key{Int(int64(len(r[mLong].Str())))}
	}))
	mustIndex(tab.CreateIndex("k", true, "K"))
	seq := mustIndex(tab.CreateIndex("seq", true, "SEQ"))
	if !seq.sequence() {
		t.Fatal("the unique index on an ascending column has a tree")
	}
	model := &modelTable{}
	ops := &opBytes{data: data}

	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	checkErr := func(what string, err error, want error) {
		t.Helper()
		if want == nil && err != nil || want != nil && !errors.Is(err, want) {
			fail("%s: error %v, want %v", what, err, want)
		}
	}
	pickID := func() RowID { return RowID(ops.next()%(len(model.rows)+2)) - 1 }
	// nextSeq is usually the next value of the sequence, gaps included, and
	// now and then one that is taken or was passed over.
	nextSeq := func() Value {
		last := int64(-1)
		if n := len(model.seqs); n > 0 {
			last = model.seqs[n-1]
		}
		b := ops.next()
		if b%8 == 0 {
			return Int(int64(ops.next()) % (last + 2))
		}
		return Int(last + 1 + int64(b%3))
	}

	for ; !ops.spent(); step++ {
		switch op := ops.next() % 12; op {
		case 0, 1, 2, 3: // Insert, InsertOrGet
			r := ops.row()
			if len(r) > mSeq {
				r[mSeq] = nextSeq()
			}
			orGet := op == 3
			var id RowID
			var created bool
			var err error
			if orGet {
				id, created, err = tab.InsertOrGet(pk, r)
			} else {
				id, err = tab.Insert(r)
				created = err == nil
			}
			if modelSchema.Validate(r) != nil {
				checkErr("insert of a bad row", err, ErrSchemaMismatch)
				continue
			}
			holder, pkHit, other := model.conflict(r, -1)
			switch {
			case pkHit && orGet:
				if err != nil || created || id != holder {
					fail("InsertOrGet on a present key = (%d, %v, %v), want (%d, false, nil)", id, created, err, holder)
				}
			case pkHit || other:
				checkErr("conflicting insert", err, ErrUniqueViolation)
			case model.refusal(RowID(len(model.rows)), r[mSeq].Int64()) != nil:
				checkErr("insert out of sequence", err, model.refusal(RowID(len(model.rows)), r[mSeq].Int64()))
			default:
				if err != nil || !created || id != RowID(len(model.rows)) {
					fail("insert = (%d, %v, %v), want (%d, true, nil)", id, created, err, len(model.rows))
				}
				model.rows, model.seqs = append(model.rows, r.Clone()), append(model.seqs, r[mSeq].Int64())
			}
		case 4: // Update
			id, r := pickID(), ops.row()
			if len(r) > mSeq {
				if r[mSeq] = nextSeq(); model.live(id) && ops.next()%4 != 0 {
					r[mSeq] = model.rows[id][mSeq] // mostly, as every caller does, leave the key alone
				}
			}
			err := tab.Update(id, r)
			if modelSchema.Validate(r) != nil {
				checkErr("update to a bad row", err, ErrSchemaMismatch)
				continue
			}
			_, pkHit, other := model.conflict(r, id)
			switch {
			case !model.live(id):
				checkErr("update of a dead row", err, ErrNoSuchRow)
			case pkHit || other:
				checkErr("conflicting update", err, ErrUniqueViolation)
			case model.refusal(id, r[mSeq].Int64()) != nil:
				checkErr("update of a sequence key", err, model.refusal(id, r[mSeq].Int64()))
			default:
				checkErr("update", err, nil)
				model.rows[id], model.seqs[id] = r.Clone(), r[mSeq].Int64()
			}
		case 5, 6: // UpdateColumn: 5 an indexed column, 6 one no index reads
			id := pickID()
			cols := [][]int{{mA, mK, mS, mLong, mSeq, mPart}, {mU, mC}}[op-5]
			col := cols[ops.next()%len(cols)]
			var v Value
			switch modelSchema.Column(col).Kind {
			case KindInt:
				v = Int(int64(ops.next() % 32))
			default:
				v = ops.str(modelSchema.Column(col).Nullable)
			}
			err := tab.UpdateColumn(id, modelSchema.Column(col).Name, v)
			if !model.live(id) {
				checkErr("column update of a dead row", err, ErrNoSuchRow)
				continue
			}
			r := model.rows[id].Clone()
			r[col] = v
			if _, pkHit, other := model.conflict(r, id); pkHit || other {
				checkErr("conflicting column update", err, ErrUniqueViolation)
				continue
			}
			if want := model.refusal(id, r[mSeq].Int64()); want != nil {
				checkErr("column update of a sequence key", err, want)
				continue
			}
			checkErr("column update", err, nil)
			model.rows[id], model.seqs[id] = r, r[mSeq].Int64()
		case 7: // Delete
			id := pickID()
			err := tab.Delete(id)
			if !model.live(id) {
				checkErr("delete of a dead row", err, ErrNoSuchRow)
				continue
			}
			checkErr("delete", err, nil)
			model.rows[id] = nil
		case 8: // TruncatePartition
			if ops.next()%4 != 0 { // rarer than the rest, or nothing lives long
				continue
			}
			part := int64(ops.next() % 3)
			n, err := tab.TruncatePartition(part)
			checkErr("truncate", err, nil)
			want := 0
			for id, r := range model.rows {
				if r != nil && r[mPart].Int64() == part {
					model.rows[id] = nil
					want++
				}
			}
			if n != want {
				fail("TruncatePartition(%d) removed %d rows, want %d", part, n, want)
			}
		default:
			compareReads(t, step, tab, pk, pa, byLen, seq, model, int64(ops.next()%3), int64(ops.next()%4))
		}
	}
	compareReads(t, step, tab, pk, pa, byLen, seq, model, 1, 1)
	for _, err := range tab.CheckIntegrity() {
		t.Errorf("after %d steps: %v", step, err)
	}
}

// compareReads asks the table and the model the same questions.
func compareReads(t *testing.T, step int, tab *Table, pk, pa, byLen, seq *Index, model *modelTable, part, a int64) {
	t.Helper()
	all := func(Row) bool { return true }
	check := func(what string, want []RowID, scan func(visit func(id RowID, r Row) bool)) {
		t.Helper()
		var got []RowID
		scan(func(id RowID, r Row) bool {
			got = append(got, id)
			if !model.live(id) || !sameRow(r, model.rows[id]) {
				t.Fatalf("step %d: %s: row %d is %s, model has %s", step, what, id, brief(r), brief(model.rows[id]))
			}
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: %s visited rows %v, want %v", step, what, got, want)
		}
	}
	check("Scan", model.ids(all, nil), tab.Scan)
	check("ScanCells", model.ids(all, nil), func(visit func(RowID, Row) bool) {
		tab.ScanCells(func(c Cells) bool {
			r := tab.heap.row(make(Row, len(modelSchema.cols)), c.id)
			if c.Int(mID) != r[mID].Int64() || c.IsNull(mS) != r[mS].IsNull() || !r[mS].IsNull() && c.Str(mS) != r[mS].Str() || c.Str(mU) != r[mU].Str() {
				t.Fatalf("step %d: cells of row %d disagree with the row %v", step, c.id, r)
			}
			return visit(c.id, r)
		})
	})
	inPart := func(r Row) bool { return r[mPart].Int64() == part }
	check("ScanPartition", model.ids(inPart, nil), func(visit func(RowID, Row) bool) {
		if err := tab.ScanPartition(part, visit); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := tab.PartitionLen(part), len(model.ids(inPart, nil)); got != want {
		t.Fatalf("step %d: PartitionLen(%d) = %d, want %d", step, part, got, want)
	}
	var parts []int64
	for p := int64(0); p < 32; p++ { // PART is below 3 in a row, below 32 after a column update
		if len(model.ids(func(r Row) bool { return r[mPart].Int64() == p }, nil)) > 0 {
			parts = append(parts, p)
		}
	}
	if got := tab.Partitions(); fmt.Sprint(got) != fmt.Sprint(parts) {
		t.Fatalf("step %d: Partitions() = %v, want %v", step, got, parts)
	}
	// The sequence index read from a cursor to the end, in key order —
	// which is row order — keys included.
	cursor := part*7 + a
	check("sequence Scan", model.ids(func(r Row) bool { return r[mSeq].Int64() >= cursor }, nil), func(visit func(RowID, Row) bool) {
		seq.Scan(Key{Int(cursor)}, nil, func(k Key, id RowID) bool {
			r, err := tab.Get(id)
			if err != nil || k.Compare(Key{r[mSeq]}) != 0 {
				t.Fatalf("step %d: sequence Scan: key %v with row %d = %v, %v", step, k, id, r, err)
			}
			return visit(id, r)
		})
	})
	if seq.Len() != tab.Len() {
		t.Fatalf("step %d: the sequence index counts %d entries, the table %d rows", step, seq.Len(), tab.Len())
	}
	byA := func(x, y Row) int { return x[mA].Compare(y[mA]) }
	check("ScanPrefixRows", model.ids(inPart, byA), func(visit func(RowID, Row) bool) {
		pa.ScanPrefixRows(Key{Int(part)}, func(k Key, id RowID, r Row) bool {
			if k.Compare(Key{r[mPart], r[mA]}) != 0 {
				t.Fatalf("step %d: ScanPrefixRows: key %v with row %v", step, k, r)
			}
			return visit(id, r)
		})
	})
	inPA := func(r Row) bool { return inPart(r) && r[mA].Int64() == a }
	check("ScanIntsRows", model.ids(inPA, nil), func(visit func(RowID, Row) bool) {
		pa.ScanIntsRows([]int64{part, a}, visit)
	})
	longLen := func(r Row) int64 {
		if r[mLong].IsNull() {
			return -1
		}
		return int64(len(r[mLong].Str()))
	}
	check("function index", model.ids(all, func(x, y Row) int { return int(longLen(x) - longLen(y)) }), func(visit func(RowID, Row) bool) {
		byLen.ScanPrefixRows(nil, func(_ Key, id RowID, r Row) bool { return visit(id, r) })
	})
	if got, want := tab.Len(), len(model.ids(all, nil)); got != want {
		t.Fatalf("step %d: Len() = %d, want %d", step, got, want)
	}
	for id := RowID(-1); id <= RowID(len(model.rows)); id++ {
		r, err := tab.Get(id)
		if !model.live(id) {
			if !errors.Is(err, ErrNoSuchRow) {
				t.Fatalf("step %d: Get(%d) of a dead row: %s, %v", step, id, brief(r), err)
			}
			continue
		}
		if err != nil || !sameRow(r, model.rows[id]) {
			t.Fatalf("step %d: Get(%d) = %s, %v; model has %s", step, id, brief(r), err, brief(model.rows[id]))
		}
		if got, ok := pk.LookupOne(Key{r[mID]}); !ok || got != id {
			t.Fatalf("step %d: pk lookup of row %d = %d, %v", step, id, got, ok)
		}
	}
	// Every key the sequence ever held, and the gaps between: a live row's
	// finds the row, a deleted row's and a skipped one find nothing.
	holder := map[int64]RowID{}
	for id, v := range model.seqs {
		if model.live(RowID(id)) {
			holder[v] = RowID(id)
		}
	}
	for v := int64(-1); len(model.seqs) > 0 && v <= model.seqs[len(model.seqs)-1]+1; v++ {
		want, live := holder[v]
		if got, ok := seq.LookupInts(v); ok != live || ok && got != want {
			t.Fatalf("step %d: sequence LookupInts(%d) = (%d, %v), want (%d, %v)", step, v, got, ok, want, live)
		}
		if got := seq.Lookup(Key{Int(v)}); len(got) > 1 || (len(got) == 1) != live || live && got[0] != want {
			t.Fatalf("step %d: sequence Lookup(%d) = %v, want row %d present %v", step, v, got, want, live)
		}
	}
}

func TestTableAgainstRowModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 6000)
		rng.Read(data)
		runTableOps(t, data)
	}
}

func FuzzTableOps(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzTableOps.
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("long enough")
		}
		runTableOps(t, data)
	})
}

// TestLateUniqueConflictRollsBack: a row refused by the last index has by
// then entered the heap and every other index, and must leave them all.
func TestLateUniqueConflictRollsBack(t *testing.T) {
	tab := NewPartitionedTable(modelSchema, "PART")
	for _, ix := range [][]string{{"pk", "ID"}, {"ps", "PART", "S"}, {"k", "K"}} {
		if _, err := tab.CreateIndex(ix[0], true, ix[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	row := func(id, k int64, s string) Row {
		return Row{Int(id), Int(1), Int(0), String_(s), Null(), Null(), Bool(true), String_("u"), Int(0), Int(k), Int(id)}
	}
	if _, err := tab.Insert(row(1, 7, "first")); err != nil {
		t.Fatal(err)
	}
	muts := func() (n uint64) {
		for _, ix := range tab.ordered {
			n += ix.Mutations()
		}
		return n
	}
	before := muts()
	if _, err := tab.Insert(row(2, 7, "second")); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("insert with a taken K: %v", err)
	}
	if errs := tab.CheckIntegrity(); len(errs) > 0 || tab.Len() != 1 || tab.heap.n != 1 {
		t.Fatalf("after the refused insert: %d rows, heap of %d, integrity %v", tab.Len(), tab.heap.n, errs)
	}
	if got := muts() - before; got != 4 { // pk, ps: in and out again
		t.Fatalf("refused insert made %d index mutations, want 4", got)
	}
	id, err := tab.Insert(row(2, 8, "second"))
	if err != nil || id != 1 {
		t.Fatalf("insert after the refused one = %d, %v; want row 1", id, err)
	}
	if err := tab.Update(id, row(2, 7, "third")); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("update to a taken K: %v", err)
	}
	if r, _ := tab.Get(id); !sameRow(r, row(2, 8, "second")) {
		t.Fatalf("row after the refused update: %v", r)
	}
	if errs := tab.CheckIntegrity(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

// TestScanRowIsAScratchRow pins the contract the scan methods document: the
// Row a callback is handed is one buffer, rewritten for every row visited.
// A callback that keeps it (it must not) ends up holding the last row
// visited, however many it kept; Clone is how to keep one.
func TestScanRowIsAScratchRow(t *testing.T) {
	tab := NewPartitionedTable(modelSchema, "PART")
	pa, err := tab.CreateIndex("pa", false, "PART", "A")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		r := Row{Int(i), Int(1), Int(i), String_(fmt.Sprint("s", i)), Null(), Null(), Bool(true), String_("u"), Int(i), Int(i), Int(i)}
		if _, err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	scans := map[string]func(visit func(RowID, Row) bool){
		"Scan":          tab.Scan,
		"ScanPartition": func(v func(RowID, Row) bool) { _ = tab.ScanPartition(1, v) },
		"ScanIntsRows":  func(v func(RowID, Row) bool) { pa.ScanIntsRows([]int64{1}, v) },
		"ScanPrefixRows": func(v func(RowID, Row) bool) {
			pa.ScanPrefixRows(Key{Int(1)}, func(_ Key, id RowID, r Row) bool { return v(id, r) })
		},
	}
	for name, scan := range scans {
		var kept, cloned []Row
		scan(func(_ RowID, r Row) bool {
			kept, cloned = append(kept, r), append(cloned, r.Clone())
			return true
		})
		if len(kept) != 5 {
			t.Fatalf("%s visited %d rows", name, len(kept))
		}
		for i := range kept {
			if !sameRow(kept[i], cloned[4]) {
				t.Errorf("%s: kept row %d reads %v, want the last row visited %v", name, i, kept[i], cloned[4])
			}
			if cloned[i][mID].Int64() != int64(i) || cloned[i][mS].Str() != fmt.Sprint("s", i) {
				t.Errorf("%s: cloned row %d reads %v", name, i, cloned[i])
			}
		}
	}
}
