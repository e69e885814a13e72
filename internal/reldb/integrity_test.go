package reldb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCheckIntegrityHealthy(t *testing.T) {
	tb := NewTable(personSchema())
	tb.CreateIndex("pk", true, "ID")
	tb.CreateIndex("byname", false, "NAME")
	tb.CreateFunctionIndex("byinitial", false, func(r Row) Key {
		return Key{String_(r[1].Str()[:1])}
	})
	for i := int64(0); i < 200; i++ {
		if _, err := tb.Insert(Row{Int(i), String_(fmt.Sprintf("p%d", i%17)), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 200; i += 3 {
		ids := tb.MustIndex("pk").Lookup(Key{Int(i)})
		if err := tb.Delete(ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i < 200; i += 3 {
		ids := tb.MustIndex("pk").Lookup(Key{Int(i)})
		if err := tb.Update(ids[0], Row{Int(i), String_("renamed"), Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range tb.CheckIntegrity() {
		t.Error(err)
	}
}

// TestQuickIntegrityUnderRandomOps is the engine-level mirror of
// core.CheckInvariants' property test.
func TestQuickIntegrityUnderRandomOps(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewPartitionedTable(NewSchema("pt",
			Column{Name: "P", Kind: KindInt},
			Column{Name: "K", Kind: KindInt},
			Column{Name: "V", Kind: KindString, Nullable: true},
		), "P")
		tb.CreateIndex("byk", false, "K")
		var ids []RowID
		for i := 0; i < int(nops)+30; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				id, err := tb.Insert(Row{
					Int(int64(rng.Intn(4))), Int(int64(rng.Intn(10))), String_("v")})
				if err != nil {
					return false
				}
				ids = append(ids, id)
			case 2:
				if len(ids) == 0 {
					continue
				}
				_ = tb.Delete(ids[rng.Intn(len(ids))]) // may be already gone
			case 3:
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				_ = tb.Update(id, Row{
					Int(int64(rng.Intn(4))), Int(int64(rng.Intn(10))), Null()})
			}
		}
		return len(tb.CheckIntegrity()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIntegrityReadsTheStorageFreeStructures: a sequence index and a
// zone map store nothing an entry-by-entry comparison could find wrong, so
// CheckIntegrity audits what they rely on — the column's order, deleted
// rows included, and the partitions' counts and row ranges.
func TestCheckIntegrityReadsTheStorageFreeStructures(t *testing.T) {
	build := func() *Table {
		tb := NewPartitionedTable(NewSchema("z",
			Column{Name: "ID", Kind: KindInt, Ascending: true},
			Column{Name: "P", Kind: KindInt},
		), "P")
		if _, err := tb.CreateIndex("pk", true, "ID"); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 9; i++ {
			if _, err := tb.Insert(Row{Int(10 + i), Int(i % 3)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Delete(4); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	if errs := build().CheckIntegrity(); len(errs) > 0 {
		t.Fatal(errs)
	}
	for name, damage := range map[string]func(tb *Table){
		"a deleted row's key out of order":  func(tb *Table) { tb.heap.cols[0].cells[4] = 99 },
		"a zone that counts a row too many": func(tb *Table) { z := tb.parts[1]; z.live++; tb.parts[1] = z },
		"a zone that ends before its rows":  func(tb *Table) { z := tb.parts[2]; z.max = 5; tb.parts[2] = z },
		"a partition without a zone":        func(tb *Table) { delete(tb.parts, 0) },
		"a zone without a partition":        func(tb *Table) { tb.parts[7] = zone{} },
	} {
		tb := build()
		damage(tb)
		if errs := tb.CheckIntegrity(); len(errs) == 0 {
			t.Errorf("%s: CheckIntegrity found nothing", name)
		}
	}
}
