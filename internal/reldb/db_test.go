package reldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestDatabaseAccessors(t *testing.T) {
	db := NewDatabase("MDSYS")
	if db.Name() != "MDSYS" {
		t.Fatalf("Name = %q", db.Name())
	}
	schema := NewSchema("pt",
		Column{Name: "P", Kind: KindInt},
		Column{Name: "V", Kind: KindString},
	)
	pt, err := db.CreatePartitionedTable(schema, "P")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Insert(Row{Int(1), String_("x")}); err != nil {
		t.Fatal(err)
	}
	if got := pt.PartitionLen(1); got != 1 {
		t.Fatalf("PartitionLen = %d", got)
	}
	if schema.NumColumns() != 2 {
		t.Fatalf("NumColumns = %d", schema.NumColumns())
	}
	if schema.Table() != "pt" {
		t.Fatalf("Table = %q", schema.Table())
	}
	if _, err := db.CreateSequence("s", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateSequence("s", 1); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("dup sequence: %v", err)
	}
	seq, err := db.Sequence("s")
	if err != nil || seq.Next() != 1 {
		t.Fatalf("Sequence = %v, %v", seq, err)
	}
	if _, err := db.Sequence("ghost"); err == nil {
		t.Fatal("missing sequence found")
	}
	v, err := db.CreateView("v", pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "v" {
		t.Fatalf("view Name = %q", v.Name())
	}
	// Unfiltered, unprojected view passes rows through.
	if v.Len() != 1 {
		t.Fatalf("view Len = %d", v.Len())
	}
	if err := db.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropView("v"); err == nil {
		t.Fatal("double drop view accepted")
	}
}

func TestIndexAccessors(t *testing.T) {
	tb := NewTable(NewSchema("t",
		Column{Name: "A", Kind: KindInt},
	))
	ix, _ := tb.CreateIndex("uq", true, "A")
	if ix.Name() != "uq" || !ix.Unique() {
		t.Fatal("index accessors wrong")
	}
	if tb.Name() != "t" {
		t.Fatalf("table Name = %q", tb.Name())
	}
	tb.Insert(Row{Int(7)})
	id, ok := ix.LookupOne(Key{Int(7)})
	if !ok {
		t.Fatal("LookupOne missed")
	}
	r, _ := tb.Get(id)
	if r[0].Int64() != 7 {
		t.Fatalf("row = %v", r)
	}
	if _, ok := ix.LookupOne(Key{Int(8)}); ok {
		t.Fatal("LookupOne found ghost")
	}
	if !ix.Contains(Key{Int(7)}) || ix.Contains(Key{Int(8)}) {
		t.Fatal("Contains wrong")
	}
}

func TestIndexPrefixIterator(t *testing.T) {
	tb := NewTable(NewSchema("t",
		Column{Name: "A", Kind: KindInt},
		Column{Name: "B", Kind: KindInt},
	))
	ix, _ := tb.CreateIndex("ab", false, "A", "B")
	for i := int64(0); i < 12; i++ {
		tb.Insert(Row{Int(i % 3), Int(i)})
	}
	n := 0
	ix.ScanPrefix(Key{Int(1)}, func(_ Key, id RowID) bool {
		n++
		if r, err := tb.Get(id); err != nil || r[0].Int64() != 1 {
			t.Fatalf("leaked row %v, %v", r, err)
		}
		return true
	})
	if n != 4 {
		t.Fatalf("prefix rows = %d", n)
	}
}

func TestValueEqualAndStringCoverage(t *testing.T) {
	if !Int(3).Equal(Int(3)) || Int(3).Equal(Int(4)) || Int(3).Equal(String_("3")) {
		t.Fatal("Equal wrong")
	}
	for _, v := range []Value{Null(), Int(1), Float(2.5), String_("s"), Bool(true), Bool(false)} {
		if v.String() == "" {
			t.Fatalf("String empty for %#v", v)
		}
	}
}

// TestConcurrentTableAccess exercises parallel writers and readers on one
// table (run with -race).
func TestConcurrentTableAccess(t *testing.T) {
	tb := NewTable(NewSchema("t",
		Column{Name: "A", Kind: KindInt},
		Column{Name: "B", Kind: KindString},
	))
	ix, _ := tb.CreateIndex("a", false, "A")
	var wg sync.WaitGroup
	const writers, perWriter = 4, 250
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := tb.Insert(Row{Int(int64(i % 10)), String_(fmt.Sprintf("w%d-%d", w, i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				ix.Lookup(Key{Int(int64(i % 10))})
				tb.Len()
				tb.Scan(func(_ RowID, _ Row) bool { return false })
			}
		}()
	}
	wg.Wait()
	if tb.Len() != writers*perWriter {
		t.Fatalf("Len = %d", tb.Len())
	}
	if ix.Len() != writers*perWriter {
		t.Fatalf("index Len = %d", ix.Len())
	}
}

func TestSequenceAdvanceTo(t *testing.T) {
	s := NewSequence(10)
	s.AdvanceTo(100)
	if got := s.Next(); got != 100 {
		t.Fatalf("Next after AdvanceTo = %d", got)
	}
	s.AdvanceTo(50) // never backwards
	if got := s.Next(); got != 101 {
		t.Fatalf("Next after backwards AdvanceTo = %d", got)
	}
}
