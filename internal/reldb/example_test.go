package reldb_test

import (
	"fmt"
	"log"

	"repro/internal/reldb"
)

// Example builds a small schema and joins two tables by probing a unique
// index per outer row — an index nested-loop join, the access path behind
// the paper's Experiment I flat-table query.
func Example() {
	db := reldb.NewDatabase("demo")
	people, err := db.CreateTable(reldb.NewSchema("people",
		reldb.Column{Name: "ID", Kind: reldb.KindInt},
		reldb.Column{Name: "NAME", Kind: reldb.KindString},
	))
	if err != nil {
		log.Fatal(err)
	}
	pk, err := people.CreateIndex("pk", true, "ID")
	if err != nil {
		log.Fatal(err)
	}
	orders, err := db.CreateTable(reldb.NewSchema("orders",
		reldb.Column{Name: "PERSON_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "ITEM", Kind: reldb.KindString},
	))
	if err != nil {
		log.Fatal(err)
	}
	people.Insert(reldb.Row{reldb.Int(1), reldb.String_("ann")})
	people.Insert(reldb.Row{reldb.Int(2), reldb.String_("bob")})
	orders.Insert(reldb.Row{reldb.Int(2), reldb.String_("lamp")})
	orders.Insert(reldb.Row{reldb.Int(1), reldb.String_("desk")})

	// SELECT o.item, p.name FROM orders o JOIN people p ON p.id = o.person_id
	orders.Scan(func(_ reldb.RowID, o reldb.Row) bool {
		if id, ok := pk.LookupOne(reldb.Key{o[0]}); ok {
			p, _ := people.Get(id)
			fmt.Printf("%s -> %s\n", o[1].Str(), p[1].Str())
		}
		return true
	})
	// Output:
	// lamp -> bob
	// desk -> ann
}

// ExampleTable_CreateFunctionIndex shows a §7.2-style function-based
// index: rows indexed by a computed key.
func ExampleTable_CreateFunctionIndex() {
	t := reldb.NewTable(reldb.NewSchema("words",
		reldb.Column{Name: "W", Kind: reldb.KindString},
	))
	byLen, _ := t.CreateFunctionIndex("bylen", false, func(r reldb.Row) reldb.Key {
		return reldb.Key{reldb.Int(int64(len(r[0].Str())))}
	})
	for _, w := range []string{"a", "bb", "cc", "ddd"} {
		t.Insert(reldb.Row{reldb.String_(w)})
	}
	ids := byLen.Lookup(reldb.Key{reldb.Int(2)})
	fmt.Println(len(ids), "two-letter words")
	// Output:
	// 2 two-letter words
}
