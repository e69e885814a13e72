package core

import (
	"context"
	"slices"

	"testing"

	"repro/internal/ndm"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

func mustURI(u string) rdfterm.Term { return rdfterm.NewURI(u) }

func newAppTable(t *testing.T, s *Store, name string) *ApplicationTable {
	t.Helper()
	db := reldb.NewDatabase("APP")
	at, err := CreateApplicationTable(db, s, name, reldb.Column{Name: "ID", Kind: reldb.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// TestApplicationTableCIAScenario walks the paper's §4.3 steps: create the
// application table, create the graph, insert triples.
func TestApplicationTableCIAScenario(t *testing.T) {
	s := newStoreWithModel(t, "cia")
	a := govAliases()
	ciadata := newAppTable(t, s, "ciadata")

	ts, err := ciadata.InsertTriple([]reldb.Value{reldb.Int(1)}, "cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	if err != nil {
		t.Fatal(err)
	}
	if ciadata.Len() != 1 {
		t.Fatalf("app table rows = %d", ciadata.Len())
	}
	// Read the row back; the object re-binds and member functions work.
	var got TripleS
	ciadata.Scan(func(_ reldb.RowID, user []reldb.Value, row TripleS) bool {
		if user[0].Int64() != 1 {
			t.Errorf("user column = %v", user[0])
		}
		got = row
		return true
	})
	if got.TID != ts.TID {
		t.Fatalf("round-tripped TID = %d, want %d", got.TID, ts.TID)
	}
	sub, err := got.GetSubject()
	if err != nil || sub != "http://www.us.gov#files" {
		t.Fatalf("GetSubject = %q, %v", sub, err)
	}
}

func TestApplicationTableValidation(t *testing.T) {
	s := newStoreWithModel(t, "m")
	at := newAppTable(t, s, "t")
	if _, err := at.Insert([]reldb.Value{}, TripleS{}); err == nil {
		t.Fatal("wrong user column count accepted")
	}
	if _, err := at.Insert([]reldb.Value{reldb.Int(1)}, TripleS{}); err == nil {
		t.Fatal("zero TripleS accepted")
	}
}

func TestApplicationTableGet(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	at := newAppTable(t, s, "t")
	ts, _ := at.InsertTriple([]reldb.Value{reldb.Int(9)}, "m", "gov:a", "gov:p", "gov:b", a)
	user, got, err := at.Get(0)
	if err != nil || user[0].Int64() != 9 || got.TID != ts.TID {
		t.Fatalf("Get = %v, %v, %v", user, got, err)
	}
}

// TestFunctionBasedIndexes exercises §7.2: subject/property/object
// function-based indexes and the Experiment II query path.
func TestFunctionBasedIndexes(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	at := newAppTable(t, s, "uniprot")
	rows := [][3]string{
		{"gov:prot1", "gov:seeAlso", "gov:x1"},
		{"gov:prot1", "gov:seeAlso", "gov:x2"},
		{"gov:prot1", "gov:organism", `"9606"`},
		{"gov:prot2", "gov:seeAlso", "gov:x1"},
	}
	for i, r := range rows {
		if _, err := at.InsertTriple([]reldb.Value{reldb.Int(int64(i))}, "m", r[0], r[1], r[2], a); err != nil {
			t.Fatal(err)
		}
	}
	subIdx, err := at.CreateSubjectIndex("sub_fbidx")
	if err != nil {
		t.Fatal(err)
	}
	propIdx, err := at.CreatePropertyIndex("prop_fbidx")
	if err != nil {
		t.Fatal(err)
	}
	objIdx, err := at.CreateObjectIndex("obj_fbidx")
	if err != nil {
		t.Fatal(err)
	}

	got, err := at.QueryBySubject(subIdx, "http://www.us.gov#prot1")
	if err != nil || len(got) != 3 {
		t.Fatalf("QueryBySubject = %d rows, %v", len(got), err)
	}
	if n := len(propIdx.Lookup(reldb.Key{reldb.String_("http://www.us.gov#seeAlso")})); n != 3 {
		t.Fatalf("property index rows = %d", n)
	}
	if n := len(objIdx.Lookup(reldb.Key{reldb.String_("9606")})); n != 1 {
		t.Fatalf("object index rows = %d", n)
	}
	// New inserts are indexed automatically.
	at.InsertTriple([]reldb.Value{reldb.Int(99)}, "m", "gov:prot1", "gov:created", `"2000-01-01"`, a)
	got, _ = at.QueryBySubject(subIdx, "http://www.us.gov#prot1")
	if len(got) != 4 {
		t.Fatalf("after insert QueryBySubject = %d rows", len(got))
	}
	// Duplicate triple in the app table: two rows share IDs (Figure 6's
	// COST semantics), both visible via the index.
	at.InsertTriple([]reldb.Value{reldb.Int(100)}, "m", "gov:prot1", "gov:created", `"2000-01-01"`, a)
	got, _ = at.QueryBySubject(subIdx, "http://www.us.gov#prot1")
	if len(got) != 5 {
		t.Fatalf("after duplicate insert = %d rows", len(got))
	}
}

func TestContainerBagSeq(t *testing.T) {
	s := newStoreWithModel(t, "m")
	members := []string{"http://class/student1", "http://class/student2", "http://class/student3"}
	bag, err := s.CreateContainer("m", BagContainer,
		mustURI(members[0]), mustURI(members[1]), mustURI(members[2]))
	if err != nil {
		t.Fatal(err)
	}
	kind, err := s.ContainerKindOf("m", bag)
	if err != nil || kind != BagContainer {
		t.Fatalf("kind = %q, %v", kind, err)
	}
	got, err := s.ContainerMembers("m", bag)
	if err != nil || len(got) != 3 {
		t.Fatalf("members = %v, %v", got, err)
	}
	for i, m := range got {
		if m.Value != members[i] {
			t.Errorf("member %d = %v", i, m)
		}
	}
	// Membership links carry LINK_TYPE RDF_MEMBER.
	prop := mustURI(rdfterm.MembershipProperty(1))
	ts, err := s.Find(context.Background(), "m", Pattern{Subject: &bag, Predicate: &prop})
	if err != nil || len(ts) != 1 {
		t.Fatalf("find member 1 = %v, %v", ts, err)
	}
	info, _ := s.LinkInfo(ts[0].TID)
	if info.LinkType != "RDF_MEMBER" {
		t.Errorf("LINK_TYPE = %s", info.LinkType)
	}
	// Append continues the numbering.
	n, err := s.AppendToContainer("m", bag, mustURI("http://class/student4"))
	if err != nil || n != 4 {
		t.Fatalf("append = %d, %v", n, err)
	}
	got, _ = s.ContainerMembers("m", bag)
	if len(got) != 4 {
		t.Fatalf("members after append = %d", len(got))
	}
	// Unknown kind rejected.
	if _, err := s.CreateContainer("m", ContainerKind("http://bad")); err == nil {
		t.Fatal("bad container kind accepted")
	}
}

func TestNetworkView(t *testing.T) {
	s := newStoreWithModel(t, "m1", "m2")
	a := govAliases()
	// m1: a → b → c; m2: c → d.
	s.NewTripleS("m1", "gov:a", "gov:p", "gov:b", a)
	s.NewTripleS("m1", "gov:b", "gov:p", "gov:c", a)
	s.NewTripleS("m2", "gov:c", "gov:p", "gov:d", a)

	all, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	aID, ok := all.NodeID(mustURI("http://www.us.gov#a"))
	if !ok {
		t.Fatal("node a missing")
	}
	dID, _ := all.NodeID(mustURI("http://www.us.gov#d"))
	reachesD := func(g ndm.Graph) bool {
		nodes, err := ndm.ReachableCtx(context.Background(), g, aID, -1)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Contains(nodes, dID)
	}
	// Across all models, a reaches d.
	if !reachesD(all) {
		t.Fatal("a should reach d across models")
	}
	// Restricted to m1 only, it does not.
	m1only, err := s.Network("m1")
	if err != nil {
		t.Fatal(err)
	}
	if reachesD(m1only) {
		t.Fatal("a should not reach d within m1")
	}
	term, err := all.NodeTerm(aID)
	if err != nil || term.Value != "http://www.us.gov#a" {
		t.Fatalf("NodeTerm = %v, %v", term, err)
	}
	if _, err := s.Network("missing"); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestApplicationTableAccessor(t *testing.T) {
	s := newStoreWithModel(t, "m")
	at := newAppTable(t, s, "t")
	if at.Table() == nil || at.Table().Name() != "t" {
		t.Fatal("Table accessor wrong")
	}
	// InsertTriple propagates constructor errors.
	if _, err := at.InsertTriple([]reldb.Value{reldb.Int(1)}, "ghost", "gov:a", "gov:p", "gov:b", govAliases()); err == nil {
		t.Fatal("missing model accepted")
	}
}
