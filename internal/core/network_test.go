package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ndm"
	"repro/internal/rdfterm"
)

// The NDM view (§1, §4) reads rdf_link$ by node alone, across models, and
// by END_NODE_ID — the object as written — where every other access path
// reads it by model and by canonical object. These tests pin what it
// answers, and what the orphan check that shares its access paths keeps, in
// the cases where those differences show. They compare sets: the order in
// which a node's links are visited is the index's business.

type hop struct {
	link, other int64
	cost        float64
}

func outLinks(n *RDFNetwork, node int64) []hop { return hops(n.OutLinks, node) }
func inLinks(n *RDFNetwork, node int64) []hop  { return hops(n.InLinks, node) }

func hops(visit func(int64, func(int64, int64, float64) bool), node int64) []hop {
	var out []hop
	visit(node, func(link, other int64, cost float64) bool {
		out = append(out, hop{link, other, cost})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].link < out[j].link })
	return out
}

func mustInsert(t *testing.T, s *Store, model string, sub, prop, obj rdfterm.Term) TripleS {
	t.Helper()
	ts, err := s.InsertTerms(model, sub, prop, obj)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func mustNetwork(t *testing.T, s *Store, models ...string) *RDFNetwork {
	t.Helper()
	n, err := s.Network(models...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkLinksAcrossModels(t *testing.T) {
	s := newStoreWithModel(t, "m1", "m2")
	uri := func(x string) rdfterm.Term { return rdfterm.NewURI("http://n/" + x) }
	a1 := mustInsert(t, s, "m1", uri("a"), uri("p"), uri("b"))
	a2 := mustInsert(t, s, "m1", uri("a"), uri("q"), uri("c"))
	mustInsert(t, s, "m1", uri("a"), uri("q"), uri("c")) // again: COST 2
	b1 := mustInsert(t, s, "m2", uri("a"), uri("p"), uri("b"))
	b2 := mustInsert(t, s, "m2", uri("d"), uri("p"), uri("b"))
	a, b := a1.SID, a1.OID

	for _, tc := range []struct {
		models  []string
		out, in []hop
		outOfD  int
		inOfC   int
	}{
		{nil, []hop{{a1.TID, b, 1}, {a2.TID, a2.OID, 2}, {b1.TID, b, 1}}, []hop{{a1.TID, a, 1}, {b1.TID, a, 1}, {b2.TID, b2.SID, 1}}, 1, 1},
		{[]string{"m1"}, []hop{{a1.TID, b, 1}, {a2.TID, a2.OID, 2}}, []hop{{a1.TID, a, 1}}, 0, 1},
		{[]string{"m2"}, []hop{{b1.TID, b, 1}}, []hop{{b1.TID, a, 1}, {b2.TID, b2.SID, 1}}, 1, 0},
		{[]string{"m1", "m2"}, []hop{{a1.TID, b, 1}, {a2.TID, a2.OID, 2}, {b1.TID, b, 1}}, []hop{{a1.TID, a, 1}, {b1.TID, a, 1}, {b2.TID, b2.SID, 1}}, 1, 1},
	} {
		n := mustNetwork(t, s, tc.models...)
		if got := outLinks(n, a); fmt.Sprint(got) != fmt.Sprint(tc.out) {
			t.Errorf("models %v: OutLinks(a) = %v, want %v", tc.models, got, tc.out)
		}
		if got := inLinks(n, b); fmt.Sprint(got) != fmt.Sprint(tc.in) {
			t.Errorf("models %v: InLinks(b) = %v, want %v", tc.models, got, tc.in)
		}
		if got := len(outLinks(n, b2.SID)); got != tc.outOfD {
			t.Errorf("models %v: d has %d out-links, want %d", tc.models, got, tc.outOfD)
		}
		if got := len(inLinks(n, a2.OID)); got != tc.inOfC {
			t.Errorf("models %v: c has %d in-links, want %d", tc.models, got, tc.inOfC)
		}
		if len(inLinks(n, a)) != 0 || len(outLinks(n, b)) != 0 {
			t.Errorf("models %v: a has in-links or b out-links", tc.models)
		}
	}
}

// A typed literal is a node under the VALUE_ID of the text it was written
// with; the links that reach it are those whose object was written that
// way, though rdf_link$ files all spellings of a value under one canonical
// object.
func TestInLinksOfNonCanonicalLiteral(t *testing.T) {
	s := newStoreWithModel(t, "m", "other")
	uri := func(x string) rdfterm.Term { return rdfterm.NewURI("http://n/" + x) }
	lit := func(lex string) rdfterm.Term { return rdfterm.NewTypedLiteral(lex, rdfterm.XSDInt) }
	padded := mustInsert(t, s, "m", uri("s1"), uri("p"), lit("01"))
	canon := mustInsert(t, s, "m", uri("s2"), uri("p"), lit("1"))
	signed := mustInsert(t, s, "other", uri("s3"), uri("p"), lit("+1"))
	again := mustInsert(t, s, "other", uri("s4"), uri("p"), lit("01"))
	upper := mustInsert(t, s, "m", uri("s5"), uri("p"), rdfterm.NewLangLiteral("chat", "FR"))
	lower := mustInsert(t, s, "m", uri("s6"), uri("p"), rdfterm.NewLangLiteral("chat", "fr"))
	// A spelling whose canonical form no triple has as its own object.
	lone := mustInsert(t, s, "m", uri("s7"), uri("p"), lit("007"))

	n := mustNetwork(t, s)
	for _, tc := range []struct {
		name string
		node int64
		want []hop
	}{
		{`"01"`, padded.OID, []hop{{padded.TID, padded.SID, 1}, {again.TID, again.SID, 1}}},
		{`"1"`, canon.OID, []hop{{canon.TID, canon.SID, 1}}},
		{`"+1"`, signed.OID, []hop{{signed.TID, signed.SID, 1}}},
		{`"chat"@FR`, upper.OID, []hop{{upper.TID, upper.SID, 1}}},
		{`"chat"@fr`, lower.OID, []hop{{lower.TID, lower.SID, 1}}},
		{`"007"`, lone.OID, []hop{{lone.TID, lone.SID, 1}}},
	} {
		if got := inLinks(n, tc.node); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("InLinks(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := inLinks(mustNetwork(t, s, "m"), padded.OID); fmt.Sprint(got) != fmt.Sprint([]hop{{padded.TID, padded.SID, 1}}) {
		t.Errorf(`InLinks("01") in m alone = %v`, got)
	}
	if padded.OID == canon.OID || upper.OID == lower.OID {
		t.Fatal("two spellings share a VALUE_ID")
	}
	// The canonical form of "007" is interned, and is no node.
	seven, ok := n.NodeID(lit("7"))
	if !ok || n.HasNode(seven) || len(inLinks(n, seven)) != 0 {
		t.Errorf(`"7": interned %v, node %v, in-links %v`, ok, n.HasNode(seven), inLinks(n, seven))
	}
}

// A node leaves rdf_node$ with its last link in any model, as subject or as
// object under the spelling it has — not with its last link in one model,
// and not because the links left reach only another spelling of its value.
func TestOrphanCheckSeesEveryModelAndSpelling(t *testing.T) {
	s := newStoreWithModel(t, "m1", "m2")
	uri := func(x string) rdfterm.Term { return rdfterm.NewURI("http://n/" + x) }
	lit := func(lex string) rdfterm.Term { return rdfterm.NewTypedLiteral(lex, rdfterm.XSDInt) }
	n := mustNetwork(t, s)
	has := func(what string, node int64, want bool) {
		t.Helper()
		if got := n.HasNode(node); got != want {
			t.Errorf("%s: in rdf_node$ = %v, want %v", what, got, want)
		}
		assertInvariants(t, s) // invariant 2: rdf_node$ is exactly the nodes links use
	}
	del := func(ts TripleS) {
		t.Helper()
		if err := s.write(func() error { return s.deleteByLinkIDLocked(ts.TID) }); err != nil {
			t.Fatal(err)
		}
	}

	// The only other reference is in another model, on either side.
	sub1 := mustInsert(t, s, "m1", uri("a"), uri("p"), uri("x"))
	sub2 := mustInsert(t, s, "m2", uri("a"), uri("p"), uri("y"))
	del(sub1)
	has("a, still a subject in m2", sub1.SID, true)
	has("x, unreferenced", sub1.OID, false)
	del(sub2)
	has("a, unreferenced", sub2.SID, false)
	obj1 := mustInsert(t, s, "m1", uri("b"), uri("p"), uri("o"))
	obj2 := mustInsert(t, s, "m2", uri("c"), uri("p"), uri("o"))
	del(obj2)
	has("o, still an object in m1", obj1.OID, true)
	del(obj1)
	has("o, unreferenced", obj1.OID, false)

	// The only other reference is to another spelling of the same value.
	padded := mustInsert(t, s, "m1", uri("s1"), uri("p"), lit("01"))
	canon := mustInsert(t, s, "m1", uri("s2"), uri("p"), lit("1"))
	padded2 := mustInsert(t, s, "m2", uri("s1"), uri("p"), lit("01"))
	del(canon)
	has(`"1", reached now only as the canonical form of "01"`, canon.OID, false)
	has(`"01"`, padded.OID, true)
	del(padded)
	has(`"01", still an object in m2`, padded.OID, true)
	del(padded2)
	has(`"01", unreferenced`, padded.OID, false)

	// Dropping a model keeps the nodes another model uses.
	keep := mustInsert(t, s, "m1", uri("k"), uri("p"), lit("02"))
	mustInsert(t, s, "m2", uri("k"), uri("p"), uri("z"))
	mustInsert(t, s, "m2", uri("j"), uri("p"), lit("02"))
	gone := mustInsert(t, s, "m1", uri("g"), uri("p"), lit("2"))
	if err := s.DropRDFModel("m1"); err != nil {
		t.Fatal(err)
	}
	has("k, a subject in m2", keep.SID, true)
	has(`"02", an object in m2`, keep.OID, true)
	has("g, used by m1 alone", gone.SID, false)
	has(`"2", used as written by m1 alone`, gone.OID, false)
}

func TestNetworkNodesAndInLinks(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	s.NewTripleS("m", "gov:a", "gov:p", "gov:c", a)
	s.NewTripleS("m", "gov:b", "gov:p", "gov:c", a)
	net, err := s.Network("m")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	net.Nodes(func(int64) bool { count++; return true })
	if count != 3 { // a, b, c
		t.Fatalf("network nodes = %d", count)
	}
	// Early stop.
	count = 0
	net.Nodes(func(int64) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
	cID, _ := net.NodeID(rdfterm.NewURI("http://www.us.gov#c"))
	in, out := ndm.Degree(net, cID)
	if in != 2 || out != 0 {
		t.Fatalf("degree(c) = (%d,%d)", in, out)
	}
	var starts []string
	net.InLinks(cID, func(_, start int64, cost float64) bool {
		term, err := net.NodeTerm(start)
		if err != nil {
			t.Fatal(err)
		}
		if cost != 1 {
			t.Fatalf("link cost = %g", cost)
		}
		starts = append(starts, term.Value)
		return true
	})
	if len(starts) != 2 {
		t.Fatalf("InLinks = %v", starts)
	}
	// InLinks early stop.
	n := 0
	net.InLinks(cID, func(_, _ int64, _ float64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("InLinks early stop visited %d", n)
	}
}
