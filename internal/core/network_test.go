package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ndm"
	"repro/internal/obs"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
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
	s.mu.RLock()
	seven, ok := s.lookupValueIDLocked(lit("7"))
	s.mu.RUnlock()
	if _, node := n.NodeID(lit("7")); !ok || node || n.HasNode(seven) || len(inLinks(n, seven)) != 0 {
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

// twoModelNetworkStore holds m1: a→b (and the typed literal "01"), and
// m2: a→c, d→e, f→f (and "1"), so m2's c, d, e, f are nodes of the store
// but not of m1, p is interned but is a node of neither, and "1" is the
// canonical form of m1's "01" without being one of its nodes.
func twoModelNetworkStore(t *testing.T) (*Store, []TripleS) {
	t.Helper()
	s := newStoreWithModel(t, "m1", "m2")
	uri := func(x string) rdfterm.Term { return rdfterm.NewURI("http://n/" + x) }
	lit := func(lex string) rdfterm.Term { return rdfterm.NewTypedLiteral(lex, rdfterm.XSDInt) }
	return s, []TripleS{
		mustInsert(t, s, "m1", uri("a"), uri("p"), uri("b")),
		mustInsert(t, s, "m1", uri("a"), uri("p"), lit("01")),
		mustInsert(t, s, "m2", uri("a"), uri("p"), uri("c")),
		mustInsert(t, s, "m2", uri("d"), uri("p"), uri("e")),
		mustInsert(t, s, "m2", uri("f"), uri("p"), uri("f")),
		mustInsert(t, s, "m2", uri("g"), uri("p"), lit("1")),
	}
}

// A network's nodes are the endpoints of its links: HasNode holds exactly
// for the nodes Nodes visits, NodeID finds exactly those, and each has a
// link in the network's scope.
func TestNetworkNodesAreLinkEndpoints(t *testing.T) {
	s, ts := twoModelNetworkStore(t)
	var candidates []int64
	for _, tr := range ts {
		candidates = append(candidates, tr.SID, tr.PID, tr.OID)
	}
	for _, models := range [][]string{nil, {"m1"}, {"m2"}, {"m1", "m2"}} {
		n := mustNetwork(t, s, models...)
		nodes := map[int64]bool{}
		n.Nodes(func(node int64) bool { nodes[node] = true; return true })
		for node := range nodes {
			if !n.HasNode(node) {
				t.Errorf("models %v: Nodes visits %d, HasNode denies it", models, node)
			}
			if len(outLinks(n, node))+len(inLinks(n, node)) == 0 {
				t.Errorf("models %v: node %d has no link in scope", models, node)
			}
		}
		for _, id := range candidates {
			if n.HasNode(id) != nodes[id] {
				t.Errorf("models %v: HasNode(%d) = %v, Nodes visits it: %v", models, id, n.HasNode(id), nodes[id])
			}
			term, err := s.GetValue(id)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := n.NodeID(term); ok != nodes[id] || ok && got != id {
				t.Errorf("models %v: NodeID(%s) = %d, %v", models, term, got, ok)
			}
		}
	}
}

func TestConnectedComponentsOfScopedNetwork(t *testing.T) {
	s, _ := twoModelNetworkStore(t)
	for _, tc := range []struct {
		models []string
		want   int
	}{
		{nil, 4},            // {a b c "01"} {d e} {f} {g "1"}
		{[]string{"m1"}, 1}, // {a b "01"}
		{[]string{"m2"}, 4}, // {a c} {d e} {f} {g "1"}
		{[]string{"m1", "m2"}, 4},
	} {
		comps, err := ndm.ConnectedComponents(context.Background(), mustNetwork(t, s, tc.models...))
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != tc.want {
			t.Errorf("models %v: %d components %v, want %d", tc.models, len(comps), comps, tc.want)
		}
	}
}

// ndm_traversal_steps_total counts the rows a traversal materialises: the
// nodes Nodes visits and the links OutLinks and InLinks visit, scoped or
// not (DESIGN.md §7).
func TestNetworkCountsTraversalSteps(t *testing.T) {
	s, ts := twoModelNetworkStore(t)
	reg := obs.NewRegistry()
	s.SetMetrics(NewMetrics(reg))
	steps := func() int64 {
		c, ok := reg.Snapshot().Counter("ndm_traversal_steps_total")
		if !ok {
			t.Fatal("ndm_traversal_steps_total not registered")
		}
		return c.Value
	}
	a, b := ts[0].SID, ts[0].OID
	for _, models := range [][]string{nil, {"m1"}, {"m2"}} {
		n := mustNetwork(t, s, models...)
		visits := 0
		count := func(int64, int64, float64) bool { visits++; return true }
		before := steps()
		n.Nodes(func(int64) bool { visits++; return true })
		n.OutLinks(a, count)
		n.InLinks(b, count)
		n.InLinks(a, count)
		if got := steps() - before; got != int64(visits) || visits == 0 {
			t.Errorf("models %v: steps grew by %d for %d visited rows", models, got, visits)
		}
	}
}

// Finding an IRI's in-links reads its VALUE_TYPE cell and decodes no
// term: the scan allocates nothing.
func TestInLinksOfIRIAllocateNothing(t *testing.T) {
	s := newStoreWithModel(t, "m")
	uri := func(x string) rdfterm.Term { return rdfterm.NewURI("http://n/" + x) }
	ts := mustInsert(t, s, "m", uri("a"), uri("p"), uri("b"))
	links := 0
	count := func(reldb.Cells) bool { links++; return true }
	s.mu.RLock()
	allocs := testing.AllocsPerRun(100, func() { s.scanInLinksLocked(ts.OID, 0, count) })
	s.mu.RUnlock()
	if allocs != 0 || links == 0 {
		t.Errorf("in-link scan of an IRI: %v allocations, %d links", allocs, links)
	}
}

// netLink is one link of the network a test expects: a triple's
// endpoints and its COST in one model.
type netLink struct {
	start, end int64
	cost       float64
}

// oracleCosts is the least cost of a walk from source to every node it
// reaches over links (Bellman-Ford). Only the endpoints of links are
// nodes, so a source no link touches reaches nothing, not even itself.
func oracleCosts(links map[int64]netLink, source int64) map[int64]float64 {
	dist := map[int64]float64{}
	for _, l := range links {
		if l.start == source || l.end == source {
			dist[source] = 0
		}
	}
	for changed := len(dist) > 0; changed; {
		changed = false
		for _, l := range links {
			if d, ok := dist[l.start]; ok {
				if old, seen := dist[l.end]; !seen || d+l.cost < old {
					dist[l.end], changed = d+l.cost, true
				}
			}
		}
	}
	return dist
}

// inLinkCounter counts a network's InLinks calls: the backward
// expansions of a shortest-path search.
type inLinkCounter struct {
	*RDFNetwork
	calls int
}

func (c *inLinkCounter) InLinks(node int64, fn func(linkID, start int64, cost float64) bool) {
	c.calls++
	c.RDFNetwork.InLinks(node, fn)
}

// Over a real RDFNetwork, whole-store and model-scoped, a sample of node
// pairs gets the oracle's answer as a walk along links of the network's
// scope. Objects include a typed literal written three ways, every
// spelling a target, so paths to one spelling must not take links to
// another; the models share subjects, so a scoped search must not take
// the other model's links. The networks are big enough for the search's
// backward side to take turns, so the literals' in-links are read through
// the canonical-object index.
func TestShortestPathOverRDFNetworkMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	uri := func(i int) rdfterm.Term { return rdfterm.NewURI(fmt.Sprintf("http://n/%d", i)) }
	spellings := []rdfterm.Term{
		rdfterm.NewTypedLiteral("01", rdfterm.XSDInt),
		rdfterm.NewTypedLiteral("1", rdfterm.XSDInt),
		rdfterm.NewTypedLiteral("+1", rdfterm.XSDInt),
	}
	models := []string{"m1", "m2"}
	searches, backward, toLiterals := 0, 0, 0
	for trial := 0; trial < 2; trial++ {
		s := newStoreWithModel(t, models...)
		n := 250 + rng.Intn(50)
		// scoped[model][TID] is that model's link; COST counts repeats.
		scoped := map[string]map[int64]netLink{"m1": {}, "m2": {}}
		nodes := map[int64]bool{}
		literals := map[int64]bool{}
		for i := 0; i < 3*n; i++ {
			obj := uri(rng.Intn(n))
			if rng.Intn(40) == 0 {
				obj = spellings[rng.Intn(len(spellings))]
			}
			m, sub := models[rng.Intn(2)], uri(rng.Intn(n))
			ts := mustInsert(t, s, m, sub, rdfterm.NewURI("http://n/p"), obj)
			l := scoped[m][ts.TID]
			scoped[m][ts.TID] = netLink{ts.SID, ts.OID, l.cost + 1}
			nodes[ts.SID], nodes[ts.OID] = true, true
			literals[ts.OID] = obj.Kind == rdfterm.Literal
		}
		// Sources: every third node. Targets: every literal spelling and
		// every tenth node.
		var all, sources, targets []int64
		for node := range nodes {
			all = append(all, node)
		}
		slices.Sort(all)
		for i, node := range all {
			if i%3 == 0 {
				sources = append(sources, node)
			}
			if literals[node] || i%10 == 0 {
				targets = append(targets, node)
			}
		}
		for _, scope := range [][]string{nil, {"m1"}, {"m2"}} {
			links := map[int64]netLink{}
			for _, m := range models {
				if scope == nil || scope[0] == m {
					for id, l := range scoped[m] {
						links[id] = l
					}
				}
			}
			net := &inLinkCounter{RDFNetwork: mustNetwork(t, s, scope...)}
			for _, src := range sources {
				costs := oracleCosts(links, src)
				for _, dst := range targets {
					before := net.calls
					p, err := ndm.ShortestPathCtx(context.Background(), net, src, dst)
					searches++
					if net.calls > before {
						backward++
					}
					want, found := costs[dst]
					if !found {
						if !errors.Is(err, ndm.ErrNoPath) {
							t.Fatalf("scope %v, %d → %d: %+v, %v; the oracle has no path", scope, src, dst, p, err)
						}
						continue
					}
					if err != nil || p.Cost != want {
						t.Fatalf("scope %v, %d → %d: %+v, %v; the oracle's cost is %g", scope, src, dst, p, err, want)
					}
					if msg := walkError(links, p, src, dst); msg != "" {
						t.Fatalf("scope %v, %d → %d: %s: %+v", scope, src, dst, msg, p)
					}
					if literals[dst] && net.calls > before {
						toLiterals++
					}
				}
			}
		}
	}
	if backward < searches/10 || toLiterals < 50 {
		t.Fatalf("%d of %d searches expanded backward, %d of them to a literal", backward, searches, toLiterals)
	}
	t.Logf("%d searches, %d expanded backward, %d of them to a literal", searches, backward, toLiterals)
}

// walkError says what makes p other than a walk from source to target
// along links whose costs sum to p.Cost ("" when nothing does).
func walkError(links map[int64]netLink, p ndm.Path, source, target int64) string {
	if len(p.Nodes) == 0 || p.Nodes[0] != source || p.Nodes[len(p.Nodes)-1] != target {
		return "endpoints are not source and target"
	}
	if len(p.Links) != len(p.Nodes)-1 {
		return "links are not one fewer than nodes"
	}
	sum := 0.0
	for i, id := range p.Links {
		l, ok := links[id]
		if !ok || l.start != p.Nodes[i] || l.end != p.Nodes[i+1] {
			return fmt.Sprintf("link %d does not lead from %d to %d in scope", id, p.Nodes[i], p.Nodes[i+1])
		}
		sum += l.cost
	}
	if sum != p.Cost {
		return fmt.Sprintf("link costs sum to %g", sum)
	}
	return ""
}
