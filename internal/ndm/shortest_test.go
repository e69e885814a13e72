package ndm

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// referenceShortestPath is the unidirectional Dijkstra ShortestPathCtx
// ran before it searched from both ends: forward from source over
// OutLinks until target is settled. The tests hold the bidirectional
// search to its answers and to a fraction of its work.
func referenceShortestPath(g Graph, source, target int64) (Path, error) {
	if !g.HasNode(source) || !g.HasNode(target) {
		return Path{}, fmt.Errorf("%w: endpoint missing", ErrNoPath)
	}
	type edgeTo struct{ prev, link int64 }
	dist := map[int64]float64{source: 0}
	from := map[int64]edgeTo{}
	done := map[int64]bool{}
	var q minHeap[int64]
	q.push(0, source)
	for len(q) > 0 {
		d, cur := q.pop()
		if done[cur] {
			continue
		}
		done[cur] = true
		if cur == target {
			break
		}
		g.OutLinks(cur, func(linkID, end int64, cost float64) bool {
			nd := d + cost
			if old, seen := dist[end]; !seen || nd < old {
				dist[end] = nd
				from[end] = edgeTo{prev: cur, link: linkID}
				q.push(nd, end)
			}
			return true
		})
	}
	if !done[target] {
		return Path{}, ErrNoPath
	}
	var nodes, links []int64
	for at := target; ; {
		nodes = append(nodes, at)
		e, ok := from[at]
		if !ok {
			break
		}
		links = append(links, e.link)
		at = e.prev
	}
	reverse(nodes)
	reverse(links)
	return Path{Nodes: nodes, Links: links, Cost: dist[target]}, nil
}

// checkAgainstReference fails t unless ShortestPathCtx and the reference
// agree on whether a path exists and on its cost, and the path returned
// is a walk from source to target along g's links, in their direction,
// whose costs sum to Cost. It returns how many backward expansions
// (InLinks calls) the search made.
func checkAgainstReference(t *testing.T, g *mapGraph, source, target int64) int {
	t.Helper()
	want, werr := referenceShortestPath(g, source, target)
	cg := &countingGraph{Graph: g}
	got, err := ShortestPathCtx(bg, cg, source, target)
	if werr != nil {
		if !errors.Is(err, ErrNoPath) {
			t.Fatalf("%d → %d: got %+v, %v; the reference finds no path", source, target, got, err)
		}
		return cg.backward
	}
	if err != nil {
		t.Fatalf("%d → %d: %v; the reference finds %+v", source, target, err, want)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%d → %d: cost %g, the reference's is %g (%+v against %+v)", source, target, got.Cost, want.Cost, got, want)
	}
	if msg := g.walkError(got, source, target); msg != "" {
		t.Fatalf("%d → %d: %s: %+v", source, target, msg, got)
	}
	return cg.backward
}

// walkError says what makes p other than a walk from source to target
// along g's links whose costs sum to p.Cost ("" when nothing does).
func (g *mapGraph) walkError(p Path, source, target int64) string {
	if len(p.Nodes) == 0 || p.Nodes[0] != source || p.Nodes[len(p.Nodes)-1] != target {
		return "endpoints are not source and target"
	}
	if len(p.Links) != len(p.Nodes)-1 {
		return "links are not one fewer than nodes"
	}
	sum := 0.0
	for i, link := range p.Links {
		found := false
		for _, h := range g.out[p.Nodes[i]] {
			if h.link == link && h.other == p.Nodes[i+1] {
				found, sum = true, sum+h.cost
				break
			}
		}
		if !found {
			return fmt.Sprintf("link %d does not lead from %d to %d", link, p.Nodes[i], p.Nodes[i+1])
		}
	}
	if sum != p.Cost {
		return fmt.Sprintf("link costs sum to %g", sum)
	}
	return ""
}

// randomNet draws a network of n nodes: sparse random links with costs
// 0..4 (a quarter of them zero), parallel copies of some links,
// self-loops, and a hub with links in both directions to a third of the
// nodes. Sparse enough that many pairs have no path.
func randomNet(t *testing.T, rng *rand.Rand, n int) *mapGraph {
	node := func() int64 { return int64(rng.Intn(n) + 1) }
	cost := func() int64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return int64(1 + rng.Intn(4))
	}
	var links [][3]int64
	for i := 0; i < n+rng.Intn(n); i++ {
		links = append(links, [3]int64{node(), node(), cost()})
	}
	for i := 0; i < n/4; i++ {
		l := links[rng.Intn(len(links))]
		links = append(links, [3]int64{l[0], l[1], cost()}) // parallel
		v := node()
		links = append(links, [3]int64{v, v, cost()}) // self-loop
	}
	hub := node()
	for i := 0; i < n/3; i++ {
		if rng.Intn(2) == 0 {
			links = append(links, [3]int64{node(), hub, cost()})
		} else {
			links = append(links, [3]int64{hub, node(), cost()})
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	return buildNet(t, n, links)
}

// Every pair drawn from random networks gets the reference's answer, as
// a valid walk. On the small networks, where every pair is checked, the
// forward side usually settles everything before the backward side's
// first turn; on the larger ones it scans past forwardFirstLinks and the
// two sides take turns, so meetings fall mid-path.
func TestShortestPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pairs, noPath := 0, 0
	check := func(g *mapGraph, s, d int64) (expandedBackward bool) {
		pairs++
		if _, err := referenceShortestPath(g, s, d); err != nil {
			noPath++
		}
		return checkAgainstReference(t, g, s, d) > 0
	}
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(30)
		g := randomNet(t, rng, n)
		for s := int64(1); s <= int64(n); s++ {
			for d := int64(1); d <= int64(n); d++ {
				check(g, s, d)
			}
		}
	}
	const large, largePairs = 20, 200
	backward := 0
	for trial := 0; trial < large; trial++ {
		n := 300 + rng.Intn(300)
		g := randomNet(t, rng, n)
		for i := 0; i < largePairs; i++ {
			if check(g, int64(rng.Intn(n)+1), int64(rng.Intn(n)+1)) {
				backward++
			}
		}
	}
	// The draw must exercise both answers and both sides.
	if noPath < pairs/5 || noPath > pairs*4/5 {
		t.Fatalf("%d of %d pairs have no path", noPath, pairs)
	}
	if backward < large*largePairs/4 {
		t.Fatalf("%d of the larger networks' %d searches expanded backward", backward, large*largePairs)
	}
}

// countingGraph counts the expansions (OutLinks and InLinks calls) made
// over it, the backward ones among them, and the links they visit.
type countingGraph struct {
	Graph
	expansions, backward, links int
}

func (c *countingGraph) OutLinks(node int64, fn func(linkID, end int64, cost float64) bool) {
	c.expansions++
	c.Graph.OutLinks(node, func(l, o int64, cost float64) bool { c.links++; return fn(l, o, cost) })
}

func (c *countingGraph) InLinks(node int64, fn func(linkID, start int64, cost float64) bool) {
	c.expansions++
	c.backward++
	c.Graph.InLinks(node, func(l, o int64, cost float64) bool { c.links++; return fn(l, o, cost) })
}

// proteinNet is a network shaped like the benchmark's: nProteins
// proteins, each with twelve leaf objects (four from a shared pool of
// organisms, types and the like, eight its own), and an interaction
// overlay whose sources are uniform and whose targets are Zipf-hot. It
// returns the network and shortest-path pairs drawn the way the load
// generator draws them: a uniform source and a Zipf-hot target.
func proteinNet(seed int64, nProteins, nPairs int) (*mapGraph, [][2]int64) {
	const shared, sharedLeaves, ownLeaves = 64, 4, 8
	rng := rand.New(rand.NewSource(seed))
	protein := func(i int) int64 { return int64(i + 1) }
	var links [][3]int64
	next := int64(nProteins + shared + 1)
	for i := 0; i < nProteins; i++ {
		for j := 0; j < sharedLeaves; j++ {
			links = append(links, [3]int64{protein(i), int64(nProteins + 1 + rng.Intn(shared)), 1})
		}
		for j := 0; j < ownLeaves; j++ {
			links = append(links, [3]int64{protein(i), next, 1})
			next++
		}
	}
	perm := rng.Perm(nProteins)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nProteins-1))
	hot := func() int { return perm[zipf.Uint64()] }
	has := map[[2]int]bool{}
	for edges := 0; edges < nProteins*33/10; {
		a, b := rng.Intn(nProteins), hot()
		if a == b || has[[2]int{a, b}] {
			continue
		}
		has[[2]int{a, b}] = true
		links = append(links, [3]int64{protein(a), protein(b), 1})
		edges++
	}
	g := &mapGraph{n: next - 1, out: map[int64][]hop{}, in: map[int64][]hop{}}
	for i, l := range links {
		id := int64(i + 1)
		g.out[l[0]] = append(g.out[l[0]], hop{id, l[1], float64(l[2])})
		g.in[l[1]] = append(g.in[l[1]], hop{id, l[0], float64(l[2])})
	}
	pairs := make([][2]int64, nPairs)
	for i := range pairs {
		a, b := rng.Intn(nProteins), hot()
		for b == a {
			b = hot()
		}
		pairs[i] = [2]int64{protein(a), protein(b)}
	}
	return g, pairs
}

// The bidirectional search does a fraction of the unidirectional one's
// work over a network shaped like the benchmark's, and no class of pair
// (by hop count, or no path) scans more links than it did.
func TestShortestPathExpansionBudget(t *testing.T) {
	g, pairs := proteinNet(1, 2000, 600)
	type tally struct{ pairs, expansions, links int }
	type class struct{ ref, bidi tally }
	classes := map[int]*class{} // hops; -1: no path
	var ref, bidi countingGraph
	ref.Graph, bidi.Graph = g, g
	for _, p := range pairs {
		e0, l0 := ref.expansions, ref.links
		want, werr := referenceShortestPath(&ref, p[0], p[1])
		e1, l1 := bidi.expansions, bidi.links
		got, err := ShortestPathCtx(bg, &bidi, p[0], p[1])
		if (werr == nil) != (err == nil) || got.Cost != want.Cost || len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%v: got %+v, %v; the reference has %+v, %v", p, got, err, want, werr)
		}
		hops := len(want.Links)
		if werr != nil {
			hops = -1
		}
		c := classes[hops]
		if c == nil {
			c = &class{}
			classes[hops] = c
		}
		c.ref.pairs++
		c.ref.expansions += ref.expansions - e0
		c.ref.links += ref.links - l0
		c.bidi.expansions += bidi.expansions - e1
		c.bidi.links += bidi.links - l1
	}
	var keys []int
	for h := range classes {
		keys = append(keys, h)
	}
	sort.Ints(keys)
	for _, h := range keys {
		c := classes[h]
		t.Logf("hops %2d: %4d pairs, expansions %8d → %6d, links %8d → %6d",
			h, c.ref.pairs, c.ref.expansions, c.bidi.expansions, c.ref.links, c.bidi.links)
		if c.bidi.links > c.ref.links {
			t.Errorf("hops %d: %d links scanned, the reference scans %d", h, c.bidi.links, c.ref.links)
		}
	}
	t.Logf("total: expansions %d → %d, links %d → %d", ref.expansions, bidi.expansions, ref.links, bidi.links)
	if classes[-1] == nil || classes[-1].ref.pairs < len(pairs)/10 {
		t.Errorf("too few pairs without a path to stand for the benchmark's: %v", classes[-1])
	}
	if bidi.expansions*10 > ref.expansions {
		t.Errorf("%d expansions, more than a tenth of the reference's %d", bidi.expansions, ref.expansions)
	}
	if bidi.links*4 > ref.links {
		t.Errorf("%d links scanned, more than a quarter of the reference's %d", bidi.links, ref.links)
	}
}

func BenchmarkShortestPath(b *testing.B) {
	g, pairs := proteinNet(1, 2000, 600)
	// Count each pair's expansions once, outside the timed loop, so the
	// counting wrapper's closures stay out of allocs/op.
	expansions := make([]int, len(pairs))
	for i, p := range pairs {
		cg := &countingGraph{Graph: g}
		if _, err := ShortestPathCtx(bg, cg, p[0], p[1]); err != nil && !errors.Is(err, ErrNoPath) {
			b.Fatal(err)
		}
		expansions[i] = cg.expansions
	}
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := ShortestPathCtx(bg, g, p[0], p[1]); err != nil && !errors.Is(err, ErrNoPath) {
			b.Fatal(err)
		}
		total += expansions[i%len(pairs)]
	}
	b.ReportMetric(float64(total)/float64(b.N), "expansions/op")
}
