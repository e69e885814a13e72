package ndm

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// bg is the context of analyses that are not cancelled.
var bg = context.Background()

// mapGraph is a map-backed Graph: nodes 1..n and links numbered from 1
// in the order they were added.
type mapGraph struct {
	n       int64
	out, in map[int64][]hop
}

// hop is one link seen from one of its endpoints.
type hop struct {
	link, other int64
	cost        float64
}

// buildNet creates a network with nodes 1..n and the given
// {start, end, cost} links.
func buildNet(t *testing.T, nNodes int, links [][3]int64) *mapGraph {
	t.Helper()
	g := &mapGraph{n: int64(nNodes), out: map[int64][]hop{}, in: map[int64][]hop{}}
	for i, l := range links {
		if !g.HasNode(l[0]) || !g.HasNode(l[1]) || l[2] < 0 {
			t.Fatalf("bad link %v", l)
		}
		id := int64(i + 1)
		g.out[l[0]] = append(g.out[l[0]], hop{id, l[1], float64(l[2])})
		g.in[l[1]] = append(g.in[l[1]], hop{id, l[0], float64(l[2])})
	}
	return g
}

func (g *mapGraph) HasNode(node int64) bool { return node >= 1 && node <= g.n }

func (g *mapGraph) Nodes(fn func(node int64) bool) {
	for n := int64(1); n <= g.n && fn(n); n++ {
	}
}

func (g *mapGraph) OutLinks(node int64, fn func(linkID, end int64, cost float64) bool) {
	visitHops(g.out[node], fn)
}

func (g *mapGraph) InLinks(node int64, fn func(linkID, start int64, cost float64) bool) {
	visitHops(g.in[node], fn)
}

func visitHops(hops []hop, fn func(linkID, other int64, cost float64) bool) {
	for _, h := range hops {
		if !fn(h.link, h.other, h.cost) {
			return
		}
	}
}

func TestShortestPath(t *testing.T) {
	// 1 →(1) 2 →(1) 3, plus direct 1 →(5) 3: path through 2 wins.
	net := buildNet(t, 3, [][3]int64{{1, 2, 1}, {2, 3, 1}, {1, 3, 5}})
	p, err := ShortestPathCtx(bg, net, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 2 || len(p.Nodes) != 3 || p.Nodes[1] != 2 {
		t.Fatalf("path = %+v", p)
	}
	if len(p.Links) != 2 {
		t.Fatalf("links = %v", p.Links)
	}
	// Direction matters.
	if _, err := ShortestPathCtx(bg, net, 3, 1); !errors.Is(err, ErrNoPath) {
		t.Fatalf("reverse path err = %v", err)
	}
	// Self path.
	p, err = ShortestPathCtx(bg, net, 2, 2)
	if err != nil || p.Cost != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path = %+v, %v", p, err)
	}
	if _, err := ShortestPathCtx(bg, net, 1, 99); err == nil {
		t.Fatal("missing endpoint accepted")
	}
}

func TestWithinCostAndNearestNeighbors(t *testing.T) {
	net := buildNet(t, 5, [][3]int64{{1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {1, 5, 10}})
	within, err := WithinCost(bg, net, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(within) != 2 || within[0].Node != 2 || within[1].Node != 3 {
		t.Fatalf("WithinCost = %+v", within)
	}
	nn, err := NearestNeighbors(bg, net, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || nn[0].Node != 2 || nn[2].Node != 4 {
		t.Fatalf("NearestNeighbors = %+v", nn)
	}
	// k larger than reachable set.
	nn, _ = NearestNeighbors(bg, net, 1, 100)
	if len(nn) != 4 {
		t.Fatalf("NN(100) = %+v", nn)
	}
}

func TestReachable(t *testing.T) {
	net := buildNet(t, 6, [][3]int64{{1, 2, 1}, {2, 3, 1}, {3, 1, 1}, {4, 5, 1}})
	r, err := ReachableCtx(bg, net, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 || r[0] != 2 || r[1] != 3 {
		t.Fatalf("Reachable = %v", r)
	}
	r, _ = ReachableCtx(bg, net, 1, 1)
	if len(r) != 1 || r[0] != 2 {
		t.Fatalf("Reachable depth 1 = %v", r)
	}
	if _, err := ReachableCtx(bg, net, 99, -1); err == nil {
		t.Fatal("missing source accepted")
	}
}

func TestConnectedComponents(t *testing.T) {
	net := buildNet(t, 6, [][3]int64{{1, 2, 1}, {3, 2, 1}, {4, 5, 1}})
	comps, err := ConnectedComponents(bg, net)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 1 || comps[0][2] != 3 {
		t.Fatalf("comp 0 = %v", comps[0])
	}
	if len(comps[2]) != 1 || comps[2][0] != 6 {
		t.Fatalf("comp 2 = %v", comps[2])
	}
}

func TestMinimumCostSpanningTree(t *testing.T) {
	// Triangle 1-2 (1), 2-3 (2), 1-3 (10): MCST = {1-2, 2-3} cost 3.
	net := buildNet(t, 3, [][3]int64{{1, 2, 1}, {2, 3, 2}, {1, 3, 10}})
	edges, total, err := MinimumCostSpanningTree(bg, net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 || total != 3 {
		t.Fatalf("MCST = %+v total %g", edges, total)
	}
	if _, _, err := MinimumCostSpanningTree(bg, net, 99); err == nil {
		t.Fatal("missing root accepted")
	}
}

// Property-style test: Dijkstra distance never exceeds any directly
// sampled random-walk cost on random graphs.
func TestShortestPathNeverBeatenByRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(10)
		var links [][3]int64
		for i := 0; i < n*3; i++ {
			links = append(links, [3]int64{
				int64(rng.Intn(n) + 1), int64(rng.Intn(n) + 1), int64(rng.Intn(9) + 1)})
		}
		net := buildNet(t, n, links)
		src, dst := int64(rng.Intn(n)+1), int64(rng.Intn(n)+1)
		sp, err := ShortestPathCtx(bg, net, src, dst)
		if errors.Is(err, ErrNoPath) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Verify the reported path is consistent: walk it and sum costs.
		if sp.Nodes[0] != src || sp.Nodes[len(sp.Nodes)-1] != dst {
			t.Fatalf("path endpoints wrong: %+v", sp)
		}
		// Random greedy walks from src: if one reaches dst, its cost must
		// be >= sp.Cost.
		for w := 0; w < 30; w++ {
			cur, cost := src, 0.0
			for step := 0; step < 30 && cur != dst; step++ {
				type edge struct {
					end  int64
					cost float64
				}
				var outs []edge
				net.OutLinks(cur, func(_, end int64, c float64) bool {
					outs = append(outs, edge{end, c})
					return true
				})
				if len(outs) == 0 {
					break
				}
				pick := outs[rng.Intn(len(outs))]
				cur, cost = pick.end, cost+pick.cost
			}
			if cur == dst && cost < sp.Cost-1e-9 {
				t.Fatalf("random walk cost %g beats Dijkstra %g", cost, sp.Cost)
			}
		}
	}
}

func TestMCSTSpansComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(8)
		var links [][3]int64
		// Chain guarantees connectivity, then random extras.
		for i := int64(1); i < int64(n); i++ {
			links = append(links, [3]int64{i, i + 1, int64(rng.Intn(9) + 1)})
		}
		for i := 0; i < n; i++ {
			links = append(links, [3]int64{
				int64(rng.Intn(n) + 1), int64(rng.Intn(n) + 1), int64(rng.Intn(9) + 1)})
		}
		net := buildNet(t, n, links)
		edges, _, err := MinimumCostSpanningTree(bg, net, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != n-1 {
			t.Fatalf("MCST has %d edges for %d connected nodes", len(edges), n)
		}
	}
}
