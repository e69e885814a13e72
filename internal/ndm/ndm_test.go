package ndm

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/reldb"
)

// bg is the context of analyses that are not cancelled.
var bg = context.Background()

// buildNet creates a network with nodes 1..n (IDs assigned sequentially
// from 1) and the given links.
func buildNet(t *testing.T, nNodes int, links [][3]int64) *LogicalNetwork {
	t.Helper()
	db := reldb.NewDatabase("test")
	net, err := CreateLogicalNetwork(db, "net")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nNodes; i++ {
		if _, err := net.AddNode(""); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range links {
		if _, err := net.AddLink("", l[0], l[1], float64(l[2])); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestAddNodeLink(t *testing.T) {
	net := buildNet(t, 3, [][3]int64{{1, 2, 5}, {2, 3, 7}})
	if net.NumNodes() != 3 || net.NumLinks() != 2 {
		t.Fatalf("size = %d nodes %d links", net.NumNodes(), net.NumLinks())
	}
	if net.Name() != "net" {
		t.Fatalf("Name = %q", net.Name())
	}
	if !net.HasNode(1) || net.HasNode(99) {
		t.Fatal("HasNode wrong")
	}
	if _, err := net.AddLink("", 1, 99, 1); err == nil {
		t.Fatal("link to missing node accepted")
	}
	if _, err := net.AddLink("", 1, 2, -1); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestOutInLinks(t *testing.T) {
	net := buildNet(t, 3, [][3]int64{{1, 2, 5}, {1, 3, 7}, {2, 3, 1}})
	var outs []int64
	net.OutLinks(1, func(_, end int64, _ float64) bool {
		outs = append(outs, end)
		return true
	})
	if len(outs) != 2 {
		t.Fatalf("OutLinks(1) = %v", outs)
	}
	var ins []int64
	net.InLinks(3, func(_, start int64, _ float64) bool {
		ins = append(ins, start)
		return true
	})
	if len(ins) != 2 {
		t.Fatalf("InLinks(3) = %v", ins)
	}
	in, out := Degree(net, 1)
	if in != 0 || out != 2 {
		t.Fatalf("Degree(1) = (%d,%d)", in, out)
	}
}

func TestRemoveLink(t *testing.T) {
	net := buildNet(t, 2, [][3]int64{{1, 2, 5}})
	if err := net.RemoveLink(1); err != nil {
		t.Fatal(err)
	}
	if net.NumLinks() != 0 {
		t.Fatal("link not removed")
	}
	if err := net.RemoveLink(1); err == nil {
		t.Fatal("double remove accepted")
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
	if !IsReachable(net, 1, 3) || IsReachable(net, 1, 5) {
		t.Fatal("IsReachable wrong")
	}
	if !IsReachable(net, 6, 6) {
		t.Fatal("self reachability wrong")
	}
	if IsReachable(net, 1, 99) {
		t.Fatal("missing target reachable")
	}
}

func TestConnectedComponents(t *testing.T) {
	net := buildNet(t, 6, [][3]int64{{1, 2, 1}, {3, 2, 1}, {4, 5, 1}})
	comps := ConnectedComponents(net)
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
	edges, total, err := MinimumCostSpanningTree(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 || total != 3 {
		t.Fatalf("MCST = %+v total %g", edges, total)
	}
	if _, _, err := MinimumCostSpanningTree(net, 99); err == nil {
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
		edges, _, err := MinimumCostSpanningTree(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != n-1 {
			t.Fatalf("MCST has %d edges for %d connected nodes", len(edges), n)
		}
	}
}
