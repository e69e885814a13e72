package ndm

import (
	"math/rand"
	"testing"
)

func TestKShortestPathsBasic(t *testing.T) {
	// Three distinct routes 1→4: via 2 (cost 2), via 3 (cost 4), direct
	// (cost 10).
	net := buildNet(t, 4, [][3]int64{
		{1, 2, 1}, {2, 4, 1},
		{1, 3, 2}, {3, 4, 2},
		{1, 4, 10},
	})
	paths, err := KShortestPaths(bg, net, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	wantCosts := []float64{2, 4, 10}
	for i, p := range paths {
		if p.Cost != wantCosts[i] {
			t.Errorf("path %d cost = %g, want %g (%+v)", i, p.Cost, wantCosts[i], p)
		}
		if p.Nodes[0] != 1 || p.Nodes[len(p.Nodes)-1] != 4 {
			t.Errorf("path %d endpoints wrong: %+v", i, p)
		}
	}
}

func TestKShortestPathsFewerThanK(t *testing.T) {
	net := buildNet(t, 3, [][3]int64{{1, 2, 1}, {2, 3, 1}})
	paths, err := KShortestPaths(bg, net, 1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(paths))
	}
}

func TestKShortestPathsUnreachable(t *testing.T) {
	net := buildNet(t, 3, [][3]int64{{1, 2, 1}})
	paths, err := KShortestPaths(bg, net, 1, 3, 2)
	if err != nil || len(paths) != 0 {
		t.Fatalf("paths = %v, %v", paths, err)
	}
	if paths, _ := KShortestPaths(bg, net, 1, 2, 0); paths != nil {
		t.Fatal("k=0 returned paths")
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	// Graph with a cycle 2→3→2; paths must not revisit nodes.
	net := buildNet(t, 4, [][3]int64{
		{1, 2, 1}, {2, 3, 1}, {3, 2, 1}, {3, 4, 1}, {2, 4, 5},
	})
	paths, err := KShortestPaths(bg, net, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		seen := map[int64]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("path revisits node %d: %+v", n, p)
			}
			seen[n] = true
		}
	}
	if len(paths) != 2 { // 1-2-3-4 (3) and 1-2-4 (6)
		t.Fatalf("paths = %d, want 2", len(paths))
	}
}

// Property-style: the first path of KShortestPaths equals ShortestPath and
// costs are non-decreasing, on random graphs.
func TestKShortestPathsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(8)
		var links [][3]int64
		for i := 0; i < n*3; i++ {
			links = append(links, [3]int64{
				int64(rng.Intn(n) + 1), int64(rng.Intn(n) + 1), int64(rng.Intn(5) + 1)})
		}
		net := buildNet(t, n, links)
		src, dst := int64(1), int64(n)
		paths, err := KShortestPaths(bg, net, src, dst, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			continue
		}
		sp, err := ShortestPathCtx(bg, net, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if paths[0].Cost != sp.Cost {
			t.Fatalf("first k-path cost %g != shortest %g", paths[0].Cost, sp.Cost)
		}
		for i := 1; i < len(paths); i++ {
			if paths[i].Cost < paths[i-1].Cost {
				t.Fatalf("costs decrease: %g after %g", paths[i].Cost, paths[i-1].Cost)
			}
			if samePath(paths[i], paths[i-1]) {
				t.Fatalf("duplicate path returned")
			}
		}
	}
}
