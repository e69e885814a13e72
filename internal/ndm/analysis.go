package ndm

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
)

// cancelEvery is how many search steps (heap pops / frontier visits) an
// analysis performs between context checks.
const cancelEvery = 256

// Path is a walk through the network: Nodes has one more element than
// Links, and Cost is the sum of link costs.
type Path struct {
	Nodes []int64
	Links []int64
	Cost  float64
}

// ErrNoPath is returned when no path exists between the requested nodes.
var ErrNoPath = fmt.Errorf("ndm: no path")

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int64
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

type edgeTo struct {
	prev int64
	link int64
}

// ShortestPathCtx returns a minimum-cost directed path from source to
// target (Dijkstra; link costs must be non-negative, and over the RDF
// store they are COST reference counts, never negative). The Dijkstra
// loop polls ctx every cancelEvery pops, so a search over a large network
// aborts promptly on cancel or deadline.
func ShortestPathCtx(ctx context.Context, g Graph, source, target int64) (Path, error) {
	if err := ctx.Err(); err != nil {
		return Path{}, fmt.Errorf("ndm: shortest path: %w", err)
	}
	if !g.HasNode(source) || !g.HasNode(target) {
		return Path{}, fmt.Errorf("%w: endpoint missing", ErrNoPath)
	}
	dist := map[int64]float64{source: 0}
	from := map[int64]edgeTo{}
	done := map[int64]bool{}
	q := &pq{{node: source, dist: 0}}
	steps := 0
	for q.Len() > 0 {
		steps++
		if steps%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Path{}, fmt.Errorf("ndm: shortest path: %w", err)
			}
		}
		cur := heap.Pop(q).(pqItem)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		if cur.node == target {
			break
		}
		g.OutLinks(cur.node, func(linkID, end int64, cost float64) bool {
			nd := cur.dist + cost
			if old, seen := dist[end]; !seen || nd < old {
				dist[end] = nd
				from[end] = edgeTo{prev: cur.node, link: linkID}
				heap.Push(q, pqItem{node: end, dist: nd})
			}
			return true
		})
	}
	if !done[target] {
		return Path{}, ErrNoPath
	}
	// Reconstruct.
	var nodes []int64
	var links []int64
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

func reverse(s []int64) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// NodeCost pairs a node with its cost/distance from a source.
type NodeCost struct {
	Node int64
	Cost float64
}

// WithinCost returns every node reachable from source with total path cost
// <= maxCost (excluding source itself), sorted by cost then node ID — NDM's
// "within cost" analysis. It polls ctx as ShortestPathCtx does.
func WithinCost(ctx context.Context, g Graph, source int64, maxCost float64) ([]NodeCost, error) {
	dist, err := dijkstraAll(ctx, g, source, maxCost)
	if err != nil {
		return nil, err
	}
	var out []NodeCost
	for node, d := range dist {
		if node != source && d <= maxCost {
			out = append(out, NodeCost{Node: node, Cost: d})
		}
	}
	sortNodeCosts(out)
	return out, nil
}

// NearestNeighbors returns the k reachable nodes closest to source
// (excluding source), sorted by cost then node ID. It polls ctx as
// ShortestPathCtx does.
func NearestNeighbors(ctx context.Context, g Graph, source int64, k int) ([]NodeCost, error) {
	dist, err := dijkstraAll(ctx, g, source, -1)
	if err != nil {
		return nil, err
	}
	var out []NodeCost
	for node, d := range dist {
		if node != source {
			out = append(out, NodeCost{Node: node, Cost: d})
		}
	}
	sortNodeCosts(out)
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

func sortNodeCosts(out []NodeCost) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Node < out[j].Node
	})
}

// dijkstraAll computes distances from source; maxCost < 0 means
// unbounded. The pop loop polls ctx every cancelEvery steps.
func dijkstraAll(ctx context.Context, g Graph, source int64, maxCost float64) (map[int64]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ndm: cost analysis: %w", err)
	}
	if !g.HasNode(source) {
		return nil, fmt.Errorf("ndm: node %d does not exist", source)
	}
	dist := map[int64]float64{source: 0}
	done := map[int64]bool{}
	q := &pq{{node: source, dist: 0}}
	steps := 0
	for q.Len() > 0 {
		steps++
		if steps%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ndm: cost analysis: %w", err)
			}
		}
		cur := heap.Pop(q).(pqItem)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		g.OutLinks(cur.node, func(_, end int64, cost float64) bool {
			nd := cur.dist + cost
			if maxCost >= 0 && nd > maxCost {
				return true
			}
			if old, seen := dist[end]; !seen || nd < old {
				dist[end] = nd
				heap.Push(q, pqItem{node: end, dist: nd})
			}
			return true
		})
	}
	return dist, nil
}

// ReachableCtx returns every node reachable from source by directed links
// within maxDepth hops (maxDepth < 0 = unbounded), excluding source,
// sorted by node ID. The BFS polls ctx every cancelEvery frontier visits.
func ReachableCtx(ctx context.Context, g Graph, source int64, maxDepth int) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ndm: reachability: %w", err)
	}
	if !g.HasNode(source) {
		return nil, fmt.Errorf("ndm: node %d does not exist", source)
	}
	seen := map[int64]bool{source: true}
	frontier := []int64{source}
	depth := 0
	visits := 0
	for len(frontier) > 0 && (maxDepth < 0 || depth < maxDepth) {
		var next []int64
		for _, n := range frontier {
			visits++
			if visits%cancelEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("ndm: reachability: %w", err)
				}
			}
			g.OutLinks(n, func(_, end int64, _ float64) bool {
				if !seen[end] {
					seen[end] = true
					next = append(next, end)
				}
				return true
			})
		}
		frontier = next
		depth++
	}
	var out []int64
	for n := range seen {
		if n != source {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ConnectedComponents returns the weakly connected components (treating
// links as undirected), each sorted by node ID, ordered by smallest member.
// It walks the whole network, polling ctx every cancelEvery node visits.
func ConnectedComponents(ctx context.Context, g Graph) ([][]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ndm: connected components: %w", err)
	}
	seen := map[int64]bool{}
	var comps [][]int64
	var err error
	visits := 0
	g.Nodes(func(start int64) bool {
		if seen[start] {
			return true
		}
		var comp []int64
		stack := []int64{start}
		seen[start] = true
		for len(stack) > 0 {
			visits++
			if visits%cancelEvery == 0 {
				if err = ctx.Err(); err != nil {
					return false
				}
			}
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			visit := func(other int64) {
				if !seen[other] {
					seen[other] = true
					stack = append(stack, other)
				}
			}
			g.OutLinks(n, func(_, end int64, _ float64) bool { visit(end); return true })
			g.InLinks(n, func(_, from int64, _ float64) bool { visit(from); return true })
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("ndm: connected components: %w", err)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps, nil
}

// SpanningTreeEdge is one edge of a minimum-cost spanning tree.
type SpanningTreeEdge struct {
	Link     int64
	From, To int64
	Cost     float64
}

// MinimumCostSpanningTree runs Prim's algorithm over the undirected view
// of the component containing root, returning the tree edges and total
// cost — NDM's MCST analysis. It polls ctx every cancelEvery heap pops.
func MinimumCostSpanningTree(ctx context.Context, g Graph, root int64) ([]SpanningTreeEdge, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("ndm: spanning tree: %w", err)
	}
	if !g.HasNode(root) {
		return nil, 0, fmt.Errorf("ndm: node %d does not exist", root)
	}
	inTree := map[int64]bool{root: true}
	var edges []SpanningTreeEdge
	total := 0.0
	// Candidate heap keyed by cost.
	h := &mcstHeap{}
	push := func(node int64) {
		g.OutLinks(node, func(link, end int64, cost float64) bool {
			heap.Push(h, SpanningTreeEdge{Link: link, From: node, To: end, Cost: cost})
			return true
		})
		g.InLinks(node, func(link, from int64, cost float64) bool {
			heap.Push(h, SpanningTreeEdge{Link: link, From: node, To: from, Cost: cost})
			return true
		})
	}
	push(root)
	steps := 0
	for h.Len() > 0 {
		steps++
		if steps%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("ndm: spanning tree: %w", err)
			}
		}
		e := heap.Pop(h).(SpanningTreeEdge)
		if inTree[e.To] {
			continue
		}
		inTree[e.To] = true
		edges = append(edges, e)
		total += e.Cost
		push(e.To)
	}
	return edges, total, nil
}

type mcstHeap []SpanningTreeEdge

func (h mcstHeap) Len() int            { return len(h) }
func (h mcstHeap) Less(i, j int) bool  { return h[i].Cost < h[j].Cost }
func (h mcstHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mcstHeap) Push(x interface{}) { *h = append(*h, x.(SpanningTreeEdge)) }
func (h *mcstHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Degree returns (in, out) degree of a node.
func Degree(g Graph, node int64) (in, out int) {
	g.InLinks(node, func(int64, int64, float64) bool { in++; return true })
	g.OutLinks(node, func(int64, int64, float64) bool { out++; return true })
	return in, out
}
