package ndm

import (
	"context"
	"fmt"
	"math"
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

// forwardFirstLinks is how many links the forward side scans before the
// search starts choosing sides by heap length. Measured over the
// benchmark's uniprot-50k dataset and its load generator's 2000 seed-1
// shortest_path pairs, 256 scanned the fewest links of 0, 64, 256 and
// 1024 (0.62 M against 0.95 M, 0.76 M and 1.10 M). Lower, a two-hop path
// to a hub target pays the hub's hundreds of in-links (the two-hop pairs
// scanned 250 k links at 0, 15 k at 256); higher, a pair with no path
// walks further forward before the target's small in-component is
// exhausted from its own side.
const forwardFirstLinks = 256

// label is one search side's record of a node: its tentative distance
// from the side's root, and the link it was reached by together with
// that link's other end (the next node toward the root).
type label struct {
	dist       float64
	prev, link int64
}

// searchSide is one direction of the bidirectional search: forward from
// the source over OutLinks, or backward from the target over InLinks.
type searchSide struct {
	labels  map[int64]label
	heap    minHeap[int64]
	expand  func(node int64, fn func(linkID, other int64, cost float64) bool)
	scanned int // links expand has visited
}

func newSearchSide(root int64, expand func(int64, func(int64, int64, float64) bool)) *searchSide {
	s := &searchSide{labels: map[int64]label{root: {}}, expand: expand}
	s.heap.push(0, root)
	return s
}

// top drops the stale entries (superseded by a lower distance) from the
// top of the heap and reports whether any entry is left.
func (s *searchSide) top() bool {
	for len(s.heap) > 0 {
		if e := s.heap[0]; e.key == s.labels[e.val].dist {
			return true
		}
		s.heap.pop()
	}
	return false
}

// ShortestPathCtx returns a minimum-cost directed path from source to
// target. It is a bidirectional Dijkstra: one search runs forward from
// source over OutLinks (rdf_link$'s subject index), the other backward
// from target over InLinks (its object index). Whenever either side
// lowers a node's distance it checks the node against the other side's,
// keeping the cheapest meeting. The search stops when the two heaps'
// minima sum to at least that cost, or when either side runs out of
// nodes — so a pair with no path ends as soon as the smaller of the two
// reachable sets is exhausted. Link costs must be non-negative; over
// the RDF store they are COST reference counts. The loop polls ctx every
// cancelEvery heap pops of either side, so a search over a large network
// aborts promptly on cancel or deadline.
func ShortestPathCtx(ctx context.Context, g Graph, source, target int64) (Path, error) {
	if err := ctx.Err(); err != nil {
		return Path{}, fmt.Errorf("ndm: shortest path: %w", err)
	}
	if !g.HasNode(source) || !g.HasNode(target) {
		return Path{}, fmt.Errorf("%w: endpoint missing", ErrNoPath)
	}
	if source == target {
		return Path{Nodes: []int64{source}}, nil
	}
	fwd := newSearchSide(source, g.OutLinks)
	bwd := newSearchSide(target, g.InLinks)
	best, meet := math.Inf(1), int64(0)
	// The node u at distance d that side s is expanding; relax is made
	// once, not per expansion.
	var (
		s, other *searchSide
		d        float64
		u        int64
	)
	relax := func(linkID, v int64, cost float64) bool {
		s.scanned++
		nd := d + cost
		if l, seen := s.labels[v]; seen && nd >= l.dist {
			return true
		}
		s.labels[v] = label{dist: nd, prev: u, link: linkID}
		s.heap.push(nd, v)
		if l, seen := other.labels[v]; seen && nd+l.dist < best {
			best, meet = nd+l.dist, v
		}
		return true
	}
	steps := 0
	for fwd.top() && bwd.top() && fwd.heap[0].key+bwd.heap[0].key < best {
		steps++
		if steps%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Path{}, fmt.Errorf("ndm: shortest path: %w", err)
			}
		}
		s, other = fwd, bwd
		if fwd.scanned >= forwardFirstLinks && len(bwd.heap) < len(fwd.heap) {
			s, other = bwd, fwd
		}
		d, u = s.heap.pop()
		s.expand(u, relax)
	}
	if math.IsInf(best, 1) {
		return Path{}, ErrNoPath
	}
	// The forward chain runs from the meeting node back to source; the
	// backward chain from it on to target.
	var nodes, links []int64
	for at := meet; ; {
		nodes = append(nodes, at)
		if at == source {
			break
		}
		l := fwd.labels[at]
		links = append(links, l.link)
		at = l.prev
	}
	reverse(nodes)
	reverse(links)
	for at := meet; at != target; {
		l := bwd.labels[at]
		links = append(links, l.link)
		at = l.prev
		nodes = append(nodes, at)
	}
	return Path{Nodes: nodes, Links: links, Cost: best}, nil
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
	var q minHeap[int64]
	q.push(0, source)
	steps := 0
	for len(q) > 0 {
		steps++
		if steps%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ndm: cost analysis: %w", err)
			}
		}
		d, node := q.pop()
		if d > dist[node] {
			continue // superseded by a cheaper entry, already expanded
		}
		g.OutLinks(node, func(_, end int64, cost float64) bool {
			nd := d + cost
			if maxCost >= 0 && nd > maxCost {
				return true
			}
			if old, seen := dist[end]; !seen || nd < old {
				dist[end] = nd
				q.push(nd, end)
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
	var h minHeap[SpanningTreeEdge]
	push := func(node int64) {
		g.OutLinks(node, func(link, end int64, cost float64) bool {
			h.push(cost, SpanningTreeEdge{Link: link, From: node, To: end, Cost: cost})
			return true
		})
		g.InLinks(node, func(link, from int64, cost float64) bool {
			h.push(cost, SpanningTreeEdge{Link: link, From: node, To: from, Cost: cost})
			return true
		})
	}
	push(root)
	steps := 0
	for len(h) > 0 {
		steps++
		if steps%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("ndm: spanning tree: %w", err)
			}
		}
		_, e := h.pop()
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

// Degree returns (in, out) degree of a node.
func Degree(g Graph, node int64) (in, out int) {
	g.InLinks(node, func(int64, int64, float64) bool { in++; return true })
	g.OutLinks(node, func(int64, int64, float64) bool { out++; return true })
	return in, out
}
