package ndm

import (
	"container/heap"
	"context"
	"errors"
	"sort"
)

// KShortestPaths returns up to k loopless paths from source to target in
// ascending cost order (Yen's algorithm) — NDM's multiple-paths analysis.
// It returns fewer than k paths when the graph does not contain them, and
// an empty slice when target is unreachable. Each spur search polls ctx as
// ShortestPathCtx does.
func KShortestPaths(ctx context.Context, g Graph, source, target int64, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := ShortestPathCtx(ctx, g, source, target)
	if err == ErrNoPath || (err != nil && source != target) {
		if err == ErrNoPath {
			return nil, nil
		}
		return nil, err
	}
	paths := []Path{first}
	var candidates pathHeap

	for len(paths) < k {
		prev := paths[len(paths)-1]
		// For each node in the previous path except the last, branch.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootLinks := prev.Links[:i]
			rootCost := pathCost(g, rootLinks)

			// Mask links used by earlier paths sharing this root, and mask
			// root nodes (except the spur) to keep paths loopless.
			maskedLinks := map[int64]bool{}
			for _, p := range paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootNodes) {
					maskedLinks[p.Links[i]] = true
				}
			}
			maskedNodes := map[int64]bool{}
			for _, n := range rootNodes[:len(rootNodes)-1] {
				maskedNodes[n] = true
			}
			mg := &maskedGraph{g: g, links: maskedLinks, nodes: maskedNodes}
			spur, err := ShortestPathCtx(ctx, mg, spurNode, target)
			if errors.Is(err, ErrNoPath) {
				continue // no spur path from here
			}
			if err != nil {
				return nil, err
			}
			total := Path{
				Nodes: append(append([]int64{}, rootNodes[:len(rootNodes)-1]...), spur.Nodes...),
				Links: append(append([]int64{}, rootLinks...), spur.Links...),
				Cost:  rootCost + spur.Cost,
			}
			if !containsPath(paths, total) && !candidates.contains(total) {
				heap.Push(&candidates, total)
			}
		}
		if candidates.Len() == 0 {
			break
		}
		paths = append(paths, heap.Pop(&candidates).(Path))
	}
	sort.SliceStable(paths, func(a, b int) bool { return paths[a].Cost < paths[b].Cost })
	return paths, nil
}

// pathCost sums the costs of the given link IDs by looking them up from
// their start nodes (cost metadata lives on the links).
func pathCost(g Graph, links []int64) float64 {
	if len(links) == 0 {
		return 0
	}
	want := map[int64]bool{}
	for _, l := range links {
		want[l] = true
	}
	total := 0.0
	found := 0
	g.Nodes(func(n int64) bool {
		g.OutLinks(n, func(linkID, _ int64, cost float64) bool {
			if want[linkID] {
				total += cost
				found++
				delete(want, linkID)
			}
			return true
		})
		return found < len(links)
	})
	return total
}

func equalPrefix(nodes, prefix []int64) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}

func samePath(a, b Path) bool {
	if len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

func containsPath(paths []Path, p Path) bool {
	for _, q := range paths {
		if samePath(q, p) {
			return true
		}
	}
	return false
}

type pathHeap []Path

func (h pathHeap) Len() int            { return len(h) }
func (h pathHeap) Less(i, j int) bool  { return h[i].Cost < h[j].Cost }
func (h pathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x interface{}) { *h = append(*h, x.(Path)) }
func (h *pathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

func (h pathHeap) contains(p Path) bool {
	for _, q := range h {
		if samePath(q, p) {
			return true
		}
	}
	return false
}

// maskedGraph hides a set of links and nodes from an underlying graph —
// the temporary removals Yen's algorithm needs.
type maskedGraph struct {
	g     Graph
	links map[int64]bool
	nodes map[int64]bool
}

func (m *maskedGraph) HasNode(n int64) bool {
	return !m.nodes[n] && m.g.HasNode(n)
}

func (m *maskedGraph) Nodes(fn func(int64) bool) {
	m.g.Nodes(func(n int64) bool {
		if m.nodes[n] {
			return true
		}
		return fn(n)
	})
}

func (m *maskedGraph) OutLinks(n int64, fn func(linkID, end int64, cost float64) bool) {
	if m.nodes[n] {
		return
	}
	m.g.OutLinks(n, func(linkID, end int64, cost float64) bool {
		if m.links[linkID] || m.nodes[end] {
			return true
		}
		return fn(linkID, end, cost)
	})
}

func (m *maskedGraph) InLinks(n int64, fn func(linkID, start int64, cost float64) bool) {
	if m.nodes[n] {
		return
	}
	m.g.InLinks(n, func(linkID, start int64, cost float64) bool {
		if m.links[linkID] || m.nodes[start] {
			return true
		}
		return fn(linkID, start, cost)
	})
}
