package ndm

import (
	"context"
	"errors"
	"testing"
)

// denseNet builds a w-wide, deep layered network so Dijkstra, BFS and the
// whole-network walks have more than cancelEvery steps to cancel in.
func denseNet(t *testing.T, layers, w int) (*mapGraph, int64, int64) {
	t.Helper()
	node := func(l, i int) int64 { return int64(l*w + i + 1) }
	var links [][3]int64
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				links = append(links, [3]int64{node(l, i), node(l+1, j), int64(1 + (i+j)%5)})
			}
		}
	}
	return buildNet(t, layers*w, links), node(0, 0), node(layers-1, w-1)
}

// cancelling cancels its context on the first link expansion — with
// backward set, on the first InLinks call only — so an analysis reports
// the cancellation only if it polls ctx inside its walk.
type cancelling struct {
	Graph
	cancel   context.CancelFunc
	backward bool
}

func (c cancelling) OutLinks(node int64, fn func(linkID, end int64, cost float64) bool) {
	if !c.backward {
		c.cancel()
	}
	c.Graph.OutLinks(node, fn)
}

func (c cancelling) InLinks(node int64, fn func(linkID, start int64, cost float64) bool) {
	c.cancel()
	c.Graph.InLinks(node, fn)
}

func TestAnalysisCtxCancellation(t *testing.T) {
	net, src, dst := denseNet(t, 20, 24)
	analyses := map[string]func(context.Context, Graph) error{
		"ShortestPathCtx": func(ctx context.Context, g Graph) error {
			_, err := ShortestPathCtx(ctx, g, src, dst)
			return err
		},
		"WithinCost": func(ctx context.Context, g Graph) error {
			_, err := WithinCost(ctx, g, src, 1000)
			return err
		},
		"NearestNeighbors": func(ctx context.Context, g Graph) error {
			_, err := NearestNeighbors(ctx, g, src, 5)
			return err
		},
		"ReachableCtx": func(ctx context.Context, g Graph) error {
			_, err := ReachableCtx(ctx, g, src, -1)
			return err
		},
		"ConnectedComponents": func(ctx context.Context, g Graph) error {
			_, err := ConnectedComponents(ctx, g)
			return err
		},
		"MinimumCostSpanningTree": func(ctx context.Context, g Graph) error {
			_, _, err := MinimumCostSpanningTree(ctx, g, src)
			return err
		},
	}
	// The analyses that expand nodes over InLinks as well.
	backward := map[string]bool{"ShortestPathCtx": true, "ConnectedComponents": true, "MinimumCostSpanningTree": true}
	for name, run := range analyses {
		pre, cancel := context.WithCancel(bg)
		cancel()
		if err := run(pre, net); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, cancelled before the call = %v", name, err)
		}
		mid, cancel := context.WithCancel(bg)
		if err := run(mid, cancelling{Graph: net, cancel: cancel}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, cancelled during the walk = %v", name, err)
		}
		if backward[name] {
			mid, cancel := context.WithCancel(bg)
			if err := run(mid, cancelling{Graph: net, cancel: cancel, backward: true}); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, cancelled in a backward expansion = %v", name, err)
			}
		}
		if err := run(bg, net); err != nil {
			t.Errorf("%s, not cancelled = %v", name, err)
		}
	}

	p, err := ShortestPathCtx(bg, net, src, dst)
	if err != nil || len(p.Links) != 19 {
		t.Fatalf("ShortestPath after cancel tests = %+v, %v", p, err)
	}
}
