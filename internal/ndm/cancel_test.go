package ndm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/reldb"
)

// denseNet builds a w-wide, deep layered network so Dijkstra and BFS have
// thousands of steps to cancel in.
func denseNet(t *testing.T, layers, w int) (*LogicalNetwork, int64, int64) {
	t.Helper()
	db := reldb.NewDatabase("CANCEL")
	net, err := CreateLogicalNetwork(db, "n")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([][]int64, layers)
	for l := 0; l < layers; l++ {
		ids[l] = make([]int64, w)
		for i := 0; i < w; i++ {
			id, err := net.AddNode(fmt.Sprintf("n%d_%d", l, i))
			if err != nil {
				t.Fatal(err)
			}
			ids[l][i] = id
		}
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				if _, err := net.AddLink("", ids[l][i], ids[l+1][j], float64(1+(i+j)%5)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return net, ids[0][0], ids[layers-1][w-1]
}

func TestAnalysisCtxCancellation(t *testing.T) {
	net, src, dst := denseNet(t, 8, 24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ShortestPathCtx(ctx, net, src, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("ShortestPathCtx = %v", err)
	}
	if _, err := WithinCost(ctx, net, src, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("WithinCost = %v", err)
	}
	if _, err := NearestNeighbors(ctx, net, src, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("NearestNeighbors = %v", err)
	}
	if _, err := ReachableCtx(ctx, net, src, -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReachableCtx = %v", err)
	}

	// The background-context entry points still work and agree.
	p, err := ShortestPathCtx(bg, net, src, dst)
	if err != nil || len(p.Links) != 7 {
		t.Fatalf("ShortestPath after cancel tests = %+v, %v", p, err)
	}
}
