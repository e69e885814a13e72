package ndm

import (
	"testing"

	"repro/internal/obs"
)

func TestInstrumentCountsTraversalSteps(t *testing.T) {
	net := buildNet(t, 4, [][3]int64{{1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {1, 4, 10}})
	reg := obs.NewRegistry()
	g := NewMetrics(reg).Instrument(net)

	p, err := ShortestPathCtx(bg, g, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 3 {
		t.Fatalf("cost = %g, want 3", p.Cost)
	}
	steps, ok := reg.Snapshot().Counter("ndm_traversal_steps_total")
	if !ok {
		t.Fatal("ndm_traversal_steps_total not registered")
	}
	// Dijkstra from 1 expands the out-links of every settled node: at
	// least the 4 links of the network.
	if steps.Value < 4 {
		t.Fatalf("steps = %d, want >= 4", steps.Value)
	}

	before := steps.Value
	if cyclic, _ := HasCycle(g); cyclic {
		t.Fatal("DAG reported cyclic")
	}
	after, _ := reg.Snapshot().Counter("ndm_traversal_steps_total")
	if after.Value <= before {
		t.Fatalf("HasCycle added no steps (%d -> %d)", before, after.Value)
	}
}

func TestInstrumentEarlyStopCountsVisited(t *testing.T) {
	net := buildNet(t, 5, nil)
	reg := obs.NewRegistry()
	g := NewMetrics(reg).Instrument(net)

	// Stop after two nodes: only the visited elements count as steps.
	seen := 0
	g.Nodes(func(int64) bool {
		seen++
		return seen < 2
	})
	steps, _ := reg.Snapshot().Counter("ndm_traversal_steps_total")
	if steps.Value != 2 {
		t.Fatalf("steps = %d, want 2 (visited nodes only)", steps.Value)
	}
}

func TestNilMetricsInstrumentIsIdentity(t *testing.T) {
	net := buildNet(t, 2, [][3]int64{{1, 2, 1}})
	var m *Metrics = NewMetrics(nil)
	if m != nil {
		t.Fatal("NewMetrics(nil) != nil")
	}
	if g := m.Instrument(net); g != Graph(net) {
		t.Fatal("nil Metrics must return the graph unchanged")
	}
}
