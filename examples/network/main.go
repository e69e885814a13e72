// Network demonstrates the paper's central architectural claim (§1, §4):
// because the RDF store is layered on the Network Data Model, "all the
// NDM functionality is exposed to RDF data" — the RDF graph can be
// analyzed as a network without any export step.
//
// A small collaboration graph is stored as RDF, then analyzed with NDM's
// shortest-path, reachability, within-cost, nearest-neighbour, connected-
// component, and spanning-tree operations, with node IDs resolved back to
// RDF terms.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ndm"
	"repro/internal/rdfterm"
)

func main() {
	ctx := context.Background()
	store := core.New()
	if _, err := store.CreateRDFModel("social", "", ""); err != nil {
		log.Fatal(err)
	}
	ex := rdfterm.Default().With(rdfterm.Alias{Prefix: "ex", Namespace: "http://example.org/people#"})

	// A collaboration graph: alice→bob→carol→dave, alice→eve→dave, frank
	// isolated-ish.
	edges := [][3]string{
		{"ex:alice", "ex:knows", "ex:bob"},
		{"ex:bob", "ex:knows", "ex:carol"},
		{"ex:carol", "ex:knows", "ex:dave"},
		{"ex:alice", "ex:knows", "ex:eve"},
		{"ex:eve", "ex:knows", "ex:dave"},
		{"ex:frank", "ex:knows", "ex:frank"},
		{"ex:alice", "ex:worksWith", "ex:carol"},
	}
	for _, e := range edges {
		if _, err := store.NewTripleS("social", e[0], e[1], e[2], ex); err != nil {
			log.Fatal(err)
		}
	}

	net, err := store.Network("social")
	if err != nil {
		log.Fatal(err)
	}
	id := func(name string) int64 {
		nid, ok := net.NodeID(rdfterm.NewURI(ex.Expand(name)))
		if !ok {
			log.Fatalf("node %s not found", name)
		}
		return nid
	}
	name := func(nid int64) string {
		t, err := net.NodeTerm(nid)
		if err != nil {
			return fmt.Sprintf("node-%d", nid)
		}
		return ex.Compact(t.Value)
	}

	// Shortest path alice → dave (link cost = COST column = 1 per triple).
	path, err := ndm.ShortestPathCtx(ctx, net, id("ex:alice"), id("ex:dave"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shortest path ex:alice → ex:dave (cost %g):\n  ", path.Cost)
	for i, n := range path.Nodes {
		if i > 0 {
			fmt.Print(" → ")
		}
		fmt.Print(name(n))
	}
	fmt.Println()

	// Reachability.
	reach, err := ndm.ReachableCtx(ctx, net, id("ex:alice"), -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\nreachable from ex:alice: ")
	for i, n := range reach {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(name(n))
	}
	fmt.Println()

	// Within cost 1 (direct acquaintances).
	within, err := ndm.WithinCost(ctx, net, id("ex:alice"), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("within cost 1 of ex:alice: ")
	for i, nc := range within {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(name(nc.Node))
	}
	fmt.Println()

	// Nearest neighbours.
	nn, err := ndm.NearestNeighbors(ctx, net, id("ex:alice"), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("2 nearest neighbours of ex:alice: ")
	for i, nc := range nn {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s (cost %g)", name(nc.Node), nc.Cost)
	}
	fmt.Println()

	// Weakly connected components.
	comps, err := ndm.ConnectedComponents(ctx, net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconnected components: %d\n", len(comps))
	for i, comp := range comps {
		fmt.Printf("  component %d:", i+1)
		for _, n := range comp {
			fmt.Printf(" %s", name(n))
		}
		fmt.Println()
	}

	// Minimum-cost spanning tree of alice's component.
	edgesMCST, total, err := ndm.MinimumCostSpanningTree(ctx, net, id("ex:alice"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminimum-cost spanning tree from ex:alice (%d edges, total cost %g):\n", len(edgesMCST), total)
	for _, e := range edgesMCST {
		fmt.Printf("  %s — %s (link %d, cost %g)\n", name(e.From), name(e.To), e.Link, e.Cost)
	}

	// Degree of a hub node.
	in, out := ndm.Degree(net, id("ex:alice"))
	fmt.Printf("\ndegree of ex:alice: in=%d out=%d\n", in, out)
}
