package core

import (
	"context"
	"slices"

	"repro/internal/ndm"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// RDFNetwork exposes the store's rdf_link$/rdf_node$ tables as an NDM
// directed logical network (§1, §4): nodes are VALUE_IDs of subjects and
// objects, links are triples, and link cost is the COST column. With a
// model filter the network is restricted to selected models — their links,
// and the nodes those links start or end at; with none it spans the whole
// store — "analysis … across all applications in the
// database or on selected applications" (§1).
type RDFNetwork struct {
	store  *Store
	models map[int64]bool // nil = all models
	ctx    context.Context
}

// Network returns the NDM view of the given models (all models when none
// are named).
func (s *Store) Network(models ...string) (*RDFNetwork, error) {
	n := &RDFNetwork{store: s, ctx: context.Background()}
	if len(models) > 0 {
		n.models = make(map[int64]bool, len(models))
		for _, m := range models {
			id, err := s.GetModelID(m)
			if err != nil {
				return nil, err
			}
			n.models[id] = true
		}
	}
	return n, nil
}

// WithContext returns a view of the network whose traversals stop once
// ctx is done: Nodes/OutLinks/InLinks simply stop visiting, so any NDM
// analysis running over the view winds down instead of walking the rest
// of the graph. Pair with the ndm analyses, which take the same ctx and
// additionally report the cancellation as an error.
func (n *RDFNetwork) WithContext(ctx context.Context) *RDFNetwork {
	return &RDFNetwork{store: n.store, models: n.models, ctx: ctx}
}

// done reports whether the network's context has been cancelled.
func (n *RDFNetwork) done() bool { return n.ctx.Err() != nil }

// inScope reports whether a link of model mid belongs to the selected
// models.
func (n *RDFNetwork) inScope(mid int64) bool {
	return n.models == nil || n.models[mid]
}

// HasNode implements ndm.Graph. The whole-store network's nodes are the
// rows of rdf_node$; a model-scoped network's are the nodes some link of a
// selected model starts or ends at.
func (n *RDFNetwork) HasNode(node int64) bool {
	n.store.mu.RLock()
	defer n.store.mu.RUnlock()
	return n.hasNodeLocked(node)
}

// hasNodeLocked is HasNode's probe: one descent of rdf_node$'s index, or,
// scoped, an (S,M) prefix of the subject index and an (O-canon,M) prefix
// of the object index per selected model. Caller holds store.mu.
func (n *RDFNetwork) hasNodeLocked(node int64) bool {
	if n.models == nil {
		return n.store.nodePK.ContainsInts(node)
	}
	found := false
	stop := func(reldb.Cells) bool { found = true; return false }
	for mid := range n.models {
		if n.store.linkSMPO.ScanIntsCells([]int64{node, mid}, stop); found {
			return true
		}
		if n.store.scanInLinksLocked(node, mid, stop); found {
			return true
		}
	}
	return false
}

// Nodes implements ndm.Graph. The node set is snapshotted under the
// store's read lock and fn is invoked outside it, so analysis callbacks
// may freely call back into the store (read locks must not nest). A
// scoped network gathers the endpoints of its models' partitions and
// visits them in ID order.
func (n *RDFNetwork) Nodes(fn func(node int64) bool) {
	var nodes []int64
	scanned := 0
	poll := func() bool {
		scanned++
		return scanned%cancelEvery != 0 || !n.done()
	}
	n.store.mu.RLock()
	if n.models == nil {
		n.store.nodes.ScanCells(func(c reldb.Cells) bool {
			nodes = append(nodes, c.Int(0))
			return poll()
		})
	} else {
		seen := map[int64]bool{}
		add := func(node int64) {
			if !seen[node] {
				seen[node] = true
				nodes = append(nodes, node)
			}
		}
		for mid := range n.models {
			// rdf_link$ is partitioned by MODEL_ID, so the scan cannot
			// fail.
			_ = n.store.links.ScanPartitionCells(mid, func(c reldb.Cells) bool {
				add(c.Int(lcStartNodeID))
				add(c.Int(lcEndNodeID))
				return poll()
			})
		}
		slices.Sort(nodes)
	}
	n.store.mu.RUnlock()
	n.store.met.onTraversalSteps(len(nodes))
	for _, node := range nodes {
		if n.done() || !fn(node) {
			return
		}
	}
}

// OutLinks implements ndm.Graph: links whose START_NODE_ID is node.
func (n *RDFNetwork) OutLinks(node int64, fn func(linkID, end int64, cost float64) bool) {
	n.visit(false, node, lcEndNodeID, fn)
}

// InLinks implements ndm.Graph: links whose END_NODE_ID is node.
func (n *RDFNetwork) InLinks(node int64, fn func(linkID, start int64, cost float64) bool) {
	n.visit(true, node, lcStartNodeID, fn)
}

func (n *RDFNetwork) visit(fromEnd bool, node int64, otherCol int, fn func(linkID, other int64, cost float64) bool) {
	// Collect matching links under the read lock, call fn outside it
	// (see Nodes). The node's links in every model lie under the one-column
	// prefix of the subject or object index; the index is selected inside
	// the critical section so the guarded field read is covered by the lock.
	type hop struct {
		linkID, other int64
		cost          float64
	}
	var hops []hop
	scanned := 0
	collect := func(c reldb.Cells) bool {
		if n.inScope(c.Int(lcModelID)) {
			hops = append(hops, hop{c.Int(lcLinkID), c.Int(otherCol), float64(c.Int(lcCost))})
		}
		scanned++
		return scanned%cancelEvery != 0 || !n.done()
	}
	n.store.mu.RLock()
	if fromEnd {
		n.store.scanInLinksLocked(node, 0, collect)
	} else {
		n.store.linkSMPO.ScanIntsCells([]int64{node}, collect)
	}
	n.store.mu.RUnlock()
	n.store.met.onTraversalSteps(len(hops))
	for _, h := range hops {
		if n.done() || !fn(h.linkID, h.other, h.cost) {
			return
		}
	}
}

// NodeID resolves a term to its network node (VALUE_ID). A term that is
// interned but is not a node of this network — a predicate-only IRI, or a
// node only other models use — has none.
func (n *RDFNetwork) NodeID(t rdfterm.Term) (int64, bool) {
	n.store.mu.RLock()
	defer n.store.mu.RUnlock()
	id, ok := n.store.lookupValueIDLocked(t)
	return id, ok && n.hasNodeLocked(id)
}

// NodeTerm resolves a network node back to its term.
func (n *RDFNetwork) NodeTerm(node int64) (rdfterm.Term, error) {
	return n.store.GetValue(node)
}

var _ ndm.Graph = (*RDFNetwork)(nil)
