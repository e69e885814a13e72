package core

import (
	"context"

	"repro/internal/ndm"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// RDFNetwork exposes the store's rdf_link$/rdf_node$ tables as an NDM
// directed logical network (§1, §4): nodes are VALUE_IDs of subjects and
// objects, links are triples, and link cost is the COST column. With a
// model filter the network is restricted to selected models; with none it
// spans the whole store — "analysis … across all applications in the
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
// of the graph. Pair with the ndm package's *Ctx analysis entry points,
// which additionally report the cancellation as an error.
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

// HasNode implements ndm.Graph over rdf_node$.
func (n *RDFNetwork) HasNode(node int64) bool {
	n.store.mu.RLock()
	defer n.store.mu.RUnlock()
	return n.store.nodePK.ContainsInts(node)
}

// Nodes implements ndm.Graph. The node set is snapshotted under the
// store's read lock and fn is invoked outside it, so analysis callbacks
// may freely call back into the store (read locks must not nest).
func (n *RDFNetwork) Nodes(fn func(node int64) bool) {
	n.store.mu.RLock()
	var nodes []int64
	n.store.nodes.ScanCells(func(c reldb.Cells) bool {
		nodes = append(nodes, c.Int(0))
		return len(nodes)%cancelEvery != 0 || !n.done()
	})
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
		n.store.scanInLinksLocked(node, collect)
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

// NodeID resolves a term to its network node (VALUE_ID).
func (n *RDFNetwork) NodeID(t rdfterm.Term) (int64, bool) {
	n.store.mu.RLock()
	defer n.store.mu.RUnlock()
	return n.store.lookupValueIDLocked(t)
}

// NodeTerm resolves a network node back to its term.
func (n *RDFNetwork) NodeTerm(node int64) (rdfterm.Term, error) {
	return n.store.GetValue(node)
}

var _ ndm.Graph = (*RDFNetwork)(nil)
