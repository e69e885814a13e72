// Package ndm reproduces the analysis suite of the Oracle Spatial Network
// Data Model the paper builds the RDF store on (§1, §4): shortest paths,
// within-cost, nearest neighbours, reachability, connected components,
// spanning trees and degree.
//
// The analyses run over the Graph interface, and the network they run over
// is the RDF store itself: core.RDFNetwork reads rdf_node$ and rdf_link$,
// so the RDF graph *is* an NDM network and "all the NDM functionality is
// exposed to RDF data".
package ndm

// Graph is the directed-graph view NDM analysis operates on. Node and link
// IDs are int64, matching NDM's NODE_ID/LINK_ID columns.
type Graph interface {
	// HasNode reports whether the node exists.
	HasNode(node int64) bool
	// Nodes visits every node ID until fn returns false.
	Nodes(fn func(node int64) bool)
	// OutLinks visits links leaving node.
	OutLinks(node int64, fn func(linkID, end int64, cost float64) bool)
	// InLinks visits links entering node.
	InLinks(node int64, fn func(linkID, start int64, cost float64) bool)
}
