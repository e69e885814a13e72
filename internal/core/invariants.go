package core

import (
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// CheckInvariants validates the cross-table invariants of the central
// schema and returns every violation found. It exists for tests (the
// property tests, the crash and chaos tests, and the model-based checker
// in internal/supervise) and for diagnostics; a healthy store returns an
// empty slice. It holds the read lock for one scan of the store.
//
// Invariants checked:
//
//  1. every link's START/P/END/CANON value IDs resolve in rdf_value$;
//  2. rdf_node$ holds exactly the set of VALUE_IDs used as a subject or
//     object by at least one live link ("nodes are stored only once" and
//     removed when orphaned, §4);
//  3. every link's COST >= 1;
//  4. (MODEL_ID, START, P, CANON) is unique across live links;
//  5. every link's MODEL_ID exists in rdf_model$;
//  6. CONTEXT is D or I; REIF_LINK is Y or N; LINK_TYPE matches the
//     predicate's vocabulary classification;
//  7. every rdf_blank_node$ mapping points at a BN-typed value;
//  8. the term dictionary holds exactly the rdf_value$ rows (a miss in it
//     is taken to mean "not interned", see termDict): as many entries as
//     rows, and every row's term resolves to that row's VALUE_ID.
func (s *Store) CheckInvariants() []error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var errs []error
	addf := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	audit := newLinkAudit()
	s.links.ScanCells(func(c reldb.Cells) bool {
		s.checkLinkLocked(c, audit, addf)
		return true
	})
	s.checkNodeSetLocked(audit, addf)
	s.checkBlanksLocked(addf)
	s.checkDictionaryLocked(addf)
	return errs
}

// linkAudit accumulates the cross-link facts the per-link checks feed:
// which nodes are referenced by live links (invariant 2) and which
// (MODEL,S,P,CANON) keys have been seen (invariant 4).
type linkAudit struct {
	usedNodes map[int64]bool
	seenMSPO  map[string]int64
}

func newLinkAudit() *linkAudit {
	return &linkAudit{usedNodes: map[int64]bool{}, seenMSPO: map[string]int64{}}
}

// checkLinkLocked runs the per-link invariants (1, 3, 4, 5, 6) on one
// rdf_link$ row, folding the row's facts into the audit. Caller holds
// s.mu (either mode).
func (s *Store) checkLinkLocked(r reldb.Cells, audit *linkAudit, addf func(format string, args ...interface{})) {
	linkID := r.Int(lcLinkID)
	modelID := r.Int(lcModelID)
	sid, pid, oid, cid := r.Int(lcStartNodeID), r.Int(lcPValueID), r.Int(lcEndNodeID), r.Int(lcCanonEndNodeID)

	for _, pair := range [][2]int64{{sid, 1}, {pid, 2}, {oid, 3}, {cid, 4}} {
		if !s.valuePK.ContainsInts(pair[0]) {
			addf("link %d: dangling VALUE_ID %d (pos %d)", linkID, pair[0], pair[1])
		}
	}
	audit.usedNodes[sid] = true
	audit.usedNodes[oid] = true

	if cost := r.Int(lcCost); cost < 1 {
		addf("link %d: COST = %d < 1", linkID, cost)
	}
	key := fmt.Sprintf("%d|%d|%d|%d", modelID, sid, pid, cid)
	if other, dup := audit.seenMSPO[key]; dup {
		addf("links %d and %d: duplicate (MODEL,S,P,CANON)", other, linkID)
	}
	audit.seenMSPO[key] = linkID

	if !s.modelPK.ContainsInts(modelID) {
		addf("link %d: MODEL_ID %d not in rdf_model$", linkID, modelID)
	}
	if ctx := r.Str(lcContext); ctx != ContextDirect && ctx != ContextIndirect {
		addf("link %d: CONTEXT %q", linkID, ctx)
	}
	if rf := r.Str(lcReifLink); rf != "Y" && rf != "N" {
		addf("link %d: REIF_LINK %q", linkID, rf)
	}
	if prop, err := s.getValueLocked(pid); err == nil {
		if want := rdfterm.LinkType(prop.Value); r.Str(lcLinkType) != want {
			addf("link %d: LINK_TYPE %q, predicate implies %q", linkID, r.Str(lcLinkType), want)
		}
	} else if s.valuePK.ContainsInts(pid) {
		// The wholly-missing case is already reported as a dangling
		// VALUE_ID above; an indexed-but-unreadable row is a distinct
		// index/table divergence and must not be swallowed.
		addf("link %d: predicate VALUE_ID %d indexed in rdf_value$ but unreadable: %v", linkID, pid, err)
	}
}

// checkNodeSetLocked verifies invariant 2: rdf_node$ equals the set of
// nodes used by the audited links. Only meaningful after every live link
// has been folded into the audit. Caller holds s.mu.
func (s *Store) checkNodeSetLocked(audit *linkAudit, addf func(format string, args ...interface{})) {
	nodeSet := map[int64]bool{}
	s.nodes.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		nodeSet[r[0].Int64()] = true
		return true
	})
	for n := range audit.usedNodes {
		if !nodeSet[n] {
			addf("node %d used by links but missing from rdf_node$", n)
		}
	}
	for n := range nodeSet {
		if !audit.usedNodes[n] {
			addf("node %d in rdf_node$ but unused by any link", n)
		}
	}
}

// checkBlanksLocked verifies invariant 7: blank mappings point at
// BN-typed values. Caller holds s.mu.
func (s *Store) checkBlanksLocked(addf func(format string, args ...interface{})) {
	s.blanks.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		vid := r[2].Int64()
		term, err := s.getValueLocked(vid)
		if err != nil {
			addf("blank mapping (%d,%q): dangling VALUE_ID %d", r[0].Int64(), r[1].Str(), vid)
			return true
		}
		if term.Kind != rdfterm.Blank {
			addf("blank mapping (%d,%q): VALUE_ID %d is %s, not BN", r[0].Int64(), r[1].Str(), vid, term.Kind)
		}
		return true
	})
}

// checkDictionaryLocked verifies invariant 8: every rdf_value$ row is in
// the term dictionary under its VALUE_ID, and nothing else is. Caller
// holds s.mu.
func (s *Store) checkDictionaryLocked(addf func(format string, args ...interface{})) {
	if s.terms.n != s.values.Len() {
		addf("term dictionary has %d entries for %d rdf_value$ rows", s.terms.n, s.values.Len())
	}
	// The lookups come after the scan: both read rdf_value$ under its lock.
	var terms []rdfterm.Term
	var ids []int64
	s.values.ScanCells(func(c reldb.Cells) bool {
		terms, ids = append(terms, termFromCells(c)), append(ids, c.Int(vcValueID))
		return true
	})
	for i, t := range terms {
		if id, ok := s.lookupValueIDLocked(t); !ok || id != ids[i] {
			addf("value %d: term dictionary says (%d, %v)", ids[i], id, ok)
		}
	}
}
