package core

import (
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// FlatQueryBySubject is Experiment I's "query using storage tables"
// (Figure 9): the equivalent of
//
//	SELECT a.value_name, b.value_name, c.value_name
//	FROM rdf_value$ a, rdf_value$ b, rdf_value$ c, rdf_link$ d
//	WHERE d.model_id = :m
//	  AND a.value_id = d.start_node_id
//	  AND b.value_id = d.p_value_id
//	  AND c.value_id = d.end_node_id
//	  AND a.value_name = :subject
//
// executed as an explicit plan over the storage tables: the subject text
// resolved to its rdf_value$ row (term dictionary, then the VALUE_ID
// column rdf_value_pk searches), an index prefix scan on rdf_link$
// (START_NODE_ID, MODEL_ID), and two index-nested-loop joins back to
// rdf_value$ — the three-way join the member functions hide.
func (s *Store) FlatQueryBySubject(model, subject string) ([]Triple, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return nil, err
	}
	// rdf_value$ a: the subject's VALUE_ID by text, and its row.
	id, ok := s.lookupValueIDLocked(rdfterm.NewURI(subject))
	if !ok {
		return nil, nil
	}
	sid := reldb.Int(id)
	subjRows := reldb.Collect(reldb.NewIndexEq(s.values, s.valuePK, reldb.Key{sid}))
	if len(subjRows) == 0 {
		return nil, nil
	}

	// rdf_link$ d: prefix scan on (START_NODE_ID, MODEL_ID).
	linkIter := reldb.NewIndexPrefix(s.links, s.linkSMPO, reldb.Key{sid, reldb.Int(mid)})

	// d ⋈ rdf_value$ b ON b.value_id = d.p_value_id
	joinP := reldb.NewIndexJoin(linkIter, s.values, s.valuePK, reldb.ColKey(lcPValueID))
	// … ⋈ rdf_value$ c ON c.value_id = d.end_node_id
	linkWidth := s.links.Schema().NumColumns()
	valueWidth := s.values.Schema().NumColumns()
	joinO := reldb.NewIndexJoin(joinP, s.values, s.valuePK, reldb.ColKey(lcEndNodeID))

	var out []Triple
	for {
		r, ok := joinO.Next()
		if !ok {
			return out, nil
		}
		// Row layout: link columns ++ predicate value row ++ object value row.
		pRow := r[linkWidth : linkWidth+valueWidth]
		oRow := r[linkWidth+valueWidth:]
		out = append(out, Triple{
			Subject:  rowToTerm(subjRows[0]),
			Property: rowToTerm(pRow),
			Object:   rowToTerm(oRow),
		})
	}
}

// UnindexedQueryBySubject runs the Experiment II query WITHOUT the §7.2
// function-based index: a full scan of the application table calling
// GET_SUBJECT() per row. It exists for the indexing ablation (§7.2 notes
// that indexes were required to attain the reported times).
func (a *ApplicationTable) UnindexedQueryBySubject(subject string) ([]Triple, error) {
	var out []Triple
	var scanErr error
	a.Scan(func(_ reldb.RowID, _ []reldb.Value, ts TripleS) bool {
		sub, err := ts.GetSubject()
		if err != nil {
			scanErr = err
			return false
		}
		if sub != subject {
			return true
		}
		tr, err := ts.GetTriple()
		if err != nil {
			scanErr = err
			return false
		}
		out = append(out, tr)
		return true
	})
	return out, scanErr
}
