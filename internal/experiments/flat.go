package experiments

import (
	"context"

	"repro/internal/core"
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
// rdf_value$ — the three-way join the member functions hide. It reads the
// tables through Store.Database under the store's read view.
func FlatQueryBySubject(st *core.Store, model, subject string) ([]core.Triple, error) {
	db := st.Database()
	values, links := db.MustTable(core.TableValue), db.MustTable(core.TableLink)
	valuePK, err := values.Index("rdf_value_pk")
	if err != nil {
		return nil, err
	}
	linkSMPO, err := links.Index("rdf_link_smpo")
	if err != nil {
		return nil, err
	}
	pCol := links.Schema().MustColumnIndex("P_VALUE_ID")
	oCol := links.Schema().MustColumnIndex("END_NODE_ID")
	// valueRow is the rdf_value$ row under a VALUE_ID: one probe of
	// rdf_value_pk, one heap read; nil when no row has the ID.
	valueRow := func(id reldb.Value) (reldb.Row, error) {
		rid, ok := valuePK.LookupOne(reldb.Key{id})
		if !ok {
			return nil, nil
		}
		return values.Get(rid)
	}

	var out []core.Triple
	err = st.ReadView(context.Background(), func(tx *core.ReadTx) error {
		mid, err := tx.ModelIDLocked(model)
		if err != nil {
			return err
		}
		// rdf_value$ a: the subject's VALUE_ID by text, and its row.
		id, ok := tx.SubjectIDLocked(mid, rdfterm.NewURI(subject))
		if !ok {
			return nil
		}
		sid := reldb.Int(id)
		subjRow, err := valueRow(sid)
		if subjRow == nil {
			return err
		}
		subj := core.ValueRowTerm(subjRow)
		// rdf_link$ d: prefix scan on (START_NODE_ID, MODEL_ID).
		var linkIDs []reldb.RowID
		linkSMPO.ScanPrefix(reldb.Key{sid, reldb.Int(mid)}, func(_ reldb.Key, rid reldb.RowID) bool {
			linkIDs = append(linkIDs, rid)
			return true
		})
		for _, rid := range linkIDs {
			link, err := links.Get(rid)
			if err != nil {
				return err
			}
			// d ⋈ rdf_value$ b ON b.value_id = d.p_value_id
			pRow, err := valueRow(link[pCol])
			if err != nil {
				return err
			}
			// … ⋈ rdf_value$ c ON c.value_id = d.end_node_id
			oRow, err := valueRow(link[oCol])
			if err != nil {
				return err
			}
			if pRow == nil || oRow == nil {
				continue // an inner join drops a link without both rows
			}
			out = append(out, core.Triple{
				Subject:  subj,
				Property: core.ValueRowTerm(pRow),
				Object:   core.ValueRowTerm(oRow),
			})
		}
		return nil
	})
	return out, err
}

// UnindexedQueryBySubject runs the Experiment II query WITHOUT the §7.2
// function-based index: a full scan of the application table calling
// GET_SUBJECT() per row. It exists for the indexing ablation (§7.2 notes
// that indexes were required to attain the reported times).
func UnindexedQueryBySubject(a *core.ApplicationTable, subject string) ([]core.Triple, error) {
	var out []core.Triple
	var scanErr error
	a.Scan(func(_ reldb.RowID, _ []reldb.Value, ts core.TripleS) bool {
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
