package core

import (
	"repro/internal/rdfterm"
)

// Streamlined reification (§5): instead of the four-triple reification
// quad, one triple <DBUri(linkID), rdf:type, rdf:Statement> is stored —
// 25% of the naïve storage (§7.3) — and the DBUri points directly at the
// reified triple's row.

// Reify is the reification constructor SDO_RDF_TRIPLE_S(model_name,
// rdf_t_id) (§5): it generates the triple <DBUri, rdf:type, rdf:Statement>
// for the triple identified by linkID. Reifying an already-reified triple
// is idempotent (the existing reification triple's COST is bumped, like
// any repeated insert).
func (s *Store) Reify(model string, linkID int64) (TripleS, error) {
	var ts TripleS
	err := s.write(func() error {
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}
		// The reified triple must exist somewhere in the store; its DBUri
		// is a direct row pointer.
		if _, err := s.getTripleSLocked(linkID); err != nil {
			return err
		}
		ts, err = s.reifyLocked(mid, linkID)
		return err
	})
	return ts, err
}

func (s *Store) reifyLocked(modelID, linkID int64) (TripleS, error) {
	ts, _, err := s.insertLocked(modelID,
		rdfterm.NewURI(DBUri(linkID)),
		rdfterm.NewURI(rdfterm.RDFType),
		rdfterm.NewURI(rdfterm.RDFStatement),
		ContextDirect)
	return ts, err
}

// AssertAboutTriple is the assertion constructor SDO_RDF_TRIPLE_S(
// model_name, subject, property, rdf_t_id) (§5): it reifies the triple
// identified by rdf_t_id (if not already reified) and asserts
// <subject, property, DBUri(rdf_t_id)> — e.g. Figure 7's
// <gov:MI5, gov:source, R>.
func (s *Store) AssertAboutTriple(model, subject, property string, linkID int64, aliases *rdfterm.AliasSet) (TripleS, error) {
	sub, prop, obj, err := parseTripleDB(subject, property, DBUri(linkID), aliases)
	if err != nil {
		return TripleS{}, err
	}
	var ts TripleS
	err = s.write(func() error {
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}
		if _, err := s.getTripleSLocked(linkID); err != nil {
			return err
		}
		if !s.isReifiedLocked(mid, linkID) {
			if _, err := s.reifyLocked(mid, linkID); err != nil {
				return err
			}
		}
		ts, _, err = s.insertLocked(mid, sub, prop, obj, ContextDirect)
		return err
	})
	return ts, err
}

// AssertImplied is the assertion constructor SDO_RDF_TRIPLE_S(model_name,
// reif_sub, reif_prop, subject, property, object) (§5, §5.2): it asserts a
// statement about a base triple that need not previously exist. A base
// triple inserted this way is an *implied* statement (CONTEXT = "I"); if
// it already exists as a fact its context is untouched, and if it is later
// asserted directly its context upgrades to "D".
func (s *Store) AssertImplied(model, reifSub, reifProp, subject, property, object string, aliases *rdfterm.AliasSet) (TripleS, error) {
	rs, err := parseSubjectDB(reifSub, aliases)
	if err != nil {
		return TripleS{}, err
	}
	rp, err := rdfterm.ParsePredicate(reifProp, aliases)
	if err != nil {
		return TripleS{}, err
	}
	sub, prop, obj, err := parseTripleDB(subject, property, object, aliases)
	if err != nil {
		return TripleS{}, err
	}
	var ts TripleS
	err = s.write(func() error {
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}
		// Insert (or find) the base triple as an indirect statement.
		base, _, err := s.insertLocked(mid, sub, prop, obj, ContextIndirect)
		if err != nil {
			return err
		}
		if !s.isReifiedLocked(mid, base.TID) {
			if _, err := s.reifyLocked(mid, base.TID); err != nil {
				return err
			}
		}
		ts, _, err = s.insertLocked(mid, rs, rp, rdfterm.NewURI(DBUri(base.TID)), ContextDirect)
		return err
	})
	return ts, err
}

// IsReified reports whether the given triple is reified in the model —
// the paper's SDO_RDF.IS_REIFIED() (Figure 11). It is a constant number of
// index lookups: resolve the triple to its LINK_ID, then look for the
// single <DBUri, rdf:type, rdf:Statement> row.
func (s *Store) IsReified(model, subject, property, object string, aliases *rdfterm.AliasSet) (bool, error) {
	sub, prop, obj, err := parseTripleDB(subject, property, object, aliases)
	if err != nil {
		return false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return false, err
	}
	ts, ok, err := s.isTripleTermsLocked(mid, sub, prop, obj)
	if err != nil || !ok {
		return false, err
	}
	return s.isReifiedLocked(mid, ts.TID), nil
}

// IsReifiedByID reports whether LINK_ID is reified in the model.
func (s *Store) IsReifiedByID(model string, linkID int64) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return false, err
	}
	return s.isReifiedLocked(mid, linkID), nil
}

// isReifiedLocked searches for the DBUri reification row. (Read-only; safe
// with or without s.mu.)
func (s *Store) isReifiedLocked(modelID, linkID int64) bool {
	sid, ok := s.lookupValueIDLocked(rdfterm.NewURI(DBUri(linkID)))
	if !ok {
		return false
	}
	pid, ok := s.lookupValueIDLocked(rdfterm.NewURI(rdfterm.RDFType))
	if !ok {
		return false
	}
	oid, ok := s.lookupValueIDLocked(rdfterm.NewURI(rdfterm.RDFStatement))
	if !ok {
		return false
	}
	return s.linkSMPO.ContainsInts(sid, modelID, pid, oid)
}

// Assertions returns the assertions made about a reified triple in a
// model: all triples whose object is the DBUri of linkID (e.g. Figure 7's
// <gov:MI5, gov:source, R>), excluding the rdf:type reification row
// itself.
func (s *Store) Assertions(model string, linkID int64) ([]Triple, error) {
	dburi := rdfterm.NewURI(DBUri(linkID))
	ts, err := s.Find(model, Pattern{Object: &dburi})
	if err != nil {
		return nil, err
	}
	var out []Triple
	for _, t := range ts {
		tr, err := t.GetTriple()
		if err != nil {
			return nil, err
		}
		if tr.Property.Value == rdfterm.RDFType && tr.Object.Value == rdfterm.RDFStatement {
			continue
		}
		out = append(out, tr)
	}
	return out, nil
}

// ReifiedCount returns the number of reified statements in a model: the
// count of <?, rdf:type, rdf:Statement> rows whose subject is a DBUri.
func (s *Store) ReifiedCount(model string) (int, error) {
	typ := rdfterm.NewURI(rdfterm.RDFType)
	stmt := rdfterm.NewURI(rdfterm.RDFStatement)
	ts, err := s.Find(model, Pattern{Predicate: &typ, Object: &stmt})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range ts {
		sub, err := t.GetSubject()
		if err != nil {
			return 0, err
		}
		if _, ok := ParseDBUri(sub); ok {
			n++
		}
	}
	return n, nil
}
