package core

import (
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// Triple is the SDO_RDF_TRIPLE object type (Figure 5): the lexical
// <subject, property, object> view of a statement.
type Triple struct {
	Subject  rdfterm.Term
	Property rdfterm.Term
	Object   rdfterm.Term
}

// String renders the triple like the paper's angle-bracket examples.
func (t Triple) String() string {
	return "<" + t.Subject.Lexical() + ", " + t.Property.Lexical() + ", " + t.Object.Lexical() + ">"
}

// TripleS is the SDO_RDF_TRIPLE_S storage object type (Figure 5, Figure
// 6): five IDs pointing at the triple maintained in the central schema.
// Application tables store TripleS values; the text lives once in
// rdf_value$.
type TripleS struct {
	store *Store
	TID   int64 // rdf_t_id: LINK_ID
	MID   int64 // rdf_m_id: MODEL_ID
	SID   int64 // rdf_s_id: subject VALUE_ID
	PID   int64 // rdf_p_id: predicate VALUE_ID
	OID   int64 // rdf_o_id: object VALUE_ID
}

// String renders the storage object as in Figure 6.
func (t TripleS) String() string {
	return fmt.Sprintf("SDO_RDF_TRIPLE_S (%d, %d, %d, %d, %d)", t.TID, t.MID, t.SID, t.PID, t.OID)
}

// IsZero reports whether the object is unset.
func (t TripleS) IsZero() bool { return t.store == nil }

// GetTriple returns the full lexical triple — the GET_TRIPLE() member
// function. One link-row fetch plus three value lookups.
func (t TripleS) GetTriple() (Triple, error) {
	if t.store == nil {
		return Triple{}, fmt.Errorf("core: zero TripleS")
	}
	sub, err := t.store.GetValue(t.SID)
	if err != nil {
		return Triple{}, err
	}
	prop, err := t.store.GetValue(t.PID)
	if err != nil {
		return Triple{}, err
	}
	obj, err := t.store.GetValue(t.OID)
	if err != nil {
		return Triple{}, err
	}
	return Triple{Subject: sub, Property: prop, Object: obj}, nil
}

// GetSubject returns the subject text — the GET_SUBJECT() member function.
func (t TripleS) GetSubject() (string, error) {
	if t.store == nil {
		return "", fmt.Errorf("core: zero TripleS")
	}
	v, err := t.store.GetValue(t.SID)
	if err != nil {
		return "", err
	}
	return v.Lexical(), nil
}

// GetProperty returns the predicate text — the GET_PROPERTY() member
// function.
func (t TripleS) GetProperty() (string, error) {
	if t.store == nil {
		return "", fmt.Errorf("core: zero TripleS")
	}
	v, err := t.store.GetValue(t.PID)
	if err != nil {
		return "", err
	}
	return v.Lexical(), nil
}

// GetObject returns the object text — the GET_OBJECT() member function.
// Like the paper's CLOB return type, it returns the full text even for
// long literals.
func (t TripleS) GetObject() (string, error) {
	if t.store == nil {
		return "", fmt.Errorf("core: zero TripleS")
	}
	v, err := t.store.GetValue(t.OID)
	if err != nil {
		return "", err
	}
	return v.Lexical(), nil
}

// GetTripleByID returns the lexical triple stored under a LINK_ID.
func (s *Store) GetTripleByID(linkID int64) (Triple, error) {
	ts, err := s.GetTripleS(linkID)
	if err != nil {
		return Triple{}, err
	}
	return ts.GetTriple()
}

// GetTripleS returns the storage object for a LINK_ID.
func (s *Store) GetTripleS(linkID int64) (TripleS, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getTripleSLocked(linkID)
}

// getTripleSLocked is GetTripleS for callers already holding s.mu.
func (s *Store) getTripleSLocked(linkID int64) (TripleS, error) {
	rid, ok := s.linkPK.LookupInts(linkID)
	if !ok {
		return TripleS{}, fmt.Errorf("%w: LINK_ID %d", ErrNoSuchTriple, linkID)
	}
	return s.tripleSAtLocked(rid)
}

// tripleSAtLocked returns the storage object of the rdf_link$ row rid.
func (s *Store) tripleSAtLocked(rid reldb.RowID) (ts TripleS, err error) {
	err = s.links.Read(rid, func(c reldb.Cells) { ts = s.tripleSFromCells(c) })
	return ts, err
}

func (s *Store) tripleSFromCells(c reldb.Cells) TripleS {
	return TripleS{
		store: s,
		TID:   c.Int(lcLinkID),
		MID:   c.Int(lcModelID),
		SID:   c.Int(lcStartNodeID),
		PID:   c.Int(lcPValueID),
		OID:   c.Int(lcEndNodeID),
	}
}

// LinkInfo exposes the bookkeeping columns of a stored triple's rdf_link$
// row — LINK_TYPE, COST, CONTEXT, REIF_LINK (§4) — for tests, tools, and
// the experiments.
type LinkInfo struct {
	LinkID      int64
	ModelID     int64
	StartNodeID int64
	PValueID    int64
	EndNodeID   int64
	CanonEndID  int64
	LinkType    string
	Cost        int64
	Context     string
	ReifLink    bool
}

// LinkInfo returns the bookkeeping columns for a LINK_ID.
func (s *Store) LinkInfo(linkID int64) (LinkInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rid, ok := s.linkPK.LookupInts(linkID)
	if !ok {
		return LinkInfo{}, fmt.Errorf("%w: LINK_ID %d", ErrNoSuchTriple, linkID)
	}
	r, err := s.links.Get(rid)
	if err != nil {
		return LinkInfo{}, err
	}
	return LinkInfo{
		LinkID:      r[lcLinkID].Int64(),
		ModelID:     r[lcModelID].Int64(),
		StartNodeID: r[lcStartNodeID].Int64(),
		PValueID:    r[lcPValueID].Int64(),
		EndNodeID:   r[lcEndNodeID].Int64(),
		CanonEndID:  r[lcCanonEndNodeID].Int64(),
		LinkType:    r[lcLinkType].Str(),
		Cost:        r[lcCost].Int64(),
		Context:     r[lcContext].Str(),
		ReifLink:    r[lcReifLink].Str() == "Y",
	}, nil
}

// ReconstructTripleS rebinds a bare ID tuple (e.g. read back from an
// application table) to the store so member functions work.
func (s *Store) ReconstructTripleS(tid, mid, sid, pid, oid int64) TripleS {
	return TripleS{store: s, TID: tid, MID: mid, SID: sid, PID: pid, OID: oid}
}
