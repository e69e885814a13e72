package core

import (
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// maxValueNameLen caps the VALUE_NAME column; longer literal text spills
// into LONG_VALUE (§4: "long-literals are text values that exceed 4000
// characters").
const maxValueNameLen = rdfterm.LongLiteralThreshold

// lookupValueIDLocked returns the VALUE_ID for a term, or (0,false) when the
// text value is not interned yet. The term dictionary holds every
// rdf_value$ row (see Store.termIDs), so a miss is final: one map probe,
// no index descent.
func (s *Store) lookupValueIDLocked(t rdfterm.Term) (int64, bool) {
	id, ok := s.termIDs[t]
	return id, ok
}

// internValueLocked returns the VALUE_ID for a term, inserting a new
// rdf_value$ row when the text value is first seen. Caller holds s.mu
// for writing.
func (s *Store) internValueLocked(t rdfterm.Term) (int64, error) {
	if id, ok := s.termIDs[t]; ok {
		s.met.onCacheHit()
		return id, nil
	}
	s.met.onCacheMiss()
	// Only validated terms are ever interned, so an invalid one always
	// lands here.
	if err := t.Validate(); err != nil {
		return 0, err
	}
	id := s.valueSeq.Next()
	if err := s.insertValueRowLocked(id, t); err != nil {
		return 0, err
	}
	if err := s.logRecord(valueRecord(id, t.Lexical(), t.ValueType(), t.Datatype, t.Language)); err != nil {
		return 0, err
	}
	return id, nil
}

// insertValueRowLocked inserts the rdf_value$ row for a term under an
// already-assigned VALUE_ID (splitting long literals into LONG_VALUE) and
// enters the term in the dictionary — shared by internValueLocked and WAL
// replay. Caller holds s.mu.
func (s *Store) insertValueRowLocked(id int64, t rdfterm.Term) error {
	name := t.Lexical()
	long := reldb.Null()
	if t.IsLong() {
		long = reldb.String_(name)
		name = name[:maxValueNameLen]
	}
	lit, lang := reldb.Null(), reldb.Null()
	if t.Datatype != "" {
		lit = reldb.String_(t.Datatype)
	}
	if t.Language != "" {
		lang = reldb.String_(t.Language)
	}
	row := reldb.Row{
		reldb.Int(id),
		reldb.String_(name),
		reldb.String_(t.ValueType()),
		lit,
		lang,
		long,
	}
	if _, err := s.values.Insert(row); err != nil {
		return err
	}
	s.termIDs[t] = id
	return nil
}

// GetValue reconstructs the term stored under a VALUE_ID.
func (s *Store) GetValue(valueID int64) (rdfterm.Term, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getValueLocked(valueID)
}

// getValueLocked is GetValue for callers already holding s.mu.
func (s *Store) getValueLocked(valueID int64) (rdfterm.Term, error) {
	rid, ok := s.valuePK.LookupInts(valueID)
	if !ok {
		return rdfterm.Term{}, fmt.Errorf("%w: VALUE_ID %d", ErrNoSuchValue, valueID)
	}
	r, err := s.values.Get(rid)
	if err != nil {
		return rdfterm.Term{}, err
	}
	return rowToTerm(r), nil
}

// rowToTerm rebuilds a term from an rdf_value$ row.
func rowToTerm(r reldb.Row) rdfterm.Term {
	text := r[vcValueName].Str()
	if !r[vcLongValue].IsNull() {
		text = r[vcLongValue].Str()
	}
	switch r[vcValueType].Str() {
	case rdfterm.VTUri:
		return rdfterm.NewURI(text)
	case rdfterm.VTBlank:
		return rdfterm.NewBlank(text)
	default:
		t := rdfterm.Term{Kind: rdfterm.Literal, Value: text}
		if !r[vcLiteralType].IsNull() {
			t.Datatype = r[vcLiteralType].Str()
		}
		if !r[vcLanguageType].IsNull() {
			t.Language = r[vcLanguageType].Str()
		}
		return t
	}
}

// internNodeLocked records a value ID in rdf_node$ if not present — graph
// nodes (subjects/objects) are "stored only once, regardless of the number
// of times they participate in triples" (§4). One descent of the node
// index either way. Caller holds s.mu.
func (s *Store) internNodeLocked(valueID int64) error {
	_, _, err := s.nodes.InsertOrGet(s.nodePK, reldb.Row{reldb.Int(valueID), reldb.Bool(true)})
	return err
}

// removeNodeIfOrphanLocked removes the rdf_node$ entry when no link in any
// model still references the node as subject or object (§4: "the nodes
// attached to this link are not removed if there are other links connected
// to them"). Caller holds s.mu.
func (s *Store) removeNodeIfOrphanLocked(valueID int64) {
	if s.linkStart.ContainsInts(valueID) || s.linkEnd.ContainsInts(valueID) {
		return
	}
	if rid, ok := s.nodePK.LookupInts(valueID); ok {
		// Delete errors cannot occur here (row just located); ignore to
		// keep deletion best-effort like Oracle's deferred cleanup.
		_ = s.nodes.Delete(rid)
	}
}
