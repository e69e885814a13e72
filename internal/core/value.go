package core

import (
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/wal"
)

// maxValueNameLen caps the VALUE_NAME column; longer literal text spills
// into LONG_VALUE (§4: "long-literals are text values that exceed 4000
// characters").
const maxValueNameLen = rdfterm.LongLiteralThreshold

// lookupValueIDLocked returns the VALUE_ID for a term, or (0,false) when the
// text value is not interned yet. The term dictionary holds every
// rdf_value$ row (see termDict), so a miss is final: one hash probe, no
// index descent.
func (s *Store) lookupValueIDLocked(t rdfterm.Term) (int64, bool) {
	return s.terms.find(t, s.terms.hash(t))
}

// internValueLocked returns the VALUE_ID for a term, inserting a new
// rdf_value$ row when the text value is first seen. Caller holds s.mu
// for writing.
func (s *Store) internValueLocked(t rdfterm.Term) (int64, error) {
	if id, ok := s.lookupValueIDLocked(t); ok {
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
	if err := s.emitLocked(&wal.Record{
		Type: wal.TypeInternValue, ValueID: id, Text: t.Lexical(),
		ValueType: t.ValueType(), LiteralType: t.Datatype, Language: t.Language,
	}); err != nil {
		return 0, err
	}
	return id, nil
}

// insertValueRowLocked inserts the rdf_value$ row for a term under an
// already-assigned VALUE_ID (splitting long literals into LONG_VALUE) and
// enters the term in the dictionary — the applier's TypeInternValue case.
// The dictionary is also what keeps a term to one row: a live insert
// comes here only after a miss, so a term already present is a replayed
// log or a snapshot naming it twice, and is refused rather than left to
// shadow the first row's entry. The dictionary keeps the row's number and
// none of the caller's strings, so whatever buffer the caller's term came
// out of (a parser's input line, a WAL scanner's window, a decoded
// snapshot) is not kept alive by it. Caller holds s.mu.
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
	stored := ValueRowTerm(row)
	h := s.terms.hash(stored)
	if prev, dup := s.terms.find(stored, h); dup {
		return fmt.Errorf("%w: %s is already in rdf_value$ as VALUE_ID %d", reldb.ErrUniqueViolation, stored, prev)
	}
	if s.terms.n == maxTerms {
		return fmt.Errorf("core: rdf_value$ is full: the term dictionary numbers %d rows", maxTerms)
	}
	rid, err := s.values.Insert(row)
	if err != nil {
		return err
	}
	s.terms.add(rid, h)
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
	var t rdfterm.Term
	err := s.values.Read(rid, func(c reldb.Cells) { t = termFromCells(c) })
	return t, err
}

// ValueRowTerm is the term an rdf_value$ row given as values stands for:
// the decoder for readers of the table through Store.Database, such as
// the paper's flat-table baseline.
func ValueRowTerm(r reldb.Row) rdfterm.Term {
	str := func(v reldb.Value) string {
		if v.IsNull() {
			return ""
		}
		return v.Str()
	}
	text := r[vcValueName].Str()
	if !r[vcLongValue].IsNull() {
		text = r[vcLongValue].Str()
	}
	return valueTerm(r[vcValueType].Str(), text, str(r[vcLiteralType]), str(r[vcLanguageType]))
}

// termFromCells rebuilds a term from an rdf_value$ row. The term's strings
// are the table's.
func termFromCells(c reldb.Cells) rdfterm.Term {
	text := c.Str(vcValueName)
	if !c.IsNull(vcLongValue) {
		text = c.Str(vcLongValue)
	}
	// A NULL LITERAL_TYPE or LANGUAGE_TYPE reads "".
	return valueTerm(c.Str(vcValueType), text, c.Str(vcLiteralType), c.Str(vcLanguageType))
}

// valueTerm is the term an rdf_value$ row stands for, given its VALUE_TYPE,
// full text, and literal type and language ("" for none).
func valueTerm(valueType, text, datatype, language string) rdfterm.Term {
	switch valueType {
	case rdfterm.VTUri:
		return rdfterm.NewURI(text)
	case rdfterm.VTBlank:
		return rdfterm.NewBlank(text)
	default:
		return rdfterm.Term{Kind: rdfterm.Literal, Value: text, Datatype: datatype, Language: language}
	}
}

// scanInLinksLocked visits the rdf_link$ rows whose END_NODE_ID is node, in
// model mid (0: in every model), until fn returns false. rdf_link_om keys
// a link by its object's canonical form, so the rows lie under the
// canonical VALUE_ID of node's term — node itself, unless it is a literal
// written another way ("01"^^xsd:int) — and those whose object is a
// different spelling of the same value are passed over. Caller holds s.mu.
func (s *Store) scanInLinksLocked(node, mid int64, fn func(c reldb.Cells) bool) {
	canon := node
	if t, err := s.getValueLocked(node); err == nil {
		if c := rdfterm.Canonical(t); c != t {
			var ok bool
			// A link interns its object's canonical form with it.
			if canon, ok = s.lookupValueIDLocked(c); !ok {
				return
			}
		}
	}
	prefix := []int64{canon, mid}
	if mid == 0 {
		prefix = prefix[:1]
	}
	s.linkOM.ScanIntsCells(prefix, func(c reldb.Cells) bool {
		return c.Int(lcEndNodeID) != node || fn(c)
	})
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
	used := false
	mark := func(reldb.Cells) bool { used = true; return false }
	if s.linkSMPO.ScanIntsCells([]int64{valueID}, mark); !used {
		s.scanInLinksLocked(valueID, 0, mark)
	}
	if used {
		return
	}
	if rid, ok := s.nodePK.LookupInts(valueID); ok {
		// Delete errors cannot occur here (row just located); ignore to
		// keep deletion best-effort like Oracle's deferred cleanup.
		_ = s.nodes.Delete(rid)
	}
}
