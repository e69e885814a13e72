package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/wal"
)

// NewTripleS is the paper's base constructor SDO_RDF_TRIPLE_S(model_name,
// subject, property, object) (Figure 5, §4.3): it parses the triple into
// the central schema (§4.1) and returns the ID object for storage in an
// application table. Inserting an existing triple returns the previously
// assigned IDs and increments the link's COST.
//
// The triple is inserted as a fact (CONTEXT = "D"); if it previously
// existed only as the base of a reification (CONTEXT = "I"), the context
// is upgraded to "D" (§5.2).
func (s *Store) NewTripleS(model, subject, property, object string, aliases *rdfterm.AliasSet) (TripleS, error) {
	sub, err := parseSubjectDB(subject, aliases)
	if err != nil {
		return TripleS{}, err
	}
	prop, err := rdfterm.ParsePredicate(property, aliases)
	if err != nil {
		return TripleS{}, err
	}
	obj, err := parseObjectDB(object, aliases)
	if err != nil {
		return TripleS{}, err
	}
	return s.InsertTerms(model, sub, prop, obj)
}

// parseSubjectDB parses a subject string, recognizing DBUri resources
// (which have no URI scheme and would otherwise be rejected) as URIs.
func parseSubjectDB(subject string, aliases *rdfterm.AliasSet) (rdfterm.Term, error) {
	if trimmed := strings.TrimSpace(subject); isDBUri(trimmed) {
		return rdfterm.NewURI(trimmed), nil
	}
	return rdfterm.ParseSubject(subject, aliases)
}

// parseObjectDB parses an object string, recognizing DBUri resources as
// URIs rather than plain literals.
func parseObjectDB(object string, aliases *rdfterm.AliasSet) (rdfterm.Term, error) {
	if trimmed := strings.TrimSpace(object); isDBUri(trimmed) {
		return rdfterm.NewURI(trimmed), nil
	}
	return rdfterm.ParseObject(object, aliases)
}

func isDBUri(s string) bool {
	_, ok := ParseDBUri(s)
	return ok
}

// InsertTerms inserts a triple given already-parsed terms, as a fact.
func (s *Store) InsertTerms(model string, sub, prop, obj rdfterm.Term) (TripleS, error) {
	return s.insertTermsCtx(model, sub, prop, obj, ContextDirect)
}

// InsertImplied inserts a triple as an indirect statement (CONTEXT = "I",
// §5.2) — a statement that exists only as the base of a reification. If
// the triple already exists its context is untouched.
func (s *Store) InsertImplied(model string, sub, prop, obj rdfterm.Term) (TripleS, error) {
	return s.insertTermsCtx(model, sub, prop, obj, ContextIndirect)
}

func (s *Store) insertTermsCtx(model string, sub, prop, obj rdfterm.Term, context string) (TripleS, error) {
	t0 := s.met.startTimer()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.onWriteLockAcquired(t0)
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return TripleS{}, err
	}
	ts, _, err := s.insertLocked(mid, sub, prop, obj, context)
	if err != nil {
		return TripleS{}, err
	}
	s.met.setTriples(s.links.Len())
	return ts, s.logCommit()
}

// internedTriple carries one triple between the two phases of an insert:
// the interned VALUE_IDs and the two rdf_link$ columns derived from the
// terms' text, so the link phase needs no text. Batch inserts run the
// intern phase over the whole batch before touching rdf_link$.
type internedTriple struct {
	sid, pid, oid  int64
	canonID        int64
	linkType, reif string // LINK_TYPE, REIF_LINK
}

// insertLocked implements the §4.1 parsing pipeline. Caller holds s.mu.
// It returns the storage object and whether a new link row was created.
func (s *Store) insertLocked(modelID int64, sub, prop, obj rdfterm.Term, context string) (TripleS, bool, error) {
	it, err := s.internTripleLocked(modelID, sub, prop, obj)
	if err != nil {
		return TripleS{}, false, err
	}
	return s.insertLinkLocked(modelID, it, context)
}

// internTripleLocked is the intern phase: blank resolution plus value
// interning for subject, predicate, object, and the object's canonical
// form (reusing existing VALUE_IDs, §4.1). Caller holds s.mu for writing.
func (s *Store) internTripleLocked(modelID int64, sub, prop, obj rdfterm.Term) (internedTriple, error) {
	if prop.Kind != rdfterm.URI {
		return internedTriple{}, fmt.Errorf("core: predicate must be a URI, got %s", prop)
	}
	var err error
	if sub, err = s.resolveBlankLocked(modelID, sub); err != nil {
		return internedTriple{}, err
	}
	if obj, err = s.resolveBlankLocked(modelID, obj); err != nil {
		return internedTriple{}, err
	}
	sid, err := s.internValueLocked(sub)
	if err != nil {
		return internedTriple{}, err
	}
	pid, err := s.internValueLocked(prop)
	if err != nil {
		return internedTriple{}, err
	}
	oid, err := s.internValueLocked(obj)
	if err != nil {
		return internedTriple{}, err
	}
	// Canonical object ID (CANON_END_NODE_ID): typed literals match on
	// their canonical form.
	canonID := oid
	if canon := rdfterm.Canonical(obj); !canon.Equal(obj) {
		if canonID, err = s.internValueLocked(canon); err != nil {
			return internedTriple{}, err
		}
	}
	return internedTriple{
		sid: sid, pid: pid, oid: oid, canonID: canonID,
		linkType: rdfterm.LinkType(prop.Value), reif: reifFlag(sub, prop, obj),
	}, nil
}

// insertLinkLocked is the link phase: with all values interned, find or
// create the rdf_link$ row — one descent of the SMPO index decides which.
// Caller holds s.mu for writing.
func (s *Store) insertLinkLocked(modelID int64, it internedTriple, context string) (TripleS, bool, error) {
	sid, pid, oid, canonID := it.sid, it.pid, it.oid, it.canonID
	linkType, reif := it.linkType, it.reif
	// A link is always created per new triple (§4), under the next
	// LINK_ID; the sequence moves only if the row goes in.
	linkID := s.linkSeq.Current()
	rid, created, err := s.links.InsertOrGet(s.linkSMPO, reldb.Row{
		reldb.Int(linkID),
		reldb.Int(sid),
		reldb.Int(pid),
		reldb.Int(oid),
		reldb.Int(canonID),
		reldb.String_(linkType),
		reldb.Int(1),
		reldb.String_(context),
		reldb.String_(reif),
		reldb.Int(modelID),
	})
	if err != nil {
		return TripleS{}, false, err
	}
	if !created {
		return s.repeatLinkLocked(rid, context)
	}
	s.linkSeq.AdvanceTo(linkID + 1)
	// Subjects and objects are NDM nodes, stored once (§4).
	if err := s.internNodeLocked(sid); err != nil {
		return TripleS{}, false, err
	}
	if err := s.internNodeLocked(oid); err != nil {
		return TripleS{}, false, err
	}
	if err := s.logRecord(wal.Record{
		Type: wal.TypeInsertLink, LinkID: linkID, ModelID: modelID,
		StartID: sid, PropID: pid, EndID: oid, CanonID: canonID,
		LinkType: linkType, Cost: 1, Context: context, Reif: reif == "Y",
	}); err != nil {
		return TripleS{}, false, err
	}
	return TripleS{store: s, TID: linkID, MID: modelID, SID: sid, PID: pid, OID: oid}, true, nil
}

// repeatLinkLocked records one more insert of the triple already stored in
// rdf_link$ row rid: COST is bumped (§4: "the number of times the triple
// is stored in an application table") and an indirect statement now
// asserted as fact is upgraded I → D (§5.2). Neither column is indexed, so
// no index is touched. Caller holds s.mu for writing.
func (s *Store) repeatLinkLocked(rid reldb.RowID, context string) (TripleS, bool, error) {
	var ts TripleS
	var newCost int64
	var newCtx string
	if err := s.links.Read(rid, func(c reldb.Cells) {
		ts, newCost, newCtx = s.tripleSFromCells(c), c.Int(lcCost)+1, c.Str(lcContext)
	}); err != nil {
		return TripleS{}, false, err
	}
	if err := s.links.UpdateColumn(rid, "COST", reldb.Int(newCost)); err != nil {
		return TripleS{}, false, err
	}
	if context == ContextDirect && newCtx == ContextIndirect {
		newCtx = ContextDirect
		if err := s.links.UpdateColumn(rid, "CONTEXT", reldb.String_(newCtx)); err != nil {
			return TripleS{}, false, err
		}
	}
	if err := s.logRecord(wal.Record{
		Type: wal.TypeUpdateLink, LinkID: ts.TID,
		Cost: newCost, Context: newCtx,
	}); err != nil {
		return TripleS{}, false, err
	}
	return ts, false, nil
}

// reifFlag returns "Y" when any component references a reified triple via
// a DBUri (the REIF_LINK column, §4).
func reifFlag(terms ...rdfterm.Term) string {
	for _, t := range terms {
		if t.Kind == rdfterm.URI {
			if _, ok := ParseDBUri(t.Value); ok {
				return "Y"
			}
		}
	}
	return "N"
}

// resolveBlankLocked maps a user-supplied blank node label to its
// model-scoped internal label via rdf_blank_node$, allocating a fresh
// internal label on first use. Blank labels are scoped to a model, so
// _:b1 in two models denotes two different nodes. Caller holds s.mu.
func (s *Store) resolveBlankLocked(modelID int64, t rdfterm.Term) (rdfterm.Term, error) {
	if t.Kind != rdfterm.Blank {
		return t, nil
	}
	key := reldb.Key{reldb.Int(modelID), reldb.String_(t.Value)}
	if rid, ok := s.blankPK.LookupOne(key); ok {
		r, err := s.blanks.Get(rid)
		if err != nil {
			return rdfterm.Term{}, err
		}
		internal, err := s.getValueLocked(r[2].Int64())
		if err != nil {
			return rdfterm.Term{}, err
		}
		return internal, nil
	}
	internal := rdfterm.NewBlank("m" + strconv.FormatInt(modelID, 10) + "b" + strconv.FormatInt(s.blankSeq.Next(), 10))
	vid, err := s.internValueLocked(internal)
	if err != nil {
		return rdfterm.Term{}, err
	}
	if _, err := s.blanks.Insert(reldb.Row{reldb.Int(modelID), reldb.String_(t.Value), reldb.Int(vid)}); err != nil {
		return rdfterm.Term{}, err
	}
	// The internal label consumed a blank-sequence slot; persist the
	// position so a replayed store never re-issues it.
	if err := s.logRecord(wal.Record{
		Type: wal.TypeSeqAdvance, Seq: wal.SeqBlank, SeqValue: s.blankSeq.Current(),
	}); err != nil {
		return rdfterm.Term{}, err
	}
	if err := s.logRecord(wal.Record{
		Type: wal.TypeBlankNode, ModelID: modelID, Name: t.Value, ValueID: vid,
	}); err != nil {
		return rdfterm.Term{}, err
	}
	return internal, nil
}

// NewBlankNode allocates a fresh blank node in a model without inserting
// any triple — used for containers, which hang members off a generated
// blank node (§2).
func (s *Store) NewBlankNode(model string) (rdfterm.Term, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return rdfterm.Term{}, err
	}
	// The label slot consumed here is covered by the SeqAdvance record
	// resolveBlankLocked emits after its own (later) allocation.
	label := "m" + strconv.FormatInt(mid, 10) + "b" + strconv.FormatInt(s.blankSeq.Next(), 10)
	t, err := s.resolveBlankLocked(mid, rdfterm.NewBlank(label))
	if err != nil {
		return rdfterm.Term{}, err
	}
	return t, s.logCommit()
}

// DeleteTriple removes one application-table reference to a triple: the
// link's COST is decremented, and when it reaches zero the link row is
// removed. Nodes are removed only when no other link references them (§4).
func (s *Store) DeleteTriple(model, subject, property, object string, aliases *rdfterm.AliasSet) error {
	sub, err := parseSubjectDB(subject, aliases)
	if err != nil {
		return err
	}
	prop, err := rdfterm.ParsePredicate(property, aliases)
	if err != nil {
		return err
	}
	obj, err := parseObjectDB(object, aliases)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return err
	}
	ts, ok, err := s.isTripleTermsLocked(mid, sub, prop, obj)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s %s %s in model %s", ErrNoSuchTriple, subject, property, object, model)
	}
	return s.deleteByLinkIDLocked(ts.TID)
}

func (s *Store) deleteByLinkID(linkID int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteByLinkIDLocked(linkID)
}

func (s *Store) deleteByLinkIDLocked(linkID int64) error {
	rid, ok := s.linkPK.LookupInts(linkID)
	if !ok {
		return fmt.Errorf("%w: LINK_ID %d", ErrNoSuchTriple, linkID)
	}
	r, err := s.links.Get(rid)
	if err != nil {
		return err
	}
	if cost := r[lcCost].Int64(); cost > 1 {
		if err := s.links.UpdateColumn(rid, "COST", reldb.Int(cost-1)); err != nil {
			return err
		}
		if err := s.logRecord(wal.Record{
			Type: wal.TypeUpdateLink, LinkID: linkID,
			Cost: cost - 1, Context: r[lcContext].Str(),
		}); err != nil {
			return err
		}
		return s.logCommit()
	}
	if err := s.links.Delete(rid); err != nil {
		return err
	}
	s.removeNodeIfOrphanLocked(r[lcStartNodeID].Int64())
	s.removeNodeIfOrphanLocked(r[lcEndNodeID].Int64())
	if err := s.logRecord(wal.Record{Type: wal.TypeDeleteLink, LinkID: linkID}); err != nil {
		return err
	}
	return s.logCommit()
}

// IsTriple reports whether the triple exists in the model, returning its
// storage object — the paper's SDO_RDF.IS_TRIPLE().
func (s *Store) IsTriple(model, subject, property, object string, aliases *rdfterm.AliasSet) (TripleS, bool, error) {
	sub, err := parseSubjectDB(subject, aliases)
	if err != nil {
		return TripleS{}, false, err
	}
	prop, err := rdfterm.ParsePredicate(property, aliases)
	if err != nil {
		return TripleS{}, false, err
	}
	obj, err := parseObjectDB(object, aliases)
	if err != nil {
		return TripleS{}, false, err
	}
	return s.IsTripleTerms(model, sub, prop, obj)
}

// IsTripleTerms is IsTriple over parsed terms.
func (s *Store) IsTripleTerms(model string, sub, prop, obj rdfterm.Term) (TripleS, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return TripleS{}, false, err
	}
	return s.isTripleTermsLocked(mid, sub, prop, obj)
}

// isTripleTermsLocked is IsTripleTerms with the model resolved and s.mu
// held (either mode).
func (s *Store) isTripleTermsLocked(mid int64, sub, prop, obj rdfterm.Term) (TripleS, bool, error) {
	sid, ok := s.lookupResolvedIDLocked(mid, sub)
	if !ok {
		return TripleS{}, false, nil
	}
	pid, ok := s.lookupValueIDLocked(prop)
	if !ok {
		return TripleS{}, false, nil
	}
	canonID, ok := s.lookupCanonIDLocked(mid, obj)
	if !ok {
		return TripleS{}, false, nil
	}
	rid, ok := s.linkSMPO.LookupInts(sid, mid, pid, canonID)
	if !ok {
		return TripleS{}, false, nil
	}
	ts, err := s.tripleSAtLocked(rid)
	return ts, err == nil, err
}

// lookupResolvedIDLocked maps a term (resolving model-scoped blank labels,
// without allocating) to its VALUE_ID. Blank labels are first resolved
// through rdf_blank_node$ (user labels); labels that are already internal
// (e.g. a blank node read back from query results and used as a
// constraint) fall back to direct value lookup.
func (s *Store) lookupResolvedIDLocked(modelID int64, t rdfterm.Term) (int64, bool) {
	if t.Kind == rdfterm.Blank {
		if rid, ok := s.blankPK.LookupOne(reldb.Key{reldb.Int(modelID), reldb.String_(t.Value)}); ok {
			r, err := s.blanks.Get(rid)
			if err != nil {
				return 0, false
			}
			return r[2].Int64(), true
		}
		return s.lookupValueIDLocked(t)
	}
	return s.lookupValueIDLocked(t)
}

// lookupCanonIDLocked returns the VALUE_ID of the canonical form of an object
// term (what CANON_END_NODE_ID stores).
func (s *Store) lookupCanonIDLocked(modelID int64, obj rdfterm.Term) (int64, bool) {
	if obj.Kind == rdfterm.Blank {
		return s.lookupResolvedIDLocked(modelID, obj)
	}
	return s.lookupValueIDLocked(rdfterm.Canonical(obj))
}
