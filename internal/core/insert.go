package core

import (
	"errors"
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
	sub, prop, obj, err := parseTripleDB(subject, property, object, aliases)
	if err != nil {
		return TripleS{}, err
	}
	return s.InsertTerms(model, sub, prop, obj)
}

// parseTripleDB parses a triple's three strings, recognizing DBUri
// resources in subject and object position as URIs.
func parseTripleDB(subject, property, object string, aliases *rdfterm.AliasSet) (sub, prop, obj rdfterm.Term, err error) {
	if sub, err = parseSubjectDB(subject, aliases); err != nil {
		return sub, prop, obj, err
	}
	if prop, err = rdfterm.ParsePredicate(property, aliases); err != nil {
		return sub, prop, obj, err
	}
	obj, err = parseObjectDB(object, aliases)
	return sub, prop, obj, err
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
	return s.insertAs(model, sub, prop, obj, ContextDirect)
}

// InsertImplied inserts a triple as an indirect statement (CONTEXT = "I",
// §5.2) — a statement that exists only as the base of a reification. If
// the triple already exists its context is untouched.
func (s *Store) InsertImplied(model string, sub, prop, obj rdfterm.Term) (TripleS, error) {
	return s.insertAs(model, sub, prop, obj, ContextIndirect)
}

// insertAs inserts one triple with the given CONTEXT as one transaction.
func (s *Store) insertAs(model string, sub, prop, obj rdfterm.Term, context string) (TripleS, error) {
	var ts TripleS
	err := s.write(func() error {
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}
		ts, _, err = s.insertLocked(mid, sub, prop, obj, context)
		return err
	})
	return ts, err
}

// internedTriple carries one triple between the two phases of an insert:
// the interned VALUE_IDs and the two rdf_link$ columns derived from the
// terms' text, so the link phase needs no text. Batch inserts run the
// intern phase over the whole batch before touching rdf_link$.
type internedTriple struct {
	sid, pid, oid int64
	canonID       int64
	linkType      string // LINK_TYPE
	reif          bool   // REIF_LINK
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
		linkType: rdfterm.LinkType(prop.Value), reif: reifLink(sub, prop, obj),
	}, nil
}

// insertLinkLocked is the link phase: with all values interned, emit the
// new rdf_link$ row, or — when the applier's one descent of the SMPO
// index finds the triple already stored — the COST bump of the link that
// holds it. Caller holds s.mu for writing.
func (s *Store) insertLinkLocked(modelID int64, it internedTriple, context string) (TripleS, bool, error) {
	// A link is always created per new triple (§4), under the next
	// LINK_ID; the sequence moves only if the row goes in.
	r := wal.Record{
		Type: wal.TypeInsertLink, LinkID: s.linkSeq.Current(), ModelID: modelID,
		StartID: it.sid, PropID: it.pid, EndID: it.oid, CanonID: it.canonID,
		LinkType: it.linkType, Cost: 1, Context: context, Reif: it.reif,
	}
	err := s.emitLocked(&r)
	if errors.Is(err, errLinkStored) {
		return s.repeatLinkLocked(r.LinkID, context) // r.LinkID names the stored link
	}
	if err != nil {
		return TripleS{}, false, err
	}
	return TripleS{store: s, TID: r.LinkID, MID: modelID, SID: it.sid, PID: it.pid, OID: it.oid}, true, nil
}

// repeatLinkLocked records one more insert of the triple already stored
// as link linkID: COST is bumped (§4: "the number of times the triple is
// stored in an application table") and an indirect statement now
// asserted as fact is upgraded I → D (§5.2). Neither column is indexed, so
// no index is touched. Caller holds s.mu for writing.
func (s *Store) repeatLinkLocked(linkID int64, context string) (TripleS, bool, error) {
	rid, ok := s.linkPK.LookupInts(linkID)
	if !ok {
		return TripleS{}, false, fmt.Errorf("%w: LINK_ID %d", ErrNoSuchTriple, linkID)
	}
	var ts TripleS
	var cost int64
	var linkCtx string
	if err := s.links.Read(rid, func(c reldb.Cells) {
		ts, cost, linkCtx = s.tripleSFromCells(c), c.Int(lcCost), c.Str(lcContext)
	}); err != nil {
		return TripleS{}, false, err
	}
	if context == ContextDirect {
		linkCtx = ContextDirect
	}
	if err := s.emitLocked(&wal.Record{
		Type: wal.TypeUpdateLink, LinkID: linkID, Cost: cost + 1, Context: linkCtx,
	}); err != nil {
		return TripleS{}, false, err
	}
	return ts, false, nil
}

// reifLink reports whether any component references a reified triple via
// a DBUri (the REIF_LINK column, §4).
func reifLink(terms ...rdfterm.Term) bool {
	for _, t := range terms {
		if t.Kind == rdfterm.URI {
			if _, ok := ParseDBUri(t.Value); ok {
				return true
			}
		}
	}
	return false
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
	// The internal label consumed a blank-sequence slot; persist the
	// position so a replayed store never re-issues it.
	if err := s.emitLocked(&wal.Record{
		Type: wal.TypeSeqAdvance, Seq: wal.SeqBlank, SeqValue: s.blankSeq.Current(),
	}); err != nil {
		return rdfterm.Term{}, err
	}
	if err := s.emitLocked(&wal.Record{
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
	var t rdfterm.Term
	err := s.write(func() error {
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}
		t, err = s.newBlankNodeLocked(mid)
		return err
	})
	return t, err
}

// newBlankNodeLocked is NewBlankNode with the model resolved and s.mu
// held for writing.
func (s *Store) newBlankNodeLocked(modelID int64) (rdfterm.Term, error) {
	// The label slot consumed here is covered by the SeqAdvance record
	// resolveBlankLocked emits after its own (later) allocation.
	label := "m" + strconv.FormatInt(modelID, 10) + "b" + strconv.FormatInt(s.blankSeq.Next(), 10)
	return s.resolveBlankLocked(modelID, rdfterm.NewBlank(label))
}

// DeleteTriple removes one application-table reference to a triple: the
// link's COST is decremented, and when it reaches zero the link row is
// removed. Nodes are removed only when no other link references them (§4).
func (s *Store) DeleteTriple(model, subject, property, object string, aliases *rdfterm.AliasSet) error {
	sub, prop, obj, err := parseTripleDB(subject, property, object, aliases)
	if err != nil {
		return err
	}
	return s.write(func() error {
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
	})
}

// deleteByLinkIDLocked emits the COST decrement of link linkID, or its
// delete once no other reference is left. Caller holds s.mu for writing.
func (s *Store) deleteByLinkIDLocked(linkID int64) error {
	rid, ok := s.linkPK.LookupInts(linkID)
	if !ok {
		return fmt.Errorf("%w: LINK_ID %d", ErrNoSuchTriple, linkID)
	}
	var cost int64
	var linkCtx string
	if err := s.links.Read(rid, func(c reldb.Cells) { cost, linkCtx = c.Int(lcCost), c.Str(lcContext) }); err != nil {
		return err
	}
	if cost > 1 {
		return s.emitLocked(&wal.Record{Type: wal.TypeUpdateLink, LinkID: linkID, Cost: cost - 1, Context: linkCtx})
	}
	return s.emitLocked(&wal.Record{Type: wal.TypeDeleteLink, LinkID: linkID})
}

// IsTriple reports whether the triple exists in the model, returning its
// storage object — the paper's SDO_RDF.IS_TRIPLE().
func (s *Store) IsTriple(model, subject, property, object string, aliases *rdfterm.AliasSet) (TripleS, bool, error) {
	sub, prop, obj, err := parseTripleDB(subject, property, object, aliases)
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
