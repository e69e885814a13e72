package core

import (
	"context"
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// LinkIDs is the bare ID tuple of one rdf_link$ row, as seen by the
// streaming query engine: the join columns only, no term text. CanonID is
// the CANON_END_NODE_ID (object joins match on canonical form, §6), OID
// the original END_NODE_ID used for display.
type LinkIDs struct {
	TID     int64 // LINK_ID
	SID     int64 // START_NODE_ID
	PID     int64 // P_VALUE_ID
	OID     int64 // END_NODE_ID
	CanonID int64 // CANON_END_NODE_ID
}

// ReadTx is a consistent read snapshot of the store: every method runs
// under the one store read lock held by ReadView, so a whole multi-pattern
// query sees a single snapshot and pays a single lock acquisition instead
// of one per probe. Methods carry the *Locked suffix per the repo's lock
// contract: they assume s.mu is held (read mode) and must only reach the
// store through other *Locked helpers, never through the locking entry
// points.
type ReadTx struct {
	s   *Store
	ctx context.Context
	// scanned counts rows visited across all scans in the view; the
	// context is polled every cancelEvery increments (see find.go).
	scanned int
}

// ReadView runs fn against a consistent snapshot of the store, holding the
// read lock for the duration. fn must not call locking Store methods (the
// RWMutex is not reentrant) — it reaches the data through the ReadTx. The
// lock is released when fn returns, so fn should honor tx cancellation
// promptly and must not retain the ReadTx.
func (s *Store) ReadView(ctx context.Context, fn func(tx *ReadTx) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: read view: %w", err)
	}
	t0 := s.met.startTimer()
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.met.onReadLockAcquired(t0)
	return fn(&ReadTx{s: s, ctx: ctx})
}

// tickLocked advances the scan row counter and polls the context every
// cancelEvery rows, so a runaway scan releases the read lock promptly
// after a cancel or deadline.
func (tx *ReadTx) tickLocked() error {
	tx.scanned++
	if tx.scanned%cancelEvery == 0 {
		if err := tx.ctx.Err(); err != nil {
			return fmt.Errorf("core: read view: %w", err)
		}
	}
	return nil
}

// ModelIDLocked resolves a model name within the snapshot.
func (tx *ReadTx) ModelIDLocked(name string) (int64, error) {
	return tx.s.getModelIDLocked(name)
}

// SubjectIDLocked resolves a term used in subject position to its
// VALUE_ID. Literals cannot be subjects (§3), and a term that is not
// interned matches nothing; both report false. Blank labels resolve
// model-scoped.
func (tx *ReadTx) SubjectIDLocked(mid int64, t rdfterm.Term) (int64, bool) {
	if t.Kind == rdfterm.Literal {
		return 0, false
	}
	return tx.s.lookupResolvedIDLocked(mid, t)
}

// PredicateIDLocked resolves a term used in predicate position. Only URIs
// can be predicates; anything else matches nothing.
func (tx *ReadTx) PredicateIDLocked(t rdfterm.Term) (int64, bool) {
	if t.Kind != rdfterm.URI {
		return 0, false
	}
	return tx.s.lookupValueIDLocked(t)
}

// ObjectCanonIDLocked resolves a term used in object position to the
// VALUE_ID of its canonical form (what CANON_END_NODE_ID stores), so
// "+025"^^xsd:int matches triples stored as "25"^^xsd:int.
func (tx *ReadTx) ObjectCanonIDLocked(mid int64, t rdfterm.Term) (int64, bool) {
	return tx.s.lookupCanonIDLocked(mid, t)
}

// ValueLocked reconstructs the term stored under a VALUE_ID.
func (tx *ReadTx) ValueLocked(id int64) (rdfterm.Term, error) {
	return tx.s.getValueLocked(id)
}

// ContainsLinkLocked reports whether the model holds a link with exactly
// these IDs — a single probe of the unique SMPO index, the Contains half
// of the engine's Next/Contains duality.
func (tx *ReadTx) ContainsLinkLocked(mid, sid, pid, canonID int64) bool {
	return tx.s.linkSMPO.ContainsInts(sid, mid, pid, canonID)
}

// CollectLinksLocked appends to dst the ID tuples of every link in model
// mid matching (sid, pid, canonID), where 0 means unconstrained, and
// returns the grown slice. It reads through scanLinksLocked, the same
// access-path table as Find, so callers get exact matches; the scan polls
// the view's context every cancelEvery rows.
func (tx *ReadTx) CollectLinksLocked(dst []LinkIDs, mid, sid, pid, canonID int64) ([]LinkIDs, error) {
	err := tx.s.scanLinksLocked(mid, sid, pid, canonID, tx.tickLocked, func(c reldb.Cells) {
		dst = append(dst, LinkIDs{
			TID:     c.Int(lcLinkID),
			SID:     c.Int(lcStartNodeID),
			PID:     c.Int(lcPValueID),
			OID:     c.Int(lcEndNodeID),
			CanonID: c.Int(lcCanonEndNodeID),
		})
	})
	return dst, err
}
