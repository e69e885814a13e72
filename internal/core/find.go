package core

import (
	"context"
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// Pattern is a triple pattern for Find: nil components are wildcards.
// Object constraints match on canonical form (CANON_END_NODE_ID), so
// "01"^^xsd:int finds triples stored as "1"^^xsd:int.
type Pattern struct {
	Subject   *rdfterm.Term
	Predicate *rdfterm.Term
	Object    *rdfterm.Term
}

// P returns a pointer to a term, for building patterns inline.
func P(t rdfterm.Term) *rdfterm.Term { return &t }

// cancelEvery is how many scanned rows a read path processes between
// context checks. Small enough that cancellation lands within a fraction
// of a millisecond on any pattern shape, large enough that the check is
// invisible in scan throughput.
const cancelEvery = 256

// Find returns every triple in the model matching the pattern, reading
// rdf_link$ through the access-path table of scanLinksLocked: an
// (S,M[,P[,O]]) prefix of the unique SMPO index, (M,P) on the predicate
// index, (O-canon,M) on the object index, or the model's partition for a
// fully unbound pattern. The scan aborts (returning ctx.Err wrapped) as
// soon as ctx is done, checking every cancelEvery rows, so a runaway query
// releases the read lock promptly after a cancel or deadline.
func (s *Store) Find(ctx context.Context, model string, pat Pattern) ([]TripleS, error) {
	t0 := s.met.startTimer()
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.met.onReadLockAcquired(t0)
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return nil, err
	}
	return s.findModelLocked(ctx, mid, pat)
}

// FindModelsCtx runs Find over several models, concatenating results — the
// multi-model scope of SDO_RDF_MATCH (§6.1). The whole call holds one
// read lock: all model names are resolved up front (an unknown model
// fails before any scanning), and a concurrent writer cannot commit
// between the per-model scans, so the result is a consistent snapshot
// across every model in the list. It polls ctx as Find does.
func (s *Store) FindModelsCtx(ctx context.Context, models []string, pat Pattern) ([]TripleS, error) {
	t0 := s.met.startTimer()
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.met.onReadLockAcquired(t0)
	mids := make([]int64, len(models))
	for i, m := range models {
		mid, err := s.getModelIDLocked(m)
		if err != nil {
			return nil, err
		}
		mids[i] = mid
	}
	var out []TripleS
	for _, mid := range mids {
		ts, err := s.findModelLocked(ctx, mid, pat)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// findModelLocked executes the pattern match with s.mu held (either mode).
// The scan polls ctx every cancelEvery rows and aborts with a wrapped
// ctx.Err() when it fires.
func (s *Store) findModelLocked(ctx context.Context, mid int64, pat Pattern) ([]TripleS, error) {
	sid, pid, oid, ok := s.patternIDsLocked(mid, pat)
	if !ok {
		return nil, nil
	}
	// scanned counts visited rows; the context is polled every cancelEvery
	// increments.
	scanned := 0
	tick := func() error {
		scanned++
		if scanned%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: find: %w", err)
			}
		}
		return nil
	}
	var out []TripleS
	if err := s.scanLinksLocked(mid, sid, pid, oid, tick, func(c reldb.Cells) bool {
		out = append(out, s.tripleSFromCells(c))
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// patternIDsLocked resolves pat's constrained terms in model mid to the
// (sid, pid, canon) IDs scanLinksLocked takes, 0 for a wildcard. A
// constrained term that is not interned matches nothing: ok is false.
// Caller holds s.mu.
func (s *Store) patternIDsLocked(mid int64, pat Pattern) (sid, pid, canon int64, ok bool) {
	if pat.Subject != nil {
		if sid, ok = s.lookupResolvedIDLocked(mid, *pat.Subject); !ok {
			return 0, 0, 0, false
		}
	}
	if pat.Predicate != nil {
		if pid, ok = s.lookupValueIDLocked(*pat.Predicate); !ok {
			return 0, 0, 0, false
		}
	}
	if pat.Object != nil {
		if canon, ok = s.lookupCanonIDLocked(mid, *pat.Object); !ok {
			return 0, 0, 0, false
		}
	}
	return sid, pid, canon, true
}

// scanLinksLocked is the access-path table of rdf_link$: it hands fn every
// live row of model mid matching (sid, pid, canon) — 0 leaves a position
// unconstrained; canon is a CANON_END_NODE_ID — scanning the tree the
// bound positions pick:
//
//	s bound        SMPO by its longest bound prefix; with p unbound the
//	               prefix cannot reach O, so O is residual
//	p and o bound  MP or OM, whichever the model's statistics expect to
//	               be shorter, with the other column residual
//	p bound        MP
//	o bound        OM
//	nothing        the model's partition
//
// Residual columns are checked here, so fn sees exact matches only; fn
// returns false to stop the scan early (a capped reader holds enough).
// tick runs once per visited row, before the residual check; an error
// from it stops the scan and is returned. Find, export and the query
// engine all read rdf_link$ through this one table. Caller holds s.mu
// (either mode).
func (s *Store) scanLinksLocked(mid, sid, pid, canon int64, tick func() error, fn func(reldb.Cells) bool) error {
	var err error
	var checkP, checkO bool
	visit := func(c reldb.Cells) bool {
		if err = tick(); err != nil {
			return false
		}
		if (!checkP || c.Int(lcPValueID) == pid) && (!checkO || c.Int(lcCanonEndNodeID) == canon) {
			return fn(c)
		}
		return true
	}
	switch {
	case sid != 0 && pid != 0 && canon != 0:
		s.linkSMPO.ScanIntsCells([]int64{sid, mid, pid, canon}, visit)
	case sid != 0 && pid != 0:
		s.linkSMPO.ScanIntsCells([]int64{sid, mid, pid}, visit)
	case sid != 0:
		checkO = canon != 0
		s.linkSMPO.ScanIntsCells([]int64{sid, mid}, visit)
	case pid != 0 && canon != 0:
		// No (M,P,O) tree exists: compare the predicate's link count with
		// the model's average per-object fanout. Stale statistics only
		// cost speed — the residual check keeps matches exact either way.
		ps := s.planStatsLocked(mid)
		if float64(ps.Triples)/float64(max(1, ps.DistinctObjects)) < float64(ps.Pred(pid).Count) {
			checkP = true
			s.linkOM.ScanIntsCells([]int64{canon, mid}, visit)
		} else {
			checkO = true
			s.linkMP.ScanIntsCells([]int64{mid, pid}, visit)
		}
	case pid != 0:
		s.linkMP.ScanIntsCells([]int64{mid, pid}, visit)
	case canon != 0:
		s.linkOM.ScanIntsCells([]int64{canon, mid}, visit)
	default:
		if perr := s.links.ScanPartitionCells(mid, visit); perr != nil {
			return perr
		}
	}
	return err
}
