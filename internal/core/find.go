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

// Find returns every triple in the model matching the pattern, choosing
// the best available index: (S,M[,P[,O]]) prefix on the unique SMPO index,
// (M,P) on the predicate index, (O-canon,M) on the object index, falling
// back to a partition-pruned scan for fully unbound patterns.
func (s *Store) Find(model string, pat Pattern) ([]TripleS, error) {
	return s.FindCtx(context.Background(), model, pat)
}

// FindCtx is Find with cancellation: the scan aborts (returning ctx.Err
// wrapped) as soon as ctx is done, checking every cancelEvery rows, so a
// runaway query releases the read lock promptly after a cancel or
// deadline.
func (s *Store) FindCtx(ctx context.Context, model string, pat Pattern) ([]TripleS, error) {
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

// FindModels runs Find over several models, concatenating results — the
// multi-model scope of SDO_RDF_MATCH (§6.1). The whole call holds one
// read lock: all model names are resolved up front (an unknown model
// fails before any scanning), and a concurrent writer cannot commit
// between the per-model scans, so the result is a consistent snapshot
// across every model in the list.
func (s *Store) FindModels(models []string, pat Pattern) ([]TripleS, error) {
	return s.FindModelsCtx(context.Background(), models, pat)
}

// FindModelsCtx is FindModels with cancellation (see FindCtx).
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
	// Resolve constrained term IDs; a constrained term that is not interned
	// matches nothing.
	var sid, pid, oid int64
	if pat.Subject != nil {
		var ok bool
		if sid, ok = s.lookupResolvedIDLocked(mid, *pat.Subject); !ok {
			return nil, nil
		}
	}
	if pat.Predicate != nil {
		var ok bool
		if pid, ok = s.lookupValueIDLocked(*pat.Predicate); !ok {
			return nil, nil
		}
	}
	if pat.Object != nil {
		var ok bool
		if oid, ok = s.lookupCanonIDLocked(mid, *pat.Object); !ok {
			return nil, nil
		}
	}

	// scanned counts visited rows; the context is polled every cancelEvery
	// increments.
	scanned := 0
	var ctxErr error
	tick := func() bool {
		scanned++
		if scanned%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = fmt.Errorf("core: find: %w", err)
				return false
			}
		}
		return true
	}

	// Each index scan hands over the live row's cells with its entry. Only the
	// residual check runs per row — the one component the index prefix
	// does NOT already guarantee: one baked into the scanned prefix is
	// equal on every row the scan returns.
	var out []TripleS
	collect := func(ix *reldb.Index, checkO bool, prefix ...int64) ([]TripleS, error) {
		ix.ScanIntsCells(prefix, func(c reldb.Cells) bool {
			if !checkO || c.Int(lcCanonEndNodeID) == oid {
				out = append(out, s.tripleSFromCells(c))
			}
			return tick()
		})
		if ctxErr != nil {
			return nil, ctxErr
		}
		return out, nil
	}

	switch {
	case pat.Subject != nil && pat.Predicate != nil && pat.Object != nil:
		return collect(s.linkSMPO, false, sid, mid, pid, oid)
	case pat.Subject != nil && pat.Predicate != nil:
		return collect(s.linkSMPO, false, sid, mid, pid)
	case pat.Subject != nil:
		// The prefix cannot skip the P column to reach O: O is residual.
		return collect(s.linkSMPO, pat.Object != nil, sid, mid)
	case pat.Predicate != nil:
		// MP prefix covers (M,P); O is residual.
		return collect(s.linkMP, pat.Object != nil, mid, pid)
	case pat.Object != nil:
		// OM prefix covers (O-canon,M); nothing else is bound.
		return collect(s.linkOM, false, oid, mid)
	default:
		err := s.links.ScanPartitionCells(mid, func(c reldb.Cells) bool {
			out = append(out, s.tripleSFromCells(c))
			return tick()
		})
		if ctxErr != nil {
			return nil, ctxErr
		}
		return out, err
	}
}

// FindBySubjectText is the paper's Experiment II query shape: all triples
// of a model whose subject text equals subject. It exercises the member-
// function access path (value lookup → link index prefix scan).
func (s *Store) FindBySubjectText(model, subject string) ([]Triple, error) {
	return s.FindBySubjectTextCtx(context.Background(), model, subject)
}

// FindBySubjectTextCtx is FindBySubjectText with cancellation (see
// FindCtx).
func (s *Store) FindBySubjectTextCtx(ctx context.Context, model, subject string) ([]Triple, error) {
	ts, err := s.FindCtx(ctx, model, Pattern{Subject: P(rdfterm.NewURI(subject))})
	if err != nil {
		return nil, err
	}
	out := make([]Triple, 0, len(ts))
	for _, t := range ts {
		tr, err := t.GetTriple()
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}
