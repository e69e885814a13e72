package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/rdfterm"
	"repro/internal/trace"
)

// Bulk-insert fast path. Every public mutation is one transaction — one
// write-lock acquisition and one commit point (write) — so inserting
// triples one call at a time pays a WAL commit (an fsync, when durable)
// per statement; at UniProt scale (§7.1.1, millions of triples) that is
// latency-bound, not bandwidth-bound. InsertBatchCtx makes a whole batch
// one transaction, so the lock and the commit are paid once per batch.

// BatchTriple is one statement queued for InsertBatchCtx.
type BatchTriple struct {
	Subject   rdfterm.Term
	Predicate rdfterm.Term
	Object    rdfterm.Term
	// Implied inserts the triple as an indirect statement (CONTEXT = "I",
	// §5.2) — the base of a reification that was never asserted directly.
	Implied bool
}

// BatchResult reports what a batch did.
type BatchResult struct {
	// Triples holds the storage object for every input statement, in
	// input order (repeated statements share a TID with bumped COST).
	Triples []TripleS
	// NewLinks is the number of new rdf_link$ rows created.
	NewLinks int
}

// InsertBatchCtx inserts a batch of triples under a single write-lock
// acquisition and a single WAL commit point. The batch runs in two
// phases, mirroring the §4.1 pipeline at batch granularity: every
// distinct term across the batch is interned into rdf_value$ first
// (repeats hit the term dictionary), then the rdf_link$ rows are inserted.
// The WAL sees one record group sealed by one Commit, so a crash either
// keeps the whole batch or replays a consistent prefix of it.
//
// On error the store keeps the entries already applied (each is
// individually consistent) and the WAL is left uncommitted; the error
// identifies the failing entry by batch index.
//
// The context is not consulted for cancellation — a batch is one commit
// point and runs to completion once the write lock is held — but a span
// in ctx (see internal/trace) gets a "core.insert_batch" child recording
// the batch's phases: intern, links, and the WAL commit, each with its
// row counts. Without a span every span call is a nil no-op, so an
// untraced batch never reads the clock beyond its existing metrics.
func (s *Store) InsertBatchCtx(ctx context.Context, model string, batch []BatchTriple) (BatchResult, error) {
	if len(batch) == 0 {
		return BatchResult{}, nil
	}
	b := trace.FromContext(ctx).Child("core.insert_batch")
	b.SetInt("triples", int64(len(batch)))
	var res BatchResult
	var committing time.Time // when the records went to the commit point; traced only
	err := s.write(func() error {
		s.met.onBatch(len(batch))
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}

		// Phase 1: intern. After this loop every VALUE_ID the batch needs
		// exists, so the link phase is pure index-and-insert work.
		phase := b.Child("core.intern")
		interned := make([]internedTriple, len(batch))
		for i, bt := range batch {
			it, err := s.internTripleLocked(mid, bt.Subject, bt.Predicate, bt.Object)
			if err != nil {
				return endPhase(phase, fmt.Errorf("core: batch entry %d: %w", i, err))
			}
			interned[i] = it
		}
		phase.SetInt("triples", int64(len(batch)))
		phase.End()

		// Phase 2: links.
		phase = b.Child("core.links")
		res.Triples = make([]TripleS, len(batch))
		for i, it := range interned {
			context := ContextDirect
			if batch[i].Implied {
				context = ContextIndirect
			}
			ts, created, err := s.insertLinkLocked(mid, it, context)
			if err != nil {
				return endPhase(phase, fmt.Errorf("core: batch entry %d: %w", i, err))
			}
			res.Triples[i] = ts
			if created {
				res.NewLinks++
			}
		}
		phase.SetInt("new_links", int64(res.NewLinks))
		phase.End()
		if b != nil {
			committing = time.Now()
		}
		return nil
	})
	if !committing.IsZero() {
		b.AddCompleted("core.wal_commit", committing, time.Since(committing), nil, err != nil)
	}
	return res, endPhase(b, err)
}
