package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/rdfterm"
	"repro/internal/trace"
)

// Bulk-insert fast path. The per-triple insert path takes the store's
// write lock, updates every index, and pays a WAL commit (an fsync, when
// durable) for every statement; at UniProt scale (§7.1.1, millions of
// triples) that is latency-bound, not bandwidth-bound. InsertBatch
// amortizes all three costs: one lock acquisition, one WAL record group,
// one commit point per batch.

// BatchTriple is one statement queued for InsertBatch.
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

// InsertBatch inserts a batch of triples under a single write-lock
// acquisition and a single WAL commit point. The batch runs in two
// phases, mirroring the §4.1 pipeline at batch granularity: every
// distinct term across the batch is interned into rdf_value$ first
// (repeats hit the term dictionary), then the rdf_link$ rows are inserted.
// The WAL sees one record group ending in one Commit, so a crash either
// keeps the whole batch or replays a consistent prefix of it.
//
// On error the store keeps the entries already applied (each is
// individually consistent) and the WAL is left uncommitted; the error
// identifies the failing entry by batch index.
func (s *Store) InsertBatch(model string, batch []BatchTriple) (BatchResult, error) {
	return s.InsertBatchCtx(context.Background(), model, batch)
}

// InsertBatchCtx is InsertBatch under a request context. The context is
// not consulted for cancellation — a batch is one commit point and runs
// to completion once the write lock is held — but a span in ctx (see
// internal/trace) records the batch's phases: intern, links, and the
// WAL commit, each with its row counts. Without a span the batch never
// reads the clock beyond its existing metrics, preserving the
// zero-overhead-when-disabled budget.
func (s *Store) InsertBatchCtx(ctx context.Context, model string, batch []BatchTriple) (BatchResult, error) {
	if len(batch) == 0 {
		return BatchResult{}, nil
	}
	t0 := s.met.startTimer()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.onWriteLockAcquired(t0)
	s.met.onBatch(len(batch))
	sp := trace.FromContext(ctx)
	var batchStart, phaseStart time.Time
	if sp != nil {
		batchStart = time.Now()
		phaseStart = batchStart
	}
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return BatchResult{}, err
	}

	// Phase 1: intern. After this loop every VALUE_ID the batch needs
	// exists, so the link phase is pure index-and-insert work.
	interned := make([]internedTriple, len(batch))
	for i, bt := range batch {
		it, err := s.internTripleLocked(mid, bt.Subject, bt.Predicate, bt.Object)
		if err != nil {
			err = fmt.Errorf("core: batch entry %d: %w", i, err)
			s.spanBatch(sp, batchStart, []batchPhase{{"core.intern", phaseStart, since(sp, phaseStart), nil, true}}, len(batch), err)
			return BatchResult{}, err
		}
		interned[i] = it
	}
	var phases []batchPhase
	if sp != nil {
		now := time.Now()
		phases = append(phases, batchPhase{"core.intern", phaseStart, now.Sub(phaseStart),
			map[string]string{"triples": strconv.Itoa(len(batch))}, false})
		phaseStart = now
	}

	// Phase 2: links.
	res := BatchResult{Triples: make([]TripleS, len(batch))}
	for i, it := range interned {
		context := ContextDirect
		if batch[i].Implied {
			context = ContextIndirect
		}
		ts, created, err := s.insertLinkLocked(mid, it, context)
		if err != nil {
			err = fmt.Errorf("core: batch entry %d: %w", i, err)
			s.spanBatch(sp, batchStart, append(phases, batchPhase{"core.links", phaseStart, since(sp, phaseStart), nil, true}), len(batch), err)
			return res, err
		}
		res.Triples[i] = ts
		if created {
			res.NewLinks++
		}
	}
	s.met.setTriples(s.links.Len())
	if sp != nil {
		now := time.Now()
		phases = append(phases, batchPhase{"core.links", phaseStart, now.Sub(phaseStart),
			map[string]string{"new_links": strconv.Itoa(res.NewLinks)}, false})
		phaseStart = now
	}
	err = s.logCommit()
	if sp != nil {
		phases = append(phases, batchPhase{"core.wal_commit", phaseStart, time.Since(phaseStart), nil, err != nil})
		s.spanBatch(sp, batchStart, phases, len(batch), err)
	}
	return res, err
}

// batchPhase is one timed InsertBatch phase awaiting span attachment.
type batchPhase struct {
	name   string
	start  time.Time
	d      time.Duration
	attrs  map[string]string
	failed bool
}

// spanBatch attaches the batch's phase spans under one
// "core.insert_batch" grouping span. No-op without a span.
func (s *Store) spanBatch(sp *trace.Span, start time.Time, phases []batchPhase, n int, err error) {
	if sp == nil {
		return
	}
	attrs := map[string]string{"triples": strconv.Itoa(n)}
	if err != nil {
		attrs["error"] = err.Error()
	}
	b := sp.AddCompleted("core.insert_batch", start, time.Since(start), attrs, err != nil)
	for _, p := range phases {
		b.AddCompleted(p.name, p.start, p.d, p.attrs, p.failed)
	}
}

// since is time.Since gated on a span being present, so untraced paths
// never read the clock.
func since(sp *trace.Span, t time.Time) time.Duration {
	if sp == nil {
		return 0
	}
	return time.Since(t)
}
