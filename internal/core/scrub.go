package core

import (
	"context"
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// Sliced background scrubbing. A full CheckInvariants pass holds the read
// lock for the whole store scan, which starves writers on large stores. A
// Scrub runs the same checks in bounded slices: each Step takes the read
// lock, audits at most one slice of rdf_link$ rows (by LINK_ID cursor),
// and releases the lock, so writers interleave freely between slices.
//
// Per-row checks (dangling value IDs, COST, CONTEXT/REIF_LINK domains,
// LINK_TYPE vs. predicate, MODEL_ID resolution) are validated under the
// same lock hold that read the row, so they are sound regardless of
// concurrent mutation. Cross-row checks (duplicate MSPO keys, the
// rdf_node$ set matching link usage) compare rows observed under
// different lock holds; if the store changed between slices they can
// misfire, so the Scrub tracks a cheap epoch (sequence cursors + table
// lengths) and quarantines the cross-row findings of any sweep the epoch
// invalidates, reporting Interrupted instead of false violations.
//
// The sweep also accumulates per-model Statistics — the scrubber is the
// "periodically run CheckInvariants and ModelStatistics" loop of the
// supervisor — which inherit the same caveat: on an interrupted sweep
// they describe a smear of store states, not one snapshot.

// ScrubReport summarizes one completed sweep.
type ScrubReport struct {
	Slices     int                   // lock acquisitions used by the sweep
	Links      int                   // rdf_link$ rows audited
	Violations []error               // invariant violations found
	Stats      map[string]Statistics // per-model statistics (by model name)
	// Interrupted is true when mutations landed between slices: cross-row
	// checks were skipped (their findings could be stale) and Stats spans
	// several store states. Per-row violations are still reliable.
	Interrupted bool
}

// Scrub is one in-progress sweep. Not safe for concurrent use; create
// with NewScrub and call Step until it reports done (or use ScrubPass).
type Scrub struct {
	s     *Store
	slice int

	started bool
	done    bool
	cursor  int64      // next LINK_ID to audit
	epoch   scrubEpoch // store epoch at the previous slice boundary
	dirty   bool       // epoch changed mid-sweep

	audit  *linkAudit
	stats  map[int64]*Statistics
	report ScrubReport
	dups   []error // quarantined cross-row findings (kept only if clean)
}

// scrubEpoch is a cheap fingerprint of store mutation state: every
// mutation either allocates from a sequence or changes a table length,
// so an unchanged epoch across a slice boundary means no mutation
// committed in between.
type scrubEpoch struct {
	valueSeq, linkSeq, modelSeq, blankSeq  int64
	links, nodes, values, models, blankLen int
}

// NewScrub starts a sweep auditing at most slice links per Step.
// slice <= 0 selects a default sized so typical stores finish in a few
// hundred lock acquisitions.
func (s *Store) NewScrub(slice int) *Scrub {
	if slice <= 0 {
		slice = 1024
	}
	return &Scrub{
		s:     s,
		slice: slice,
		audit: newLinkAudit(),
		stats: map[int64]*Statistics{},
	}
}

// epochLocked snapshots the mutation fingerprint. Caller holds s.mu.
func (s *Store) epochLocked() scrubEpoch {
	return scrubEpoch{
		valueSeq: s.valueSeq.Current(),
		linkSeq:  s.linkSeq.Current(),
		modelSeq: s.modelSeq.Current(),
		blankSeq: s.blankSeq.Current(),
		links:    s.links.Len(),
		nodes:    s.nodes.Len(),
		values:   s.values.Len(),
		models:   s.models.Len(),
		blankLen: s.blanks.Len(),
	}
}

// Step audits the next slice under one read-lock hold and reports
// whether the sweep is complete. After it returns true, Report holds the
// final result and further Steps are no-ops.
func (sc *Scrub) Step() bool {
	if sc.done {
		return true
	}
	s := sc.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	sc.report.Slices++

	// Mutations cannot land while we hold the read lock, so the epoch
	// observed here also describes the store at the end of this slice.
	now := s.epochLocked()
	if sc.started && now != sc.epoch {
		sc.dirty = true
	}
	sc.started = true
	sc.epoch = now

	addf := func(format string, args ...interface{}) {
		sc.report.Violations = append(sc.report.Violations, fmt.Errorf(format, args...))
	}
	dupf := func(format string, args ...interface{}) {
		sc.dups = append(sc.dups, fmt.Errorf(format, args...))
	}

	// Audit up to slice links starting at the cursor. The LINK_ID cursor
	// is stable across mutations: deletions skip ahead harmlessly and
	// insertions always allocate IDs past any cursor that has already
	// swept them (sequence IDs are never reused).
	n := 0
	s.linkPK.Scan(reldb.Key{reldb.Int(sc.cursor)}, nil, func(key reldb.Key, rid reldb.RowID) bool {
		sc.cursor = key[0].Int64() + 1
		n++
		sc.report.Links++
		if err := s.links.Read(rid, func(c reldb.Cells) {
			s.checkLinkLocked(c, sc.audit, addf, dupf)
			sc.statLocked(c)
		}); err != nil {
			addf("link %d: indexed in rdf_link$ PK but unreadable: %v", key[0].Int64(), err)
		}
		return n < sc.slice
	})
	if n == sc.slice {
		return false // more links remain (or the slice ended exactly at the tail; next Step finishes)
	}

	// Tail reached: finish with the cross-row and small-table checks.
	if sc.dirty {
		sc.report.Interrupted = true
	} else {
		sc.report.Violations = append(sc.report.Violations, sc.dups...)
		s.checkNodeSetLocked(sc.audit, addf)
	}
	s.checkBlanksLocked(addf)
	s.checkDictionaryLocked(addf)
	sc.resolveStatsLocked()
	sc.done = true
	return true
}

// statLocked folds one link row into the per-model statistics, mirroring
// ModelStatistics. Caller holds s.mu.
func (sc *Scrub) statLocked(r reldb.Cells) {
	s := sc.s
	mid := r.Int(lcModelID)
	st := sc.stats[mid]
	if st == nil {
		st = &Statistics{ByLinkType: map[string]int{}}
		sc.stats[mid] = st
	}
	st.Triples++
	st.ByLinkType[r.Str(lcLinkType)]++
	switch r.Str(lcContext) {
	case ContextDirect:
		st.Direct++
	case ContextIndirect:
		st.Indirect++
	}
	if r.Str(lcReifLink) != "Y" {
		return
	}
	// Reification rows specifically: DBUri subject, rdf:type predicate,
	// rdf:Statement object. Unresolvable IDs are already reported as
	// dangling by checkLinkLocked; skip them here without double-reporting.
	sub, err := s.getValueLocked(r.Int(lcStartNodeID))
	if err != nil {
		return
	}
	if _, isDBUri := ParseDBUri(sub.Value); !isDBUri {
		return
	}
	prop, err := s.getValueLocked(r.Int(lcPValueID))
	if err != nil || prop.Value != rdfterm.RDFType {
		return
	}
	obj, err := s.getValueLocked(r.Int(lcEndNodeID))
	if err != nil || obj.Value != rdfterm.RDFStatement {
		return
	}
	st.Reified++
}

// resolveStatsLocked converts the per-model-ID accumulators into the
// by-name report map. Models dropped mid-sweep keep a numeric key so
// their counts aren't silently lost. Caller holds s.mu.
func (sc *Scrub) resolveStatsLocked() {
	sc.report.Stats = make(map[string]Statistics, len(sc.stats))
	for mid, st := range sc.stats {
		name := fmt.Sprintf("#%d", mid)
		if rid, ok := sc.s.modelPK.LookupInts(mid); ok {
			if r, err := sc.s.models.Get(rid); err == nil {
				name = r[mcModelName].Str()
			}
		}
		sc.report.Stats[name] = *st
	}
}

// Report returns the sweep result; meaningful once Step has returned
// true (partial counts before that).
func (sc *Scrub) Report() ScrubReport { return sc.report }

// ScrubPass runs a complete sweep, yielding the read lock between slices
// and polling ctx at each boundary. This is the scrubber's unit of work:
// the supervisor calls it on a timer and escalates on Violations.
func (s *Store) ScrubPass(ctx context.Context, slice int) (ScrubReport, error) {
	sc := s.NewScrub(slice)
	for !sc.Step() {
		if err := ctx.Err(); err != nil {
			return sc.Report(), fmt.Errorf("core: scrub: %w", err)
		}
	}
	return sc.Report(), nil
}
