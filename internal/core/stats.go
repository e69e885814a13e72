package core

import (
	"context"
	"sync"

	"repro/internal/reldb"
)

// PredStats summarizes one predicate within one model: how many links use
// it and how many distinct subjects / distinct canonical objects those
// links touch. These are the per-predicate histograms a relational
// optimizer would keep on rdf_link$ (§7), driving the match planner's
// selectivity estimates.
type PredStats struct {
	Count            int
	DistinctSubjects int
	DistinctObjects  int
}

// PlanStats summarizes one model's rdf_link$ partition for the query
// planner: total link count, model-wide distinct subject / canonical
// object cardinalities, and per-predicate PredStats. A PlanStats is
// immutable once built; staleness is handled by rebuilding a fresh one.
type PlanStats struct {
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
	Preds            map[int64]PredStats

	// builtLen is the model's partition length at build time; the cache
	// rebuilds when the live length drifts more than 1/8 from it. The
	// partition's zone map keeps its live count, so the check is O(1) and
	// a model growing inside a larger store is noticed on its own.
	builtLen int
}

// Pred returns the stats for one predicate VALUE_ID (zero stats when the
// predicate does not occur in the model).
func (ps *PlanStats) Pred(pid int64) PredStats {
	if ps == nil {
		return PredStats{}
	}
	return ps.Preds[pid]
}

// planStatsCache holds per-model PlanStats behind its own leaf mutex. It
// is deliberately NOT guarded by Store.mu: queries consult it while
// holding the store read lock, and two readers may race to install a
// rebuilt entry (idempotent — both build from the same locked snapshot).
// The cache pointer itself is attach-before-share: set once in New, like
// Store.met.
type planStatsCache struct {
	mu      sync.Mutex
	byModel map[int64]*PlanStats
}

// statsDriftDenom: cached PlanStats are reused while the partition size
// stays within 1/statsDriftDenom of the size they were built at.
const statsDriftDenom = 8

// PlanStatsLocked returns planner statistics for one model, building or
// rebuilding them from a single partition scan when absent or stale. The
// returned PlanStats is immutable — callers may keep it for the duration
// of a query without re-checking.
func (tx *ReadTx) PlanStatsLocked(mid int64) *PlanStats {
	return tx.s.planStatsLocked(mid)
}

// planStatsLocked is PlanStatsLocked for the store's own read paths.
// Caller holds s.mu (either mode), so a build scans a consistent
// snapshot.
func (s *Store) planStatsLocked(mid int64) *PlanStats {
	cur := s.links.PartitionLen(mid)
	s.stats.mu.Lock()
	ps := s.stats.byModel[mid]
	s.stats.mu.Unlock()
	if ps != nil {
		drift := cur - ps.builtLen
		if drift < 0 {
			drift = -drift
		}
		if drift*statsDriftDenom <= ps.builtLen {
			return ps
		}
	}
	ps = s.buildPlanStatsLocked(mid)
	s.stats.mu.Lock()
	s.stats.byModel[mid] = ps
	s.stats.mu.Unlock()
	return ps
}

// buildPlanStatsLocked computes PlanStats in one pass over the model's
// rdf_link$ partition. The distinct-ID sets are transient build state;
// only their cardinalities are retained. Caller holds s.mu (either mode).
func (s *Store) buildPlanStatsLocked(mid int64) *PlanStats {
	ps := &PlanStats{Preds: map[int64]PredStats{}}
	type predSets struct {
		count int
		subj  map[int64]struct{}
		obj   map[int64]struct{}
	}
	per := map[int64]*predSets{}
	subjAll := map[int64]struct{}{}
	objAll := map[int64]struct{}{}
	_ = s.links.ScanPartitionCells(mid, func(c reldb.Cells) bool {
		sid := c.Int(lcStartNodeID)
		pid := c.Int(lcPValueID)
		oid := c.Int(lcCanonEndNodeID)
		ps.Triples++
		subjAll[sid] = struct{}{}
		objAll[oid] = struct{}{}
		pp := per[pid]
		if pp == nil {
			pp = &predSets{subj: map[int64]struct{}{}, obj: map[int64]struct{}{}}
			per[pid] = pp
		}
		pp.count++
		pp.subj[sid] = struct{}{}
		pp.obj[oid] = struct{}{}
		return true
	})
	for pid, pp := range per {
		ps.Preds[pid] = PredStats{
			Count:            pp.count,
			DistinctSubjects: len(pp.subj),
			DistinctObjects:  len(pp.obj),
		}
	}
	ps.DistinctSubjects = len(subjAll)
	ps.DistinctObjects = len(objAll)
	ps.builtLen = ps.Triples
	return ps
}

// PlanStatistics returns the planner statistics for a model — the public,
// self-locking view of PlanStatsLocked, for tools and tests.
func (s *Store) PlanStatistics(ctx context.Context, model string) (PlanStats, error) {
	var out PlanStats
	err := s.ReadView(ctx, func(tx *ReadTx) error {
		mid, err := tx.ModelIDLocked(model)
		if err != nil {
			return err
		}
		out = *tx.PlanStatsLocked(mid)
		return nil
	})
	return out, err
}
