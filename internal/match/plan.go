package match

import "repro/internal/core"

// The planner. Pattern order dominates join cost: starting from the
// most selective pattern keeps every intermediate binding set small,
// and each later pattern should share a variable with the ones already
// run so it probes instead of re-scanning. The estimates come from
// core.PlanStats — per-predicate link counts and distinct
// subject/object cardinalities — under the usual independence
// assumptions. Statistics track each model's own partition, so zero
// totals mean the scoped models are empty and every order is as good
// as any other (ties keep query-text order).

// forcedOrder, when non-nil, replaces the greedy choice with a fixed
// execution order of pattern indexes, one per pattern. It is a test
// seam — the differential tests run every permutation of a query
// through the engine — and production leaves it nil.
var forcedOrder []int

// patIDs holds one pattern's concrete-term IDs resolved against one
// model: 0 where the position is a variable. ok is false when some
// concrete term cannot be resolved in the model (not interned, or a term
// kind impossible for its position) — the pattern matches nothing there.
type patIDs struct {
	ok              bool
	sid, pid, canon int64
}

// stagePlan is one pattern prepared for execution: its variable slots,
// its per-model concrete IDs, and the planner's cumulative output
// estimate.
type stagePlan struct {
	pi               int     // pattern index in the query text
	est              float64 // estimated OutBindings
	sVar, pVar, oVar int     // variable slots, -1 for concrete positions
	ids              []patIDs
}

// queryPlan is the executable plan: stages in execution order.
type queryPlan struct {
	stages []stagePlan
	// empty: some pattern cannot match in any scoped model, so the whole
	// conjunction is empty — no stage needs to run.
	empty bool
}

// buildPlan resolves every pattern's concrete terms against every scoped
// model and orders the stages by estimated cost. nvars is the size of the
// query's variable table; varIdx maps names to slots.
func buildPlan(tx *core.ReadTx, mids []int64, pats []TriplePattern, varIdx map[string]int, nvars int) queryPlan {
	stages := make([]stagePlan, len(pats))
	empty := false
	for i, pat := range pats {
		sp := stagePlan{pi: i, sVar: -1, pVar: -1, oVar: -1, ids: make([]patIDs, len(mids))}
		if pat.S.IsVar() {
			sp.sVar = varIdx[pat.S.Var]
		}
		if pat.P.IsVar() {
			sp.pVar = varIdx[pat.P.Var]
		}
		if pat.O.IsVar() {
			sp.oVar = varIdx[pat.O.Var]
		}
		anyOK := false
		//repro:vet-ignore viewcheck bounded per-pattern/per-model ID resolution, not a row scan; buildPlan has no error path to surface a cancel and the engine polls before the first stage runs
		for m, mid := range mids {
			ids := patIDs{ok: true}
			if !pat.S.IsVar() {
				var ok bool
				if ids.sid, ok = tx.SubjectIDLocked(mid, pat.S.Term); !ok {
					ids.ok = false
				}
			}
			if ids.ok && !pat.P.IsVar() {
				var ok bool
				if ids.pid, ok = tx.PredicateIDLocked(pat.P.Term); !ok {
					ids.ok = false
				}
			}
			if ids.ok && !pat.O.IsVar() {
				var ok bool
				if ids.canon, ok = tx.ObjectCanonIDLocked(mid, pat.O.Term); !ok {
					ids.ok = false
				}
			}
			sp.ids[m] = ids
			anyOK = anyOK || ids.ok
		}
		if !anyOK {
			empty = true
		}
		stages[i] = sp
	}

	return queryPlan{stages: costOrder(stages, gatherStats(tx, mids), nvars), empty: empty}
}

// aggStats is core.PlanStats summed across the query's scoped models, so
// estimates reflect the per-model union the engine executes.
type aggStats struct {
	total, ds, do int
	preds         map[int64]core.PredStats
}

func gatherStats(tx *core.ReadTx, mids []int64) aggStats {
	ag := aggStats{preds: map[int64]core.PredStats{}}
	//repro:vet-ignore viewcheck bounded per-model merge of cached planner statistics (PlanStatsLocked returns a prebuilt snapshot), not a row scan
	for _, mid := range mids {
		ps := tx.PlanStatsLocked(mid)
		ag.total += ps.Triples
		ag.ds += ps.DistinctSubjects
		ag.do += ps.DistinctObjects
		for pid, st := range ps.Preds {
			cur := ag.preds[pid]
			cur.Count += st.Count
			cur.DistinctSubjects += st.DistinctSubjects
			cur.DistinctObjects += st.DistinctObjects
			ag.preds[pid] = cur
		}
	}
	return ag
}

func fmax1(n int) float64 {
	if n < 1 {
		return 1
	}
	return float64(n)
}

// estimateStage returns the expected number of matches ONE input row
// produces for the pattern, given which variable slots are already bound.
// With a concrete predicate the per-predicate histogram applies:
// count/distinct-subjects per bound subject, count/distinct-objects per
// bound object. Otherwise the model-wide cardinalities stand in, with a
// 1/distinct-predicates factor for a predicate bound by an earlier
// stage. A pattern with every position resolved is a single existence
// probe: at most one match.
func estimateStage(sp *stagePlan, bound []bool, ag aggStats) float64 {
	sBound := sp.sVar < 0 || bound[sp.sVar]
	pBound := sp.pVar < 0 || bound[sp.pVar]
	oBound := sp.oVar < 0 || bound[sp.oVar]
	var est float64
	if sp.pVar < 0 {
		// Concrete predicate: predicate VALUE_IDs are global, so any
		// resolved model carries the pid; an unresolvable-everywhere
		// pattern estimates to zero.
		var pst core.PredStats
		for _, ids := range sp.ids {
			if ids.ok {
				pst = ag.preds[ids.pid]
				break
			}
		}
		est = float64(pst.Count)
		if sBound {
			est /= fmax1(pst.DistinctSubjects)
		}
		if oBound {
			est /= fmax1(pst.DistinctObjects)
		}
	} else {
		est = float64(ag.total)
		if pBound {
			est /= fmax1(len(ag.preds))
		}
		if sBound {
			est /= fmax1(ag.ds)
		}
		if oBound {
			est /= fmax1(ag.do)
		}
	}
	if sBound && pBound && oBound && est > 1 {
		est = 1
	}
	return est
}

// connectedTo reports whether the pattern shares a variable with the
// already-bound set.
func connectedTo(sp *stagePlan, bound []bool) bool {
	for _, v := range []int{sp.sVar, sp.pVar, sp.oVar} {
		if v >= 0 && bound[v] {
			return true
		}
	}
	return false
}

// costOrder greedily picks the cheapest next stage (see cheapestNext)
// until every pattern is placed. est accumulates down the pipeline, so
// each stage records its estimated output cardinality — under
// forcedOrder too, which only replaces the choice.
func costOrder(stages []stagePlan, ag aggStats, nvars int) []stagePlan {
	bound := make([]bool, nvars)
	used := make([]bool, len(stages))
	out := make([]stagePlan, 0, len(stages))
	run := 1.0
	for len(out) < len(stages) {
		var best int
		if forcedOrder != nil {
			best = forcedOrder[len(out)]
		} else {
			best = cheapestNext(stages, used, bound, ag)
		}
		sp := stages[best]
		used[best] = true
		run *= estimateStage(&sp, bound, ag)
		sp.est = run
		for _, v := range []int{sp.sVar, sp.pVar, sp.oVar} {
			if v >= 0 {
				bound[v] = true
			}
		}
		out = append(out, sp)
	}
	return out
}

// cheapestNext returns the unused stage to run next: the minimum-estimate
// pattern overall for the first stage, then the minimum-estimate pattern
// among those connected to the bound variables (avoiding cross products;
// only when nothing is connected does it fall back to the global
// minimum). Ties keep query-text order.
func cheapestNext(stages []stagePlan, used, bound []bool, ag aggStats) int {
	best := -1
	bestConn := false
	bestEst := 0.0
	for i := range stages {
		if used[i] {
			continue
		}
		conn := connectedTo(&stages[i], bound)
		est := estimateStage(&stages[i], bound, ag)
		if best < 0 || (conn && !bestConn) || (conn == bestConn && est < bestEst) {
			best, bestConn, bestEst = i, conn, est
		}
	}
	return best
}
