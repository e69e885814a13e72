package match

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// The streaming join engine. A query compiles to a left-deep pipeline of
// pull iterators over ID rows: one unit seed plus one joinIter per
// pattern, in plan order. Rows carry VALUE_IDs, not terms — term text is
// materialized once per distinct ID at projection time — so a join stage
// costs a handful of int64 moves per candidate instead of a map copy and
// a term fetch. The whole pipeline runs inside one core.ReadView: one
// lock acquisition and one snapshot for every probe of every stage.

// row is a fixed-width binding over the query's variable table: two
// int64s per variable slot. Slot 2i holds the canonical VALUE_ID
// (CANON_END_NODE_ID semantics — the join key, so "01"^^xsd:int unifies
// with "1"^^xsd:int), slot 2i+1 the VALUE_ID of the first-bound term,
// used for display. 0 means unbound (real VALUE_IDs start at 1068).
type row []int64

// iterator is a pull-based stream of binding rows. A returned row is
// valid only until the next call to next(); consumers that keep it must
// copy it.
type iterator interface {
	next() (row, bool, error)
}

// unitIter emits one all-unbound row: the seed of the pipeline.
type unitIter struct {
	nv   int
	done bool
}

func (u *unitIter) next() (row, bool, error) {
	if u.done {
		return nil, false, nil
	}
	u.done = true
	return make(row, 2*u.nv), true, nil
}

// joinIter is the AND stage of the pipeline. For each input row it
// substitutes already-bound variables into its pattern and either probes
// the unique MSPO index per model (every position resolved — the
// Contains half of the Next/Contains duality) or collects matching link
// IDs through the best index prefix (the Next half), emitting one
// extended row per candidate that unifies. Candidates are buffered as
// bare ID tuples per input row, so early termination downstream abandons
// them without further work.
type joinIter struct {
	ctx  context.Context
	tx   *core.ReadTx
	in   iterator
	sp   *stagePlan
	mids []int64
	// maxBindings > 0 aborts the query with ErrBudget when this stage's
	// output exceeds it (incremental accounting — no materialization).
	maxBindings int

	cur   row // current input row (owned by in)
	out   row // scratch output row, reused across emissions
	cands []core.LinkIDs
	ci    int
	// emits is the number of pending Contains-mode emissions of cur (one
	// per scoped model containing the fully-resolved triple, preserving
	// per-model-union duplicate semantics).
	emits int

	polled int

	// Stage counters, kept unconditionally (outCount drives the
	// MaxBindings budget): input rows pulled, exact-match candidates
	// produced, rows emitted.
	inCount, candCount, outCount int

	// Self-time accounting, only under the traced gate: the stopwatch
	// pauses while pulling from the upstream iterator so each stage's
	// Duration reports its own work, and the untraced path never reads
	// the clock.
	traced bool
	self   time.Duration
	mark   time.Time
}

func newJoinIter(ctx context.Context, tx *core.ReadTx, in iterator, sp *stagePlan, mids []int64, nv, maxBindings int, traced bool) *joinIter {
	return &joinIter{
		ctx: ctx, tx: tx, in: in, sp: sp, mids: mids,
		maxBindings: maxBindings, out: make(row, 2*nv), traced: traced,
	}
}

func (j *joinIter) next() (r row, ok bool, err error) {
	if j.traced {
		j.mark = time.Now()
		defer func() { j.self += time.Since(j.mark) }()
	}
	return j.step()
}

// pull fetches the next input row, pausing this stage's stopwatch while
// the upstream stages run.
func (j *joinIter) pull() (row, bool, error) {
	if j.traced {
		j.self += time.Since(j.mark)
		defer func() { j.mark = time.Now() }()
	}
	return j.in.next()
}

// tick polls the context every cancelEvery candidate/probe steps, so a
// stage that filters heavily (emitting nothing downstream) still honors
// cancellation promptly.
func (j *joinIter) tick() error {
	j.polled++
	if j.polled%cancelEvery == 0 {
		if err := j.ctx.Err(); err != nil {
			return fmt.Errorf("match: %w", err)
		}
	}
	return nil
}

func (j *joinIter) emit(r row) (row, bool, error) {
	j.outCount++
	if j.maxBindings > 0 && j.outCount > j.maxBindings {
		return nil, false, fmt.Errorf("%w: stage %d produced %d intermediate bindings (max %d)",
			ErrBudget, j.sp.pi, j.outCount, j.maxBindings)
	}
	return r, true, nil
}

func (j *joinIter) step() (row, bool, error) {
	for {
		// Drain pending Contains-mode emissions of the input row.
		if j.emits > 0 {
			j.emits--
			return j.emit(j.cur)
		}
		// Drain buffered scan candidates.
		for j.ci < len(j.cands) {
			c := j.cands[j.ci]
			j.ci++
			if err := j.tick(); err != nil {
				return nil, false, err
			}
			if j.bind(c) {
				return j.emit(j.out)
			}
		}
		// Advance to the next input row.
		cur, ok, err := j.pull()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = cur
		j.inCount++

		sp := j.sp
		resolved := (sp.sVar < 0 || cur[2*sp.sVar] != 0) &&
			(sp.pVar < 0 || cur[2*sp.pVar] != 0) &&
			(sp.oVar < 0 || cur[2*sp.oVar] != 0)
		if resolved {
			// Contains mode: one unique-index probe per scoped model.
			for m, mid := range j.mids {
				ids := sp.ids[m]
				if !ids.ok {
					continue
				}
				if err := j.tick(); err != nil {
					return nil, false, err
				}
				sid, pid, canon := j.resolve(ids)
				if j.tx.ContainsLinkLocked(mid, sid, pid, canon) {
					j.candCount++
					j.emits++
				}
			}
			continue
		}
		// Scan mode: collect exact matches through the best index.
		j.cands = j.cands[:0]
		j.ci = 0
		//repro:vet-ignore viewcheck CollectLinksLocked polls the view context internally every cancelEvery rows and its error is returned below; the per-model loop itself is bounded by the request's scope
		for m, mid := range j.mids {
			ids := sp.ids[m]
			if !ids.ok {
				continue
			}
			sid, pid, canon := j.resolve(ids)
			j.cands, err = j.tx.CollectLinksLocked(j.cands, mid, sid, pid, canon)
			if err != nil {
				return nil, false, err
			}
		}
		j.candCount += len(j.cands)
	}
}

// resolve merges the pattern's concrete IDs for one model with the
// variables already bound in the current input row. Bound variables
// substitute their canonical ID in every position: subjects and
// predicates are self-canonical, and object matching is canonical by
// construction (CANON_END_NODE_ID).
func (j *joinIter) resolve(ids patIDs) (sid, pid, canon int64) {
	sp := j.sp
	sid, pid, canon = ids.sid, ids.pid, ids.canon
	if sp.sVar >= 0 {
		sid = j.cur[2*sp.sVar]
	}
	if sp.pVar >= 0 {
		pid = j.cur[2*sp.pVar]
	}
	if sp.oVar >= 0 {
		canon = j.cur[2*sp.oVar]
	}
	return sid, pid, canon
}

// bind fills the scratch output row from the input row plus one
// candidate, reporting false when a variable repeated within the pattern
// disagrees (e.g. (?x p ?x) against <a p b> — comparison is by canonical
// ID, preserving the old engine's canonical unification).
func (j *joinIter) bind(c core.LinkIDs) bool {
	copy(j.out, j.cur)
	sp := j.sp
	if sp.sVar >= 0 && !setSlot(j.out, sp.sVar, c.SID, c.SID) {
		return false
	}
	if sp.pVar >= 0 && !setSlot(j.out, sp.pVar, c.PID, c.PID) {
		return false
	}
	if sp.oVar >= 0 && !setSlot(j.out, sp.oVar, c.CanonID, c.OID) {
		return false
	}
	return true
}

// setSlot binds one variable slot: an already-bound slot must agree on
// the canonical ID (the display ID keeps its first-bound value), an
// unbound slot takes both IDs.
func setSlot(r row, slot int, canon, disp int64) bool {
	if r[2*slot] != 0 {
		return r[2*slot] == canon
	}
	r[2*slot] = canon
	r[2*slot+1] = disp
	return true
}
