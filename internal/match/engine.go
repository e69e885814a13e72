package match

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rdfterm"
)

// runStreaming executes the query on the streaming iterator engine. The
// plan, the whole pipeline, and term materialization run inside a single
// core.ReadView — one read-lock acquisition and one consistent snapshot
// for every stage's probes. ORDER BY sorts outside the view (terms are
// already materialized by then).
func runStreaming(ctx context.Context, store *core.Store, scope []string, pats []TriplePattern, vars []string, filter *FilterExpr, opts Options, traced bool, trace *Trace) (*ResultSet, error) {
	varIdx := make(map[string]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	rs := &ResultSet{Vars: vars}
	err := store.ReadView(ctx, func(tx *core.ReadTx) error {
		mids := make([]int64, len(scope))
		for i, m := range scope {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("match: %w", err)
			}
			mid, err := tx.ModelIDLocked(m)
			if err != nil {
				return err
			}
			mids[i] = mid
		}
		plan := buildPlan(tx, mids, pats, varIdx, len(vars))
		if traced {
			trace.PlanOrder = trace.PlanOrder[:0]
			for _, sp := range plan.stages {
				trace.PlanOrder = append(trace.PlanOrder, sp.pi)
			}
		}
		if plan.empty {
			// Some pattern cannot match in any scoped model: the whole
			// conjunction is empty, no stage runs.
			return nil
		}

		var it iterator = &unitIter{nv: len(vars)}
		joins := make([]*joinIter, len(plan.stages))
		for i := range plan.stages {
			j := newJoinIter(ctx, tx, it, &plan.stages[i], mids, len(vars), opts.MaxBindings, traced)
			joins[i] = j
			it = j
		}

		// Terms are materialized once per distinct VALUE_ID per query.
		terms := map[int64]rdfterm.Term{}
		lookupTerm := func(id int64) (rdfterm.Term, error) {
			if t, ok := terms[id]; ok {
				return t, nil
			}
			t, err := tx.ValueLocked(id)
			if err != nil {
				return rdfterm.Term{}, err
			}
			terms[id] = t
			return t, nil
		}
		// The filter sees display terms through a lookup closure over the
		// current row; a variable the filter names but the query does not
		// bind fails the row, as before.
		var cur row
		var lookErr error
		look := func(name string) (rdfterm.Term, bool) {
			i, ok := varIdx[name]
			if !ok {
				return rdfterm.Term{}, false
			}
			id := cur[2*i+1]
			if id == 0 {
				return rdfterm.Term{}, false
			}
			t, err := lookupTerm(id)
			if err != nil {
				lookErr = err
				return rdfterm.Term{}, false
			}
			return t, true
		}

		// DISTINCT keys on display IDs — interning makes the ID uniquely
		// determine the term — encoded into a reused scratch buffer
		// instead of the old \x00-joined Term.String build. The map is
		// pre-sized from Limit when one is set.
		var emitted map[string]struct{}
		var keyBuf []byte
		if opts.Distinct {
			size := 64
			if opts.Limit > 0 && opts.Limit < 1<<16 {
				size = opts.Limit
			}
			emitted = make(map[string]struct{}, size)
			keyBuf = make([]byte, 0, 8*len(vars))
		}

		polled := 0
		for {
			r, ok, err := it.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			polled++
			if polled%cancelEvery == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("match: %w", err)
				}
			}
			cur = r
			if !filter.EvalFunc(look) {
				if lookErr != nil {
					return lookErr
				}
				continue
			}
			if lookErr != nil {
				return lookErr
			}
			if opts.Distinct {
				keyBuf = keyBuf[:0]
				for i := range vars {
					id := uint64(r[2*i+1])
					keyBuf = append(keyBuf,
						byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
						byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
				}
				if _, dup := emitted[string(keyBuf)]; dup {
					continue
				}
				emitted[string(keyBuf)] = struct{}{}
			}
			// Without ORDER BY the cap terminates the whole pipeline
			// early — upstream stages stop scanning; with it the full set
			// is collected and sorted first so the cap returns the true
			// top-N (truncation happens after the sort, outside the view).
			if opts.Limit > 0 && len(opts.OrderBy) == 0 && len(rs.Rows) == opts.Limit {
				rs.Truncated = true
				break
			}
			trow := make([]rdfterm.Term, len(vars))
			for i := range vars {
				if id := r[2*i+1]; id != 0 {
					t, err := lookupTerm(id)
					if err != nil {
						return err
					}
					trow[i] = t
				}
			}
			rs.Rows = append(rs.Rows, trow)
		}
		if traced {
			for _, j := range joins {
				trace.Stages = append(trace.Stages, StageTrace{
					Index:       j.sp.pi,
					Pattern:     pats[j.sp.pi].String(),
					InBindings:  j.inCount,
					Candidates:  j.candCount,
					OutBindings: j.outCount,
					EstRows:     j.sp.est,
					Duration:    j.self,
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(opts.OrderBy) > 0 {
		if err := rs.sortBy(opts.OrderBy); err != nil {
			return nil, err
		}
		if opts.Limit > 0 && len(rs.Rows) > opts.Limit {
			rs.Rows = rs.Rows[:opts.Limit]
			rs.Truncated = true
		}
	}
	return rs, nil
}
