package match

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rdfterm"
)

// runStreaming executes the query on the streaming iterator engine. The
// plan, the whole pipeline, ORDER BY, and every emit run inside a single
// core.ReadView — one read-lock acquisition and one consistent snapshot
// for every stage's probes and for whatever emit reads of the rows. Rows
// reach emit as display VALUE_IDs in vars order (see Each); the only
// terms built here are the ones a filter or an ORDER BY compares. orderBy
// holds the ORDER BY columns (indexes into vars). It returns the number
// of rows emitted and whether Limit dropped any.
func runStreaming(ctx context.Context, store *core.Store, scope []string, pats []TriplePattern, vars []string, filter *FilterExpr, orderBy []int, opts Options, traced bool, trace *Trace, emit RowFunc) (emitted int, truncated bool, err error) {
	varIdx := make(map[string]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	err = store.ReadView(ctx, func(tx *core.ReadTx) error {
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

		// The filter and ORDER BY compare terms: each is materialized once
		// per distinct VALUE_ID per query, and only for them. 0 (unbound)
		// is the zero term.
		var terms map[int64]rdfterm.Term
		lookupTerm := func(id int64) (rdfterm.Term, error) {
			if id == 0 {
				return rdfterm.Term{}, nil
			}
			if t, ok := terms[id]; ok {
				return t, nil
			}
			t, err := tx.ValueLocked(id)
			if err != nil {
				return rdfterm.Term{}, err
			}
			if terms == nil {
				terms = map[int64]rdfterm.Term{}
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
		// determine the term — encoded into a reused scratch buffer. The
		// set grows with what is emitted, not with Limit: a row cap says
		// nothing about how many rows a query returns.
		var seen map[string]struct{}
		var keyBuf []byte
		if opts.Distinct {
			seen = map[string]struct{}{}
			keyBuf = make([]byte, 0, 8*len(vars))
		}
		ids := make([]int64, len(vars))
		// Without ORDER BY each row goes to emit as it leaves the
		// pipeline; with it the rows are held as IDs and emitted sorted.
		var held []int64

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
				if _, dup := seen[string(keyBuf)]; dup {
					continue
				}
				seen[string(keyBuf)] = struct{}{}
			}
			if len(orderBy) > 0 {
				for i := range vars {
					held = append(held, r[2*i+1])
				}
				continue
			}
			// Without ORDER BY the cap terminates the whole pipeline
			// early — upstream stages stop scanning.
			if opts.Limit > 0 && emitted == opts.Limit {
				truncated = true
				break
			}
			for i := range vars {
				ids[i] = r[2*i+1]
			}
			if err := emit(tx, ids); err != nil {
				return err
			}
			emitted++
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
		if len(orderBy) == 0 {
			return nil
		}

		// ORDER BY: the full set is sorted first so the cap returns the
		// true top-N. The sort keys are the ordered columns' terms,
		// resolved once per row.
		nv, nk := len(vars), len(orderBy)
		n := len(held) / nv
		keys := make([]rdfterm.Term, n*nk)
		for i := 0; i < n; i++ {
			if i%cancelEvery == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("match: %w", err)
				}
			}
			for k, c := range orderBy {
				t, err := lookupTerm(held[i*nv+c])
				if err != nil {
					return err
				}
				keys[i*nk+k] = t
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ka, kb := keys[order[a]*nk:][:nk], keys[order[b]*nk:][:nk]
			for k := range ka {
				if cmp := ka[k].Compare(kb[k]); cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		if opts.Limit > 0 && n > opts.Limit {
			order, truncated = order[:opts.Limit], true
		}
		for i, ri := range order {
			if i%cancelEvery == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("match: %w", err)
				}
			}
			if err := emit(tx, held[ri*nv:][:nv]); err != nil {
				return err
			}
			emitted++
		}
		return nil
	})
	return emitted, truncated, err
}
