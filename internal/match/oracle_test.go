package match

import (
	"strings"

	"repro/internal/core"
	"repro/internal/rdfterm"
)

// The differential-testing oracle: the original materializing engine,
// run in query-text order. It evaluates the join left-deep over fully
// materialized []map[string]rdfterm.Term binding sets, one Store.FindModels
// probe per binding, and shares no join or planning code with the
// streaming engine — simple, slow, and independently correct.

// oracleMatch evaluates query over opts.Models honoring Aliases, Filter,
// Distinct, OrderBy and Limit (rulebases, budgets, tracing and metrics
// are the engine's concern only).
func oracleMatch(store *core.Store, query string, opts Options) (*ResultSet, error) {
	aliases := opts.Aliases
	if aliases == nil {
		aliases = rdfterm.Default()
	}
	pats, err := ParseQuery(query, aliases)
	if err != nil {
		return nil, err
	}
	filter, err := ParseFilter(opts.Filter)
	if err != nil {
		return nil, err
	}
	bindings := []map[string]rdfterm.Term{{}}
	for _, pat := range pats {
		var next []map[string]rdfterm.Term
		for _, b := range bindings {
			matches, err := findPattern(store, opts.Models, pat, b)
			if err != nil {
				return nil, err
			}
			next = append(next, matches...)
		}
		bindings = next
	}

	vars := collectVars(pats)
	rs := &ResultSet{Vars: vars}
	emitted := map[string]bool{}
	for _, b := range bindings {
		if !filter.Eval(b) {
			continue
		}
		rw := make([]rdfterm.Term, len(vars))
		for i, v := range vars {
			rw[i] = b[v]
		}
		if opts.Distinct {
			key := rowKey(rw)
			if emitted[key] {
				continue
			}
			emitted[key] = true
		}
		// Without ORDER BY the cap short-circuits projection; with it the
		// full set is sorted first so the cap returns the true top-N.
		if opts.Limit > 0 && len(opts.OrderBy) == 0 && len(rs.Rows) == opts.Limit {
			rs.Truncated = true
			break
		}
		rs.Rows = append(rs.Rows, rw)
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

// rowKey encodes a result row collision-free for DISTINCT.
func rowKey(row []rdfterm.Term) string {
	var b strings.Builder
	for _, t := range row {
		b.WriteString(t.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// findPattern evaluates one pattern under a partial binding, returning
// the extended bindings.
func findPattern(store *core.Store, models []string, pat TriplePattern, b map[string]rdfterm.Term) ([]map[string]rdfterm.Term, error) {
	resolve := func(pt PatternTerm) *rdfterm.Term {
		if !pt.IsVar() {
			t := pt.Term
			return &t
		}
		if t, ok := b[pt.Var]; ok {
			return &t
		}
		return nil
	}
	found, err := store.FindModels(models, core.Pattern{
		Subject:   resolve(pat.S),
		Predicate: resolve(pat.P),
		Object:    resolve(pat.O),
	})
	if err != nil {
		return nil, err
	}
	var out []map[string]rdfterm.Term
	for _, ts := range found {
		tr, err := ts.GetTriple()
		if err != nil {
			return nil, err
		}
		if nb := unify(pat, tr, b); nb != nil {
			out = append(out, nb)
		}
	}
	return out, nil
}

// unify extends binding b with the pattern's variables bound to the
// triple's terms, returning nil on conflict (same variable, different
// term — e.g. (?x p ?x) against <a p b>).
func unify(pat TriplePattern, tr core.Triple, b map[string]rdfterm.Term) map[string]rdfterm.Term {
	nb := make(map[string]rdfterm.Term, len(b)+3)
	for k, v := range b {
		nb[k] = v
	}
	bind := func(pt PatternTerm, t rdfterm.Term) bool {
		if !pt.IsVar() {
			return true // concrete terms were matched by Find
		}
		if old, ok := nb[pt.Var]; ok {
			// Compare canonically so 01^^int unifies with 1^^int.
			return rdfterm.Canonical(old).Equal(rdfterm.Canonical(t))
		}
		nb[pt.Var] = t
		return true
	}
	if !bind(pat.S, tr.Subject) || !bind(pat.P, tr.Property) || !bind(pat.O, tr.Object) {
		return nil
	}
	return nb
}
