package match

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rdfterm"
	"repro/internal/trace"
)

// ErrBudget is the sentinel for a query that exceeded its caller-imposed
// resource budget (Options.MaxBindings). The query is aborted rather
// than truncated: a partial join result is not a prefix of the true
// result, so serving it would be silently wrong. Callers select the
// class with errors.Is(err, ErrBudget); the full chain names the budget
// that was blown.
var ErrBudget = errors.New("match: query budget exceeded")

// RulebaseResolver resolves (models, rulebases) to the name of the hidden
// model holding the precomputed inferred triples — the rules index of
// §6.1 ("a rules index pre-computes triples that can be inferred from
// applying the rulebases"). internal/inference.Catalog implements it.
type RulebaseResolver interface {
	ResolveIndex(models, rulebases []string) (string, error)
}

// Options configure a Match call, mirroring the SDO_RDF_MATCH arguments
// (§6.1): models, rulebases, aliases, filter.
type Options struct {
	// Models to query (at least one).
	Models []string
	// Rulebases to apply; requires Resolver and a previously created rules
	// index covering exactly these models and rulebases.
	Rulebases []string
	// Resolver locates the rules index (nil when Rulebases is empty).
	Resolver RulebaseResolver
	// Aliases expand prefixed names in the query (rdf:, rdfs:, xsd:, owl:
	// are always available on top of these).
	Aliases *rdfterm.AliasSet
	// Filter is an optional boolean expression over the query variables.
	Filter string
	// Distinct drops duplicate result rows (the per-model union otherwise
	// repeats a binding found in several models, like the SQL table
	// function does).
	Distinct bool
	// OrderBy sorts results by the named variables (lexical order of the
	// bound terms), applied after Filter and Distinct.
	OrderBy []string
	// Trace, when non-nil, is filled with the EXPLAIN-style execution
	// record (plan order, per-stage estimated and actual cardinalities,
	// timings).
	Trace *Trace
	// Metrics, when non-nil, records query/stage series and receives
	// slow-query events (see NewMetrics).
	Metrics *Metrics
	// SlowQuery, when positive, is the threshold above which a completed
	// query is counted and logged as slow (requires Metrics for the event
	// to land anywhere).
	SlowQuery time.Duration
	// Limit, when positive, caps the number of result rows. Rows beyond
	// the cap are dropped and ResultSet.Truncated is set. With OrderBy
	// the full result is sorted first, so the cap returns the true top-N;
	// without it the engine stops the whole pipeline at the cap.
	Limit int
	// MaxBindings, when positive, bounds the intermediate binding set a
	// join stage may produce. A query whose join explodes past the bound
	// is aborted with an ErrBudget error instead of exhausting memory —
	// the admission price of serving untrusted queries. The engine
	// accounts incrementally, so the abort fires as the bound is crossed,
	// not after a stage materializes.
	MaxBindings int
}

// ResultSet holds match results: Vars in first-occurrence order, one term
// per variable per row.
type ResultSet struct {
	Vars []string
	Rows [][]rdfterm.Term
	// Truncated reports that Options.Limit dropped rows beyond the cap.
	Truncated bool
}

// Col returns the column index of a variable, or -1.
func (r *ResultSet) Col(v string) int {
	for i, name := range r.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// Get returns the binding of variable v in row i.
func (r *ResultSet) Get(i int, v string) (rdfterm.Term, bool) {
	c := r.Col(v)
	if c < 0 || i < 0 || i >= len(r.Rows) {
		return rdfterm.Term{}, false
	}
	return r.Rows[i][c], true
}

// Strings returns row i as lexical strings.
func (r *ResultSet) Strings(i int) []string {
	out := make([]string, len(r.Vars))
	for c, t := range r.Rows[i] {
		out[c] = t.Lexical()
	}
	return out
}

// Len returns the number of rows.
func (r *ResultSet) Len() int { return len(r.Rows) }

// Match is SDO_RDF_MATCH (§6.1): it evaluates the conjunctive triple
// patterns of query over the given models (plus the rules index's inferred
// triples when rulebases are requested), applies the filter, and returns
// the variable bindings.
func Match(store *core.Store, query string, opts Options) (*ResultSet, error) {
	//repro:vet-ignore ctxcheck compatibility wrapper for context-free callers (tools, tests); the serving path enters through MatchContext
	return MatchContext(context.Background(), store, query, opts)
}

// cancelEvery is how many rows the engine processes between context checks
// (the index scans underneath poll on their own cadence inside core).
const cancelEvery = 256

// MatchContext is Match with cancellation: the engine polls ctx between
// rows and each index scan polls it internally, so a combinatorial join
// aborts promptly — releasing the store's read lock — once the deadline
// passes or the caller cancels.
func MatchContext(ctx context.Context, store *core.Store, query string, opts Options) (*ResultSet, error) {
	if len(opts.Models) == 0 {
		return nil, fmt.Errorf("match: at least one model is required")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	aliases := rdfterm.Default()
	if opts.Aliases != nil {
		aliases = rdfterm.Default().With()
		for _, p := range opts.Aliases.Prefixes() {
			ns, _ := opts.Aliases.Lookup(p)
			aliases = aliases.With(rdfterm.Alias{Prefix: p, Namespace: ns})
		}
	}
	pats, err := ParseQuery(query, aliases)
	if err != nil {
		return nil, err
	}
	filter, err := ParseFilter(opts.Filter)
	if err != nil {
		return nil, err
	}
	scope := append([]string{}, opts.Models...)
	if len(opts.Rulebases) > 0 {
		if opts.Resolver == nil {
			return nil, fmt.Errorf("match: rulebases given without a resolver (create a rules index first)")
		}
		idxModel, err := opts.Resolver.ResolveIndex(opts.Models, opts.Rulebases)
		if err != nil {
			return nil, err
		}
		scope = append(scope, idxModel)
	}

	// Tracing, metrics, the slow-query log, and the request span share
	// one gate: when none is requested the engine takes the untimed path
	// and never call time.Now (the "zero overhead when disabled" budget,
	// DESIGN.md §7). A span in ctx forces the timed path — the request
	// is being traced, so the per-stage wall times must be real.
	sp := trace.FromContext(ctx)
	traced := opts.Trace != nil || opts.Metrics != nil || opts.SlowQuery > 0 || sp != nil
	var tr *Trace
	var queryStart time.Time
	if traced {
		tr = opts.Trace
		if tr == nil {
			tr = &Trace{}
		}
		tr.Query = query
		tr.PlanOrder = tr.PlanOrder[:0]
		tr.Stages = tr.Stages[:0]
		tr.TraceID = sp.TraceID()
		queryStart = time.Now()
	}

	vars := collectVars(pats)
	rs, err := runStreaming(ctx, store, scope, pats, vars, filter, opts, traced, tr)
	if err != nil {
		if sp != nil {
			sp.AddCompleted("match.query", queryStart, time.Since(queryStart),
				map[string]string{"query": query, "error": err.Error()}, true)
		}
		return nil, err
	}
	if traced {
		tr.Rows = rs.Len()
		tr.Total = time.Since(queryStart)
		tr.attachSpan(sp, queryStart)
		opts.Metrics.onQuery(tr)
		if opts.SlowQuery > 0 && tr.Total >= opts.SlowQuery {
			opts.Metrics.onSlowQuery(tr)
		}
	}
	return rs, nil
}

// collectVars returns the query's variables in first-occurrence (textual)
// order — the projection order of the result set and the slot order of
// the engine's rows.
func collectVars(pats []TriplePattern) []string {
	var vars []string
	seen := map[string]bool{}
	for _, pat := range pats {
		for _, v := range pat.Vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	return vars
}

// sortBy orders rows by the named variables.
func (r *ResultSet) sortBy(vars []string) error {
	cols := make([]int, len(vars))
	for i, v := range vars {
		c := r.Col(v)
		if c < 0 {
			return fmt.Errorf("match: ORDER BY unknown variable ?%s", v)
		}
		cols[i] = c
	}
	sort.SliceStable(r.Rows, func(a, b int) bool {
		for _, c := range cols {
			if cmp := r.Rows[a][c].Compare(r.Rows[b][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return nil
}
