package match

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
)

// EXPLAIN-style tracing for Match. A Trace records the order the cost
// planner chose, what it estimated, and what each join stage actually
// did — inputs, candidates scanned, outputs, wall time — so "why is this
// query slow" is answerable without re-running it under a profiler. It
// is the one per-query record, and it leaves the package two ways only:
// as EXPLAIN text (Format, and the server's "trace":true body built from
// the same fields) and as a span subtree (attachSpan). Both share one
// gate in Each, and when neither is requested the join loop never calls
// time.Now.

// StageTrace records one executed join stage (one triple pattern).
type StageTrace struct {
	// Index is the pattern's position in the query text (0-based);
	// stages appear in execution order, which the planner may permute.
	Index int
	// Pattern is the pattern's text, e.g. "?s <urn:p> ?o".
	Pattern string
	// InBindings is the number of partial bindings entering the stage.
	InBindings int
	// Candidates is the number of triples the store returned across all
	// input bindings and scoped models, before unification.
	Candidates int
	// OutBindings is the number of extended bindings leaving the stage.
	OutBindings int
	// EstRows is the planner's estimated OutBindings for the stage.
	// Comparing it against OutBindings shows where the cost model was
	// wrong.
	EstRows  float64
	Duration time.Duration
}

// Trace is the execution record of one Match call. Pass an empty Trace
// via Options.Trace to collect it.
type Trace struct {
	// PlanOrder holds pattern indexes in execution order.
	PlanOrder []int
	Stages    []StageTrace
	// Rows is the final row count after filter, distinct, and order-by.
	Rows  int
	Total time.Duration
}

// Format renders the trace, one stage per line:
//
//	plan: 1 -> 0 -> 2
//	stage 1: #1 ?x <urn:type> <urn:T>  in=1 candidates=40 out=40 est=40  312µs
//	...
//	total 1.8ms, 12 rows
func (t *Trace) Format(w io.Writer) {
	if len(t.PlanOrder) > 0 {
		parts := make([]string, len(t.PlanOrder))
		for i, pi := range t.PlanOrder {
			parts[i] = strconv.Itoa(pi)
		}
		fmt.Fprintf(w, "plan: %s\n", strings.Join(parts, " -> "))
	}
	for i, st := range t.Stages {
		fmt.Fprintf(w, "stage %d: #%d %s  in=%d candidates=%d out=%d est=%s  %s\n",
			i+1, st.Index, st.Pattern, st.InBindings, st.Candidates, st.OutBindings, formatEst(st.EstRows),
			st.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "total %s, %d rows\n", t.Total.Round(time.Microsecond), t.Rows)
}

// attachSpan records the completed query on the request's span as a
// pre-measured subtree: one "match.query" child carrying the plan and
// row counts, with one child per executed join stage reusing the
// EXPLAIN counters (in/candidates/out/est) as attributes. Pre-measured
// (AddCompleted) rather than live because the streaming engine
// interleaves stages — per-stage wall time is only known after the
// run, so stage start offsets here are synthesized cumulatively and
// only the durations are exact.
func (t *Trace) attachSpan(sp *trace.Span, start time.Time) {
	if sp == nil {
		return
	}
	plan := make([]string, len(t.PlanOrder))
	for i, pi := range t.PlanOrder {
		plan[i] = strconv.Itoa(pi)
	}
	q := sp.AddCompleted("match.query", start, t.Total, map[string]string{
		"plan": strings.Join(plan, ","),
		"rows": strconv.Itoa(t.Rows),
	}, false)
	stageStart := start
	for i := range t.Stages {
		st := &t.Stages[i]
		attrs := map[string]string{
			"pattern":    st.Pattern,
			"in":         strconv.Itoa(st.InBindings),
			"candidates": strconv.Itoa(st.Candidates),
			"out":        strconv.Itoa(st.OutBindings),
			"est":        formatEst(st.EstRows),
		}
		q.AddCompleted(fmt.Sprintf("match.stage %d: #%d", i+1, st.Index), stageStart, st.Duration, attrs, false)
		stageStart = stageStart.Add(st.Duration)
	}
}

// formatEst renders a cardinality estimate compactly: integers without a
// fraction, small fractional estimates with one decimal.
func formatEst(v float64) string {
	if v >= 10 || v == float64(int64(v)) {
		return strconv.FormatInt(int64(v+0.5), 10)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}
