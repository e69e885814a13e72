package match

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// EXPLAIN-style tracing for Match. A Trace records the order the cost
// planner chose, what it estimated, and what each join stage actually
// did — inputs, candidates scanned, outputs, wall time — so "why is this
// query slow"
// is answerable without re-running it under a profiler. The same
// per-stage numbers feed the match metrics and the slow-query event
// log; all three share one gate in MatchContext, and when none is
// requested the join loop never calls time.Now.

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
	Query string
	// PlanOrder holds pattern indexes in execution order.
	PlanOrder []int
	Stages    []StageTrace
	// Rows is the final row count after filter, distinct, and order-by.
	Rows  int
	Total time.Duration
	// TraceID correlates this query with its request trace when the call
	// ran under a span (see internal/trace); "" otherwise. It rides the
	// slow-query event, so an operator can jump from the event log
	// straight to /debug/traces/{id}.
	TraceID string
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

// summary flattens the trace into flat string fields for the slow-query
// event log.
func (t *Trace) summary() map[string]string {
	plan := make([]string, len(t.PlanOrder))
	for i, pi := range t.PlanOrder {
		plan[i] = strconv.Itoa(pi)
	}
	stages := make([]string, len(t.Stages))
	for i, st := range t.Stages {
		stages[i] = fmt.Sprintf("#%d in=%d cand=%d out=%d est=%s %s",
			st.Index, st.InBindings, st.Candidates, st.OutBindings, formatEst(st.EstRows),
			st.Duration.Round(time.Microsecond))
	}
	m := map[string]string{
		"query":  t.Query,
		"plan":   strings.Join(plan, ","),
		"stages": strings.Join(stages, "; "),
		"rows":   strconv.Itoa(t.Rows),
		"total":  t.Total.Round(time.Microsecond).String(),
	}
	if t.TraceID != "" {
		m["trace_id"] = t.TraceID
	}
	return m
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

// Metrics instruments Match against an obs registry. A nil *Metrics
// disables instrumentation (and, absent a Trace or slow-query
// threshold, stage timing entirely).
type Metrics struct {
	queries   *obs.Counter
	queryDur  *obs.Histogram
	stageDur  *obs.Histogram
	stageCand *obs.Histogram
	slow      *obs.Counter
	events    *obs.EventLog
}

// NewMetrics registers the match metric families on reg. Returns nil
// when reg is nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		queries:   reg.Counter("match_queries_total", "Match calls executed"),
		queryDur:  reg.Histogram("match_query_seconds", "Match end-to-end latency", obs.DurationBuckets),
		stageDur:  reg.Histogram("match_stage_seconds", "per-stage join latency", obs.DurationBuckets),
		stageCand: reg.Histogram("match_stage_candidates", "candidate triples scanned per join stage", obs.CountBuckets),
		slow:      reg.Counter("match_slow_queries_total", "queries over the slow-query threshold"),
		events:    reg.Events(),
	}
}

// onQuery records a completed query and its stages.
func (m *Metrics) onQuery(t *Trace) {
	if m == nil {
		return
	}
	m.queries.Inc()
	m.queryDur.Observe(t.Total.Seconds())
	for _, st := range t.Stages {
		m.stageDur.Observe(st.Duration.Seconds())
		m.stageCand.Observe(float64(st.Candidates))
	}
}

// onSlowQuery records a threshold crossing and emits the structured
// slow-query event.
func (m *Metrics) onSlowQuery(t *Trace) {
	if m == nil {
		return
	}
	m.slow.Inc()
	m.events.Emit("match", "slow_query", t.summary())
}
