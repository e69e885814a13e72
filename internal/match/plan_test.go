package match

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

func mustParse(t testing.TB, q string) []TriplePattern {
	t.Helper()
	pats, err := ParseQuery(q, govAliases())
	if err != nil {
		t.Fatal(err)
	}
	return pats
}

// TestPlanOrderBoundnessOnly: a variable repeated across positions is
// not a bound term, so the planner starts from the predicate-bound one.
func TestPlanOrderBoundnessOnly(t *testing.T) {
	order, _ := planFor(t, chainStore(t, 20), `(?x ?p ?x) (?x gov:p1 ?y)`, Options{})
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("plan = %v, want [1 0] (repeated variable is not a bound term)", order)
	}
}

// chainStore builds a store shaped for a 3-pattern join: chains
// root -p1-> mid -p2-> leaf, with exactly one chain ending in a
// "target"-typed leaf — the selective probe a good plan starts from.
func chainStore(tb testing.TB, chains int) *core.Store {
	tb.Helper()
	s := core.New()
	if _, err := s.CreateRDFModel("g", "", ""); err != nil {
		tb.Fatal(err)
	}
	a := govAliases()
	ins := func(sub, p, o string) {
		tb.Helper()
		if _, err := s.NewTripleS("g", sub, p, o, a); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < chains; i++ {
		ins(fmt.Sprintf("gov:root%d", i), "gov:p1", fmt.Sprintf("gov:mid%d", i))
		ins(fmt.Sprintf("gov:mid%d", i), "gov:p2", fmt.Sprintf("gov:leaf%d", i))
		if i == chains/2 {
			ins(fmt.Sprintf("gov:leaf%d", i), "gov:type", `"target"`)
		} else {
			ins(fmt.Sprintf("gov:leaf%d", i), "gov:type", `"noise"`)
		}
	}
	return s
}

const threeJoinQuery = `(?x gov:p1 ?y) (?y gov:p2 ?z) (?z gov:type "target")`

// TestThreePatternJoin: the planner must start from the 2-bound type
// probe, so the join finds the single qualifying chain.
func TestThreePatternJoin(t *testing.T) {
	s := chainStore(t, 100)
	rs, err := Match(s, threeJoinQuery, Options{Models: []string{"g"}, Aliases: govAliases()})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("join returned %d rows, want 1", rs.Len())
	}
	x, _ := rs.Get(0, "x")
	if x.Value != "http://www.us.gov#root50" {
		t.Fatalf("?x = %v, want root50", x)
	}
}

// BenchmarkThreePatternJoin measures the left-deep join over a 3-pattern
// chain query on 3000 triples (1000 chains, one selective).
func BenchmarkThreePatternJoin(b *testing.B) {
	s := chainStore(b, 1000)
	opts := Options{Models: []string{"g"}, Aliases: govAliases()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := Match(s, threeJoinQuery, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatalf("join returned %d rows", rs.Len())
		}
	}
}

// TestChainJoinPlanBudget is the join planner's regression gate, in
// counts rather than timings so it holds on any machine: chain3-selective
// at 30 000 triples must run the type probe first and walk the chain
// back (plan 2 -> 1 -> 0), touching one candidate per stage where text or
// boundness order visits 10 002, and the untraced query stays within its
// allocation budget.
func TestChainJoinPlanBudget(t *testing.T) {
	s := chainStore(t, 10000)
	var tr Trace
	opts := Options{Models: []string{"g"}, Aliases: govAliases()}
	traced := opts
	traced.Trace = &tr
	if _, err := Match(s, threeJoinQuery, traced); err != nil {
		t.Fatal(err)
	}
	candidates := 0
	for _, st := range tr.Stages {
		candidates += st.Candidates
	}
	if !reflect.DeepEqual(tr.PlanOrder, []int{2, 1, 0}) || candidates != 3 || tr.Rows != 1 {
		t.Fatalf("plan %v, %d candidates, %d rows; want [2 1 0], 3, 1", tr.PlanOrder, candidates, tr.Rows)
	}
	const allocBudget = 80
	if got := testing.AllocsPerRun(20, func() {
		if rs, err := Match(s, threeJoinQuery, opts); err != nil || rs.Len() != 1 {
			t.Fatalf("Match = %v, %v", rs, err)
		}
	}); got > allocBudget {
		t.Fatalf("chain3-selective: %.0f allocations per query, budget %d", got, allocBudget)
	}
}
