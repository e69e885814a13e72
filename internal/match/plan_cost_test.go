package match

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// Golden plan tests for the cost-based planner: a known stats fixture
// must produce a known iterator order, observable through
// Trace.PlanOrder.

// planFor runs the query traced and returns the chosen order.
func planFor(t *testing.T, s *core.Store, query string, opts Options) ([]int, *Trace) {
	t.Helper()
	var tr Trace
	opts.Trace = &tr
	if len(opts.Models) == 0 {
		opts.Models = []string{"g"}
	}
	if opts.Aliases == nil {
		opts.Aliases = govAliases()
	}
	if _, err := Match(s, query, opts); err != nil {
		t.Fatal(err)
	}
	return tr.PlanOrder, &tr
}

// TestCostPlanChain: on the chain fixture the cost planner starts from
// the selective 2-bound type probe and then walks the connected chain —
// 2 -> 1 -> 0, not the heuristic's 2 -> 0 -> 1 (which would pick the
// disconnected first pattern and cross-product).
func TestCostPlanChain(t *testing.T) {
	s := chainStore(t, 100)
	order, tr := planFor(t, s, threeJoinQuery, Options{})
	if !reflect.DeepEqual(order, []int{2, 1, 0}) {
		t.Fatalf("cost plan = %v, want [2 1 0]", order)
	}
	for i, st := range tr.Stages {
		if st.EstRows < 0 {
			t.Fatalf("stage %d EstRows = %v, want an estimate", i, st.EstRows)
		}
	}
}

// invStore builds the selectivity-inversion fixture: n chains
// (s_i p1 m_i)(m_i p2 "common") where EVERY p2 object is the same
// literal, plus a single (s_0 type "rare"). The two 2-bound patterns in
// the query look identical by boundness alone, but statistics show
// p2="common" matches n rows while type="rare" matches one.
func invStore(t *testing.T, n int) *core.Store {
	t.Helper()
	s := core.New()
	if _, err := s.CreateRDFModel("g", "", ""); err != nil {
		t.Fatal(err)
	}
	a := govAliases()
	ins := func(sub, p, o string) {
		t.Helper()
		if _, err := s.NewTripleS("g", sub, p, o, a); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ins(fmt.Sprintf("gov:s%d", i), "gov:p1", fmt.Sprintf("gov:m%d", i))
		ins(fmt.Sprintf("gov:m%d", i), "gov:p2", `"common"`)
	}
	ins("gov:s0", "gov:type", `"rare"`)
	return s
}

const inversionQuery = `(?s gov:p1 ?m) (?m gov:p2 "common") (?s gov:type "rare")`

// TestCostPlanSelectivityInversion: by boundness the two 2-bound
// patterns tie (text order would run pattern 1 — the unselective one —
// first); the cost planner sees count(type)=1 vs
// count(p2)/distinct-objects=n and starts from the rare probe, then
// chains through ?s.
func TestCostPlanSelectivityInversion(t *testing.T) {
	s := invStore(t, 50)
	order, _ := planFor(t, s, inversionQuery, Options{})
	if !reflect.DeepEqual(order, []int{2, 0, 1}) {
		t.Fatalf("cost plan = %v, want [2 0 1]", order)
	}
	rs, err := Match(s, inversionQuery, Options{Models: []string{"g"}, Aliases: govAliases()})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d, want 1", rs.Len())
	}
}

// TestCostPlanEmptyStats: statistics are per model, so a model with no
// triples has zero statistics. The cost planner must still produce a
// complete plan — zero estimates, no division by zero, ties in text
// order — and the query returns no rows.
func TestCostPlanEmptyStats(t *testing.T) {
	s := core.New()
	if _, err := s.CreateRDFModel("g", "", ""); err != nil {
		t.Fatal(err)
	}
	order, tr := planFor(t, s, `(?s ?p ?o) (?o ?q ?r)`, Options{})
	if !reflect.DeepEqual(order, []int{0, 1}) || len(tr.Stages) != 2 || tr.Rows != 0 {
		t.Fatalf("empty stats: plan %v, %d stages, %d rows; want [0 1], 2, 0", order, len(tr.Stages), tr.Rows)
	}
	for i, st := range tr.Stages {
		if st.EstRows != 0 {
			t.Fatalf("stage %d EstRows = %v, want 0 on an empty model", i, st.EstRows)
		}
	}
}

// TestPlannerNaiveKeepsTextOrder: the naive text order — the oracle's,
// forced through the test seam — executes patterns in query-text order,
// and the forced plan still estimates every stage.
func TestPlannerNaiveKeepsTextOrder(t *testing.T) {
	s := chainStore(t, 20)
	forcedOrder = []int{0, 1, 2}
	defer func() { forcedOrder = nil }()
	order, tr := planFor(t, s, threeJoinQuery, Options{})
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("naive plan = %v, want [0 1 2]", order)
	}
	if tr.Stages[0].EstRows != 20 || tr.Rows != 1 {
		t.Fatalf("naive plan: first stage est %v, rows %d; want 20 and 1", tr.Stages[0].EstRows, tr.Rows)
	}
}

// TestEmptyCollapse: a pattern whose concrete term resolves in no scoped
// model makes the whole conjunction empty — the planner collapses the
// query and no stage executes (Trace.Stages stays empty).
func TestEmptyCollapse(t *testing.T) {
	s := chainStore(t, 20)
	var tr Trace
	rs, err := Match(s, `(?x gov:nosuchpred ?y) (?x gov:p1 ?z)`, Options{
		Models: []string{"g"}, Aliases: govAliases(), Trace: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("rows = %d, want 0", rs.Len())
	}
	if len(tr.Stages) != 0 {
		t.Fatalf("empty-collapsed query ran %d stages, want 0", len(tr.Stages))
	}
	if len(rs.Vars) != 3 {
		t.Fatalf("Vars = %v, want x,y,z reported even for an empty result", rs.Vars)
	}
	// An unresolvable literal object collapses the same way.
	rs, err = Match(s, `(?z gov:type "no-such-type") (?y gov:p2 ?z)`, Options{
		Models: []string{"g"}, Aliases: govAliases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("rows = %d, want 0", rs.Len())
	}
}

// TestCostPlanMultiModelStats: statistics aggregate across the scoped
// models, so a probe selective in the union is still chosen first when
// the qualifying triples live in a different model than the chains.
func TestCostPlanMultiModelStats(t *testing.T) {
	s := core.New()
	a := govAliases()
	for _, m := range []string{"m1", "m2"} {
		if _, err := s.CreateRDFModel(m, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	ins := func(m, sub, p, o string) {
		t.Helper()
		if _, err := s.NewTripleS(m, sub, p, o, a); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		ins("m1", fmt.Sprintf("gov:root%d", i), "gov:p1", fmt.Sprintf("gov:mid%d", i))
		ins("m1", fmt.Sprintf("gov:mid%d", i), "gov:p2", fmt.Sprintf("gov:leaf%d", i))
	}
	ins("m2", "gov:leaf7", "gov:type", `"target"`)
	var tr Trace
	rs, err := Match(s, threeJoinQuery, Options{
		Models: []string{"m1", "m2"}, Aliases: govAliases(), Trace: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d, want 1", rs.Len())
	}
	if len(tr.PlanOrder) != 3 || tr.PlanOrder[0] != 2 {
		t.Fatalf("plan = %v, want type probe first", tr.PlanOrder)
	}
}
