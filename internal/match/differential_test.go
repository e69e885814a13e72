package match

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// Differential tests: the streaming engine must return the exact same
// result multiset as the materializing oracle (oracle_test.go), which
// runs the patterns in text order — under the cost planner's order and,
// for queries of up to four patterns, under every forced permutation.
// The two share no join code — one walks ID rows under a read view, the
// other materializes term bindings per stage — so agreement is strong
// evidence both are right.

// resultKeys canonicalizes a result set into a sorted multiset of row
// strings (per-variable Term.String, \x1f-joined).
func resultKeys(rs *ResultSet) []string {
	keys := make([]string, 0, rs.Len())
	for _, row := range rs.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			parts[i] = t.String()
		}
		keys = append(keys, strings.Join(parts, "\x1f"))
	}
	sort.Strings(keys)
	return keys
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, append(append(append([]int{}, p[:i]...), n-1), p[i:]...))
		}
	}
	return out
}

// diffCase runs one (store, query, options) case on the oracle and on the
// engine under each plan, requiring identical variable lists and row
// multisets.
func diffCase(t *testing.T, s *core.Store, models []string, query string, base Options) {
	t.Helper()
	base.Models = models
	if base.Aliases == nil {
		base.Aliases = govAliases()
	}
	want, err := oracleMatch(s, query, base)
	if err != nil {
		t.Fatalf("oracle failed on %q: %v", query, err)
	}
	wantKeys := resultKeys(want)
	check := func(plan string) {
		t.Helper()
		got, err := Match(s, query, base)
		if err != nil {
			t.Fatalf("plan %s failed on %q: %v", plan, query, err)
		}
		if !equalStrings(got.Vars, want.Vars) {
			t.Fatalf("plan %s on %q: Vars = %v, oracle %v", plan, query, got.Vars, want.Vars)
		}
		gotKeys := resultKeys(got)
		if !equalStrings(gotKeys, wantKeys) {
			t.Fatalf("plan %s on %q: %d rows, oracle %d\n got: %v\nwant: %v",
				plan, query, len(gotKeys), len(wantKeys), gotKeys, wantKeys)
		}
		if got.Truncated != want.Truncated {
			t.Fatalf("plan %s on %q: Truncated = %v, oracle %v", plan, query, got.Truncated, want.Truncated)
		}
	}
	check("cost")
	pats, err := ParseQuery(query, base.Aliases)
	if err != nil || len(pats) > 4 {
		return
	}
	defer func() { forcedOrder = nil }()
	for _, order := range permutations(len(pats)) {
		forcedOrder = order
		check(fmt.Sprint(order))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialCorpus sweeps the fixture stores with the query corpus
// (including the parser fuzz seeds that are valid queries) across every
// plan.
func TestDifferentialCorpus(t *testing.T) {
	ic := icStore(t)
	icModels := []string{"cia", "dhs", "fbi"}
	chain := chainStore(t, 40)
	inv := invStore(t, 25)
	join := buildJoinStore(t, 4, 0)

	icQueries := []string{
		// Fuzz seeds / corpus queries that parse.
		`(?s ?p ?o)`,
		`(?x gov:terrorAction "bombing") (gov:files gov:terrorSuspect ?x)`,
		`(_:b1 rdf:type rdf:Statement)`,
		`(?s gov:p "25"^^xsd:int)`,
		`(?s gov:p "hi"@en)`,
		"(?a rdf:type ?b)(?b rdf:type ?c)",
		// Shapes from the paper's running example.
		`(gov:files gov:terrorSuspect ?name)`,
		`(?who gov:enteredCountry ?when) (gov:files gov:terrorSuspect ?who)`,
		`(?s ?p ?o) (?s ?p2 ?o2)`,
		`(?s gov:terrorSuspect ?o) (?s ?p ?o)`,
		// Repeated variable: (?x p ?x) style self-join.
		`(?x ?p ?x)`,
		// Unmatchable concrete terms (empty-collapse path).
		`(?x gov:nosuch ?y)`,
		`(gov:files gov:terrorSuspect ?x) (?x gov:nosuch ?y)`,
	}
	for _, q := range icQueries {
		diffCase(t, ic, icModels, q, Options{})
	}

	chainQueries := []string{
		threeJoinQuery,
		`(?z gov:type "target") (?y gov:p2 ?z) (?x gov:p1 ?y)`,
		`(?x gov:p1 ?y) (?y gov:p2 ?z)`,
		`(?z gov:type ?kind)`,
		`(?a gov:p1 ?b) (?c gov:p2 ?d)`, // cross product, 40x40 rows
	}
	for _, q := range chainQueries {
		diffCase(t, chain, []string{"g"}, q, Options{})
	}

	diffCase(t, inv, []string{"g"}, inversionQuery, Options{})

	diffCase(t, join, []string{"big"},
		`(?a <http://x#p> ?b) (?b <http://x#p> ?c) (?c <http://x#p> ?d)`, Options{})
}

// TestDifferentialModifiers exercises filter, distinct, order-by, and
// limit across every plan — the projection paths diverge most between
// the engine and the oracle (ID-keyed vs string-keyed DISTINCT, early
// termination vs post-hoc truncation).
func TestDifferentialModifiers(t *testing.T) {
	ic := icStore(t)
	icModels := []string{"cia", "dhs", "fbi"}
	chain := chainStore(t, 40)

	// DISTINCT collapses the per-model union duplicates.
	diffCase(t, ic, icModels, `(gov:files gov:terrorSuspect ?name)`, Options{Distinct: true})
	diffCase(t, ic, icModels, `(?s ?p ?o)`, Options{Distinct: true})
	// Filter over bound and unbound variables.
	diffCase(t, ic, icModels, `(?s gov:terrorSuspect ?name)`, Options{
		Filter: `?name != "nobody"`,
	})
	diffCase(t, ic, icModels, `(?s ?p ?o)`, Options{
		Filter: `?o = "bombing"`,
	})
	diffCase(t, ic, icModels, `(?s gov:terrorSuspect ?name)`, Options{
		Filter: `?missing = "x"`, // names a variable the query never binds
	})
	// ORDER BY with and without LIMIT: a deterministic top-N.
	diffCase(t, chain, []string{"g"}, `(?x gov:p1 ?y)`, Options{
		OrderBy: []string{"x", "y"},
	})
	diffCase(t, chain, []string{"g"}, `(?x gov:p1 ?y) (?y gov:p2 ?z)`, Options{
		OrderBy: []string{"z"}, Limit: 7,
	})
	diffCase(t, ic, icModels, `(?s ?p ?o)`, Options{
		Distinct: true, OrderBy: []string{"s", "p", "o"}, Limit: 5,
	})

	// LIMIT without ORDER BY: which rows survive depends on the plan, so
	// compare counts and containment in the oracle's full result instead.
	const limitQuery = `(?x gov:p1 ?y) (?y gov:p2 ?z)`
	full, err := oracleMatch(chain, limitQuery, Options{Models: []string{"g"}, Aliases: govAliases()})
	if err != nil {
		t.Fatal(err)
	}
	fullSet := map[string]bool{}
	for _, k := range resultKeys(full) {
		fullSet[k] = true
	}
	defer func() { forcedOrder = nil }()
	for _, order := range [][]int{nil, {0, 1}, {1, 0}} {
		forcedOrder = order
		rs, err := Match(chain, limitQuery, Options{Models: []string{"g"}, Aliases: govAliases(), Limit: 6})
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() != 6 || !rs.Truncated {
			t.Fatalf("plan %v: limit rows = %d truncated = %v", order, rs.Len(), rs.Truncated)
		}
		for _, k := range resultKeys(rs) {
			if !fullSet[k] {
				t.Fatalf("plan %v: limited result contains row not in full result: %q", order, k)
			}
		}
	}
}

// TestDifferentialFuzzSeeds replays the stored FuzzParseQuery corpus
// inputs that parse as valid queries through the differential harness —
// regressions found by fuzzing stay fixed under every plan.
func TestDifferentialFuzzSeeds(t *testing.T) {
	ic := icStore(t)
	icModels := []string{"cia", "dhs", "fbi"}
	seeds := []string{
		`(?s ?p ?o)`,
		`(?x gov:terrorAction "bombing") (gov:files gov:terrorSuspect ?x)`,
		`(<http://a> <http://p> "lit with spaces")`,
		`(_:b1 rdf:type rdf:Statement)`,
		`(?s gov:p "25"^^xsd:int)`,
		`(?s gov:p "hi"@en)`,
		"(?a rdf:type ?b)(?b rdf:type ?c)",
	}
	a := govAliases()
	for _, q := range seeds {
		if _, err := ParseQuery(q, a); err != nil {
			continue
		}
		diffCase(t, ic, icModels, q, Options{})
	}
}
