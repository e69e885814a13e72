package match

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdfterm"
)

func govAliases() *rdfterm.AliasSet {
	return rdfterm.Default().With(
		rdfterm.Alias{Prefix: "gov", Namespace: "http://www.us.gov#"},
		rdfterm.Alias{Prefix: "id", Namespace: "http://www.us.id#"},
	)
}

func icStore(t *testing.T) *core.Store {
	t.Helper()
	s := core.New()
	a := govAliases()
	for _, m := range []string{"cia", "dhs", "fbi"} {
		if _, err := s.CreateRDFModel(m, m+"data", "triple"); err != nil {
			t.Fatal(err)
		}
	}
	ins := func(m, sub, p, o string) {
		t.Helper()
		if _, err := s.NewTripleS(m, sub, p, o, a); err != nil {
			t.Fatal(err)
		}
	}
	// Figure 2 data.
	ins("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe")
	ins("cia", "gov:files", "gov:terrorSuspect", "id:JaneDoe")
	ins("dhs", "id:JimDoe", "gov:terrorAction", "bombing")
	ins("dhs", "gov:files", "gov:terrorSuspect", "id:JohnDoe")
	ins("fbi", "id:JohnDoe", "gov:enteredCountry", "June-20-2000")
	ins("fbi", "gov:files", "gov:terrorSuspect", "id:JohnDoe")
	return s
}

func TestParseQuery(t *testing.T) {
	a := govAliases()
	pats, err := ParseQuery(`(?x gov:terrorAction "bombing") (gov:files gov:terrorSuspect ?x)`, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 2 {
		t.Fatalf("parsed %d patterns", len(pats))
	}
	if pats[0].S.Var != "x" || pats[0].P.Term.Value != "http://www.us.gov#terrorAction" {
		t.Errorf("pattern 0 = %v", pats[0])
	}
	if pats[0].O.Term.Kind != rdfterm.Literal || pats[0].O.Term.Value != "bombing" {
		t.Errorf("pattern 0 object = %v", pats[0].O)
	}
	if got := pats[1].String(); got != "(<http://www.us.gov#files> <http://www.us.gov#terrorSuspect> ?x)" {
		t.Errorf("String = %q", got)
	}
	if vars := pats[0].Vars(); len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestParseQueryForms(t *testing.T) {
	a := govAliases()
	good := []string{
		`(?s ?p ?o)`,
		`(<http://a> <http://p> "lit with spaces")`,
		`(?s rdf:type rdf:Statement)`,
		`(_:b1 gov:p ?o)`,
		`(?s gov:p "25"^^xsd:int)`,
		`(?s gov:p "hi"@en)`,
		"(?a gov:p ?b)\n(?b gov:q ?c)",
	}
	for _, q := range good {
		if _, err := ParseQuery(q, a); err != nil {
			t.Errorf("ParseQuery(%q): %v", q, err)
		}
	}
	bad := []string{
		``, `()`, `(?s gov:p)`, `(?s gov:p ?o`, `?s gov:p ?o)`,
		`(?s "lit" ?o)`,    // literal predicate
		`("lit" gov:p ?o)`, // literal subject
		`(? gov:p ?o)`,     // empty var
		`(?s gov:p "unterminated)`,
	}
	for _, q := range bad {
		if _, err := ParseQuery(q, a); err == nil {
			t.Errorf("ParseQuery(%q) accepted", q)
		}
	}
}

func TestMatchSinglePattern(t *testing.T) {
	s := icStore(t)
	rs, err := Match(s, `(gov:files gov:terrorSuspect ?name)`, Options{
		Models:  []string{"cia", "dhs", "fbi"},
		Aliases: govAliases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// cia: JohnDoe, JaneDoe; dhs: JohnDoe; fbi: JohnDoe → 4 rows (per-model
	// union keeps duplicates, like the SQL table function).
	if rs.Len() != 4 {
		t.Fatalf("rows = %d, want 4", rs.Len())
	}
	names := map[string]int{}
	for i := 0; i < rs.Len(); i++ {
		term, ok := rs.Get(i, "name")
		if !ok {
			t.Fatal("missing ?name binding")
		}
		names[term.Value]++
	}
	if names["http://www.us.id#JohnDoe"] != 3 || names["http://www.us.id#JaneDoe"] != 1 {
		t.Fatalf("names = %v", names)
	}
}

func TestMatchJoin(t *testing.T) {
	s := icStore(t)
	// Who entered the country and is a terror suspect?
	rs, err := Match(s, `(gov:files gov:terrorSuspect ?x) (?x gov:enteredCountry ?d)`, Options{
		Models:  []string{"cia", "dhs", "fbi"},
		Aliases: govAliases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// JohnDoe is a suspect in 3 models, entered once → 3 joined rows.
	if rs.Len() != 3 {
		t.Fatalf("rows = %d, want 3", rs.Len())
	}
	d, _ := rs.Get(0, "d")
	if d.Value != "June-20-2000" {
		t.Errorf("?d = %v", d)
	}
	if rs.Col("x") < 0 || rs.Col("nope") != -1 {
		t.Error("Col lookup wrong")
	}
}

func TestMatchVariablePredicate(t *testing.T) {
	s := icStore(t)
	rs, err := Match(s, `(id:JohnDoe ?p ?o)`, Options{
		Models:  []string{"fbi"},
		Aliases: govAliases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	p, _ := rs.Get(0, "p")
	if p.Value != "http://www.us.gov#enteredCountry" {
		t.Errorf("?p = %v", p)
	}
}

func TestMatchRepeatedVariable(t *testing.T) {
	s := core.New()
	s.CreateRDFModel("m", "", "")
	a := govAliases()
	s.NewTripleS("m", "gov:a", "gov:knows", "gov:a", a) // self-loop
	s.NewTripleS("m", "gov:a", "gov:knows", "gov:b", a)
	rs, err := Match(s, `(?x gov:knows ?x)`, Options{Models: []string{"m"}, Aliases: a})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("self-loop rows = %d, want 1", rs.Len())
	}
}

func TestMatchFilter(t *testing.T) {
	s := icStore(t)
	rs, err := Match(s, `(gov:files gov:terrorSuspect ?name)`, Options{
		Models:  []string{"cia"},
		Aliases: govAliases(),
		Filter:  `?name != "http://www.us.id#JohnDoe"`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("filtered rows = %d", rs.Len())
	}
	name, _ := rs.Get(0, "name")
	if name.Value != "http://www.us.id#JaneDoe" {
		t.Errorf("name = %v", name)
	}
}

func TestMatchFilterLike(t *testing.T) {
	s := icStore(t)
	rs, err := Match(s, `(?s gov:terrorSuspect ?name)`, Options{
		Models:  []string{"cia"},
		Aliases: govAliases(),
		Filter:  `LIKE(?name, "%Jane%")`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("LIKE rows = %d", rs.Len())
	}
}

func TestMatchCanonicalLiteral(t *testing.T) {
	s := core.New()
	s.CreateRDFModel("m", "", "")
	a := govAliases()
	if _, err := s.NewTripleS("m", "gov:a", "gov:age", `"25"^^xsd:int`, a); err != nil {
		t.Fatal(err)
	}
	// Query with a non-canonical lexical form.
	rs, err := Match(s, `(?s gov:age "+025"^^xsd:int)`, Options{Models: []string{"m"}, Aliases: a})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("canonical match rows = %d, want 1", rs.Len())
	}
}

func TestMatchErrors(t *testing.T) {
	s := icStore(t)
	if _, err := Match(s, `(?s ?p ?o)`, Options{}); err == nil {
		t.Error("no models accepted")
	}
	if _, err := Match(s, `(?s ?p ?o)`, Options{Models: []string{"missing"}}); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := Match(s, `bad query`, Options{Models: []string{"cia"}}); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := Match(s, `(?s ?p ?o)`, Options{Models: []string{"cia"}, Filter: "?s ~~ 3"}); err == nil {
		t.Error("bad filter accepted")
	}
	if _, err := Match(s, `(?s ?p ?o)`, Options{Models: []string{"cia"}, Rulebases: []string{"RDFS"}}); err == nil {
		t.Error("rulebases without resolver accepted")
	}
}

func TestMatchNoResults(t *testing.T) {
	s := icStore(t)
	rs, err := Match(s, `(gov:nothing gov:matches ?x)`, Options{
		Models: []string{"cia"}, Aliases: govAliases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("rows = %d", rs.Len())
	}
	// Vars are still reported.
	if len(rs.Vars) != 1 || rs.Vars[0] != "x" {
		t.Fatalf("Vars = %v", rs.Vars)
	}
}

func TestMatchStringsAndProjectionOrder(t *testing.T) {
	s := icStore(t)
	rs, err := Match(s, `(?who gov:terrorAction ?what)`, Options{
		Models: []string{"dhs"}, Aliases: govAliases(),
	})
	if err != nil || rs.Len() != 1 {
		t.Fatalf("rs = %v, %v", rs, err)
	}
	if strings.Join(rs.Vars, ",") != "who,what" {
		t.Fatalf("Vars = %v", rs.Vars)
	}
	row := rs.Strings(0)
	if row[0] != "http://www.us.id#JimDoe" || row[1] != "bombing" {
		t.Fatalf("Strings = %v", row)
	}
}

func TestPlanOrderPrefersBoundPatterns(t *testing.T) {
	order, _ := planFor(t, icStore(t), `(?x ?p ?y) (gov:files gov:terrorSuspect ?x)`,
		Options{Models: []string{"cia", "dhs", "fbi"}})
	if order[0] != 1 {
		t.Fatalf("plan = %v, want bound pattern first", order)
	}
}

func TestFilterEval(t *testing.T) {
	bind := func(pairs ...string) map[string]rdfterm.Term {
		m := map[string]rdfterm.Term{}
		for i := 0; i+1 < len(pairs); i += 2 {
			m[pairs[i]] = rdfterm.NewLiteral(pairs[i+1])
		}
		return m
	}
	cases := []struct {
		expr string
		b    map[string]rdfterm.Term
		want bool
	}{
		{`?x = "a"`, bind("x", "a"), true},
		{`?x = "a"`, bind("x", "b"), false},
		{`?x != "a"`, bind("x", "b"), true},
		{`?x <> "a"`, bind("x", "b"), true},
		{`?x < "5"`, bind("x", "10"), false}, // numeric: 10 > 5
		{`?x > "5"`, bind("x", "10"), true},
		{`?x <= "10"`, bind("x", "10"), true},
		{`?x >= "11"`, bind("x", "10"), false},
		{`?x < "b"`, bind("x", "a"), true}, // string compare
		{`?x = "a" AND ?y = "b"`, bind("x", "a", "y", "b"), true},
		{`?x = "a" AND ?y = "c"`, bind("x", "a", "y", "b"), false},
		{`?x = "z" OR ?y = "b"`, bind("x", "a", "y", "b"), true},
		{`NOT ?x = "a"`, bind("x", "b"), true},
		{`(?x = "a" OR ?x = "b") AND NOT ?x = "b"`, bind("x", "a"), true},
		{`LIKE(?x, "pre%")`, bind("x", "prefix"), true},
		{`LIKE(?x, "%fix")`, bind("x", "prefix"), true},
		{`LIKE(?x, "%efi%")`, bind("x", "prefix"), true},
		{`LIKE(?x, "exact")`, bind("x", "exact"), true},
		{`LIKE(?x, "pre%")`, bind("x", "nope"), false},
		{`?x = "a"`, bind(), false}, // unbound var → false
		{`?x = ?y`, bind("x", "a", "y", "a"), true},
		{`5 < 6`, bind(), true},
		{``, bind(), true}, // empty filter accepts
	}
	for _, c := range cases {
		f, err := ParseFilter(c.expr)
		if err != nil {
			t.Errorf("ParseFilter(%q): %v", c.expr, err)
			continue
		}
		if got := f.Eval(c.b); got != c.want {
			t.Errorf("Eval(%q, %v) = %v, want %v", c.expr, c.b, got, c.want)
		}
	}
}

func TestFilterParseErrors(t *testing.T) {
	bad := []string{
		`?x ~~ "a"`, `?x =`, `= "a"`, `(?x = "a"`, `?x = "a" AND`,
		`LIKE(?x)`, `LIKE ?x, "a")`, `? = "a"`, `?x = "unterminated`,
		`?x = "a" garbage`,
	}
	for _, expr := range bad {
		if _, err := ParseFilter(expr); err == nil {
			t.Errorf("ParseFilter(%q) accepted", expr)
		}
	}
}

// Cross-check: a 2-pattern join computed by Match equals a nested-loop
// reference implementation over Find.
func TestMatchAgainstReferenceJoin(t *testing.T) {
	s := icStore(t)
	a := govAliases()
	rs, err := Match(s, `(gov:files gov:terrorSuspect ?x) (?x gov:enteredCountry ?d)`, Options{
		Models: []string{"cia", "dhs", "fbi"}, Aliases: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: enumerate all suspects, then all enteredCountry rows.
	suspects, _ := s.FindModels([]string{"cia", "dhs", "fbi"}, core.Pattern{
		Subject:   core.P(rdfterm.NewURI("http://www.us.gov#files")),
		Predicate: core.P(rdfterm.NewURI("http://www.us.gov#terrorSuspect")),
	})
	var want []string
	for _, ts := range suspects {
		obj, _ := ts.GetObject()
		entered, _ := s.FindModels([]string{"cia", "dhs", "fbi"}, core.Pattern{
			Subject:   core.P(rdfterm.NewURI(obj)),
			Predicate: core.P(rdfterm.NewURI("http://www.us.gov#enteredCountry")),
		})
		for _, e := range entered {
			d, _ := e.GetObject()
			want = append(want, obj+"|"+d)
		}
	}
	var got []string
	for i := 0; i < rs.Len(); i++ {
		row := rs.Strings(i)
		got = append(got, row[0]+"|"+row[1])
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, ";") != strings.Join(got, ";") {
		t.Fatalf("match = %v, reference = %v", got, want)
	}
}
