package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/ndm"
	"repro/internal/rdfterm"
)

// The response structs the read endpoints once encoded with
// encoding/json. The handlers now append the same bytes by hand from the
// IDs a read view produced; these structs are the oracle the byte-identity
// tests below encode with, and what the other tests decode bodies into.

type queryResponse struct {
	Vars      []string   `json:"vars"`
	Rows      [][]string `json:"rows"`
	Count     int        `json:"count"`
	Truncated bool       `json:"truncated,omitempty"`
	Trace     *traceJSON `json:"trace,omitempty"`
}

type findResponse struct {
	Triples   []tripleJSON `json:"triples"`
	Count     int          `json:"count"`
	Truncated bool         `json:"truncated,omitempty"`
}

type nodeCostJSON struct {
	Node string  `json:"node"`
	Cost float64 `json:"cost"`
}

type traverseResponse struct {
	Op    string `json:"op"`
	Found bool   `json:"found"`
	// Path fields (shortest_path).
	Cost float64  `json:"cost,omitempty"`
	Path []string `json:"path,omitempty"`
	// Node list (reachable / within_cost / nearest).
	Nodes     []nodeCostJSON `json:"nodes,omitempty"`
	Count     int            `json:"count"`
	Truncated bool           `json:"truncated,omitempty"`
}

// encodeOracle is the old writeJSON's encoding of a response.
func encodeOracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileTerms are literals that exercise every escape of the wire form:
// quotes, backslash, HTML bytes, control bytes, a language-tagged literal
// long enough to be cut, a cut inside a rune, a typed literal, U+2028.
func hostileTerms() []rdfterm.Term {
	return []rdfterm.Term{
		rdfterm.NewLiteral(`say "hi"`),
		rdfterm.NewLiteral(`back\slash`),
		rdfterm.NewLiteral("<tag> & </tag>"),
		rdfterm.NewLiteral("line\nbreak\ttab"),
		rdfterm.NewLangLiteral(strings.Repeat("long text ", 9)+"!", "en"),
		rdfterm.NewLiteral(strings.Repeat("y", 60) + "é and more after the cut"),
		rdfterm.NewTypedLiteral("42", rdfterm.XSDInt),
		rdfterm.NewLiteral("sep" + string(rune(0x2028)) + "arated"),
		rdfterm.NewURI(`http://x#<odd>&"uri"`),
		rdfterm.NewBlank("b1"),
	}
}

// hostileStore holds a chain n0→n1→n2→n3 with a detour through the blank
// node _:b1, and a hub whose objects are the hostile terms.
func hostileStore(t testing.TB) *core.Store {
	t.Helper()
	s := core.New()
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	u := func(n string) rdfterm.Term { return rdfterm.NewURI("http://x#" + n) }
	p := u("p")
	batch := []core.BatchTriple{
		{Subject: u("n0"), Predicate: p, Object: u("n1")},
		{Subject: u("n1"), Predicate: p, Object: u("n2")},
		{Subject: u("n2"), Predicate: p, Object: u("n3")},
		{Subject: u("n1"), Predicate: p, Object: rdfterm.NewBlank("b1")},
		{Subject: rdfterm.NewBlank("b1"), Predicate: p, Object: u("n3")},
	}
	for _, o := range hostileTerms() {
		batch = append(batch, core.BatchTriple{Subject: u("hub"), Predicate: u("lit"), Object: o})
	}
	if _, err := s.InsertBatchCtx(context.Background(), "m", batch); err != nil {
		t.Fatal(err)
	}
	return s
}

// oracleQuery is the old /query handler's body: MatchContext's terms,
// String'd into the response struct.
func oracleQuery(t *testing.T, st *core.Store, req queryRequest, limit int) []byte {
	t.Helper()
	rs, err := match.MatchContext(context.Background(), st, req.Query, match.Options{
		Models: req.Models, Filter: req.Filter, Distinct: req.Distinct, OrderBy: req.OrderBy, Limit: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := queryResponse{Vars: rs.Vars, Rows: make([][]string, rs.Len()), Count: rs.Len(), Truncated: rs.Truncated}
	if resp.Vars == nil {
		resp.Vars = []string{}
	}
	for i, row := range rs.Rows {
		out := make([]string, len(row))
		for j, term := range row {
			out[j] = term.String()
		}
		resp.Rows[i] = out
	}
	return encodeOracle(t, resp)
}

// oracleFind is the old /find handler's body: FindModelsCtx, then
// GetTriple per row.
func oracleFind(t *testing.T, st *core.Store, models []string, pat core.Pattern, limit int) []byte {
	t.Helper()
	found, err := st.FindModelsCtx(context.Background(), models, pat)
	if err != nil {
		t.Fatal(err)
	}
	resp := findResponse{Triples: []tripleJSON{}}
	for _, ts := range found {
		if len(resp.Triples) == limit {
			resp.Truncated = true
			break
		}
		tr, err := ts.GetTriple()
		if err != nil {
			t.Fatal(err)
		}
		resp.Triples = append(resp.Triples, tripleJSON{S: tr.Subject.String(), P: tr.Property.String(), O: tr.Object.String()})
	}
	resp.Count = len(resp.Triples)
	return encodeOracle(t, resp)
}

// oracleTraverse is the old /traverse handler's body: the analysis, then
// NodeTerm per node.
func oracleTraverse(t *testing.T, st *core.Store, req traverseRequest, limit int) []byte {
	t.Helper()
	ctx := context.Background()
	net, err := st.Network(req.Models...)
	if err != nil {
		t.Fatal(err)
	}
	node := func(raw string) int64 {
		term, err := rdfterm.ParseObject(raw, rdfterm.Default())
		if err != nil {
			t.Fatal(err)
		}
		id, ok := net.NodeID(term)
		if !ok {
			t.Fatalf("%s is no node", raw)
		}
		return id
	}
	name := func(id int64) string {
		term, err := net.NodeTerm(id)
		if err != nil {
			t.Fatal(err)
		}
		return term.String()
	}
	resp := traverseResponse{Op: req.Op}
	var ncs []ndm.NodeCost
	switch req.Op {
	case "shortest_path":
		path, err := ndm.ShortestPathCtx(ctx, net, node(req.Source), node(req.Target))
		if errors.Is(err, ndm.ErrNoPath) {
			return encodeOracle(t, resp)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Found, resp.Cost = true, path.Cost
		for _, n := range path.Nodes {
			resp.Path = append(resp.Path, name(n))
		}
		resp.Count = len(resp.Path)
		return encodeOracle(t, resp)
	case "within_cost":
		ncs, err = ndm.WithinCost(ctx, net, node(req.Source), req.MaxCost)
	case "nearest":
		ncs, err = ndm.NearestNeighbors(ctx, net, node(req.Source), req.K)
	case "reachable":
		var nodes []int64
		nodes, err = ndm.ReachableCtx(ctx, net, node(req.Source), -1)
		for _, n := range nodes {
			ncs = append(ncs, ndm.NodeCost{Node: n})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range ncs {
		if len(resp.Nodes) == limit {
			resp.Truncated = true
			break
		}
		resp.Nodes = append(resp.Nodes, nodeCostJSON{Node: name(nc.Node), Cost: nc.Cost})
	}
	resp.Found, resp.Count = true, len(resp.Nodes)
	return encodeOracle(t, resp)
}

// wantBody checks a 200 response's body byte for byte and its
// Content-Length.
func wantBody(t *testing.T, rr *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	wantStatus(t, rr, 200)
	if got := rr.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("body differs from the encoding/json oracle\n got %s\nwant %s", got, want)
	}
	if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length = %q, want %d", cl, len(want))
	}
}

func TestReadBodiesMatchEncodingJSON(t *testing.T) {
	st := hostileStore(t)
	s, err := New(Config{Backend: StoreBackend{S: st}, DefaultModels: []string{"m"}, MaxRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	m := []string{"m"}

	for _, req := range []queryRequest{
		{Query: "(<http://x#hub> <http://x#lit> ?o)"},
		{Query: "(?s ?p ?o)", Models: []string{"m", "m"}},
		{Query: "(?s ?p ?o)", Models: []string{"m", "m"}, Distinct: true},
		{Query: "(?s ?p ?o)", OrderBy: []string{"o", "s"}},
		{Query: "(?s ?p ?o)", Limit: 3},
		{Query: "(?s ?p ?o)", OrderBy: []string{"o"}, Limit: 4},
		{Query: "(?s ?p ?o)", Models: []string{"m", "m"}, Distinct: true, OrderBy: []string{"o"}, Limit: 5},
		{Query: "(?a <http://x#p> ?b) (?b <http://x#p> ?c)", Filter: `LIKE(?a, "http://x#n%")`},
		{Query: "(<http://x#n0> <http://x#p> <http://x#n1>)"},
		{Query: "(?s <http://x#nothing> ?o)"},
	} {
		t.Run("query "+req.Query, func(t *testing.T) {
			rr := do(t, h, "POST", "/query", req, nil)
			if req.Models == nil {
				req.Models = m
			}
			wantBody(t, rr, oracleQuery(t, st, req, s.limit(req.Limit)))
		})
	}

	for _, tc := range []struct {
		s, p, o string
		limit   int
	}{
		{s: "<http://x#hub>"},
		{p: "<http://x#p>"},
		{p: "<http://x#p>", limit: 2},
		{p: "<http://x#lit>", limit: 4},
		{o: "<http://x#n3>"},
		{s: "_:b1"},
		{s: "<http://x#nobody>"},
	} {
		q := url.Values{}
		var pat core.Pattern
		for _, f := range []struct {
			key, raw string
			parse    func(string, *rdfterm.AliasSet) (rdfterm.Term, error)
			slot     **rdfterm.Term
		}{{"s", tc.s, rdfterm.ParseSubject, &pat.Subject}, {"p", tc.p, rdfterm.ParsePredicate, &pat.Predicate}, {"o", tc.o, rdfterm.ParseObject, &pat.Object}} {
			if f.raw == "" {
				continue
			}
			q.Set(f.key, f.raw)
			term, err := f.parse(f.raw, rdfterm.Default())
			if err != nil {
				t.Fatal(err)
			}
			*f.slot = core.P(term)
		}
		if tc.limit > 0 {
			q.Set("limit", strconv.Itoa(tc.limit))
		}
		t.Run("find "+q.Encode(), func(t *testing.T) {
			rr := do(t, h, "GET", "/find?"+q.Encode(), nil, nil)
			wantBody(t, rr, oracleFind(t, st, m, pat, s.limit(tc.limit)))
		})
	}

	for _, req := range []traverseRequest{
		{Op: "shortest_path", Source: "<http://x#n0>", Target: "<http://x#n3>"},
		{Op: "shortest_path", Source: "<http://x#n3>", Target: "<http://x#n0>"},
		{Op: "shortest_path", Source: "<http://x#n1>", Target: "<http://x#n1>"},
		{Op: "reachable", Source: "<http://x#n0>"},
		{Op: "reachable", Source: "<http://x#n0>", Limit: 2},
		{Op: "reachable", Source: "<http://x#n3>"},
		{Op: "within_cost", Source: "<http://x#n0>", MaxCost: 2},
		{Op: "nearest", Source: "<http://x#hub>", K: 3},
	} {
		t.Run(fmt.Sprintf("traverse %s %s %d", req.Op, req.Source, req.Limit), func(t *testing.T) {
			rr := do(t, h, "POST", "/traverse", req, nil)
			want := req
			want.Models = m
			if want.K == 0 {
				want.K = s.limit(req.Limit)
			}
			wantBody(t, rr, oracleTraverse(t, st, want, s.limit(req.Limit)))
		})
	}
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, 3, -2, 0.5, 1.0 / 3, 1e-6, 9.9e-7, 1e-7, 123456789.125, 1e20, 1e21, 1.5e300, -4e-12} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestReadBodiesStopAtTheByteBudget pins the 413 when a body crosses
// MaxResultBytes, on every hand-encoded endpoint.
func TestReadBodiesStopAtTheByteBudget(t *testing.T) {
	s, err := New(Config{Backend: StoreBackend{S: hostileStore(t)}, DefaultModels: []string{"m"}, MaxResultBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []*httptest.ResponseRecorder{
		do(t, s.Handler(), "POST", "/query", queryRequest{Query: "(?s ?p ?o)"}, nil),
		do(t, s.Handler(), "GET", "/find?p=%3Chttp%3A%2F%2Fx%23lit%3E", nil, nil),
		do(t, s.Handler(), "POST", "/traverse", traverseRequest{Op: "reachable", Source: "<http://x#hub>"}, nil),
	} {
		wantStatus(t, rr, 413)
		if code := errCode(t, rr); code != CodeBudget {
			t.Fatalf("code = %q, want %q", code, CodeBudget)
		}
	}
}

// starServer serves a store whose hub subject has rows links, and a
// second subject with 8.
func starServer(t *testing.T, rows int) *Server {
	t.Helper()
	st := core.New()
	if _, err := st.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	var batch []core.BatchTriple
	for i := 0; i < rows; i++ {
		batch = append(batch, core.BatchTriple{Subject: rdfterm.NewURI("http://x#hub"), Predicate: rdfterm.NewURI("http://x#p"),
			Object: rdfterm.NewLiteral(fmt.Sprintf("protein sequence %d, long enough to look like one", i))})
	}
	for i := 0; i < 8; i++ {
		batch = append(batch, core.BatchTriple{Subject: rdfterm.NewURI("http://x#small"), Predicate: rdfterm.NewURI("http://x#p"),
			Object: rdfterm.NewURI(fmt.Sprintf("http://x#o%d", i))})
	}
	if _, err := st.InsertBatchCtx(context.Background(), "m", batch); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: StoreBackend{S: st}, DefaultModels: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allocsPerRequest counts the allocations of one request through the
// whole handler, recorder included.
func allocsPerRequest(t *testing.T, s *Server, method, target string, body []byte) float64 {
	t.Helper()
	h := s.Handler()
	return testing.AllocsPerRun(20, func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rr.Code != 200 {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	})
}

// TestQueryResponseAllocBudget: a star-shaped /query pays at most one
// allocation per returned row, request handling included — terms are
// appended from their cells, not built, concatenated and reflected.
func TestQueryResponseAllocBudget(t *testing.T) {
	const rows = 256
	s := starServer(t, rows)
	body, _ := json.Marshal(queryRequest{Query: "(<http://x#hub> <http://x#p> ?o)"})
	n := allocsPerRequest(t, s, "POST", "/query", body)
	t.Logf("/query: %.0f allocations for %d rows", n, rows)
	if n > rows {
		t.Fatalf("/query of %d rows made %.0f allocations, want at most one per row", rows, n)
	}
}

// TestFindResponseAllocBudget: /find allocates nothing per returned row —
// a 256-row answer costs what an 8-row one does, plus the logarithmic
// growth of its link and body buffers.
func TestFindResponseAllocBudget(t *testing.T) {
	s := starServer(t, 256)
	big := allocsPerRequest(t, s, "GET", "/find?s=%3Chttp%3A%2F%2Fx%23hub%3E", nil)
	small := allocsPerRequest(t, s, "GET", "/find?s=%3Chttp%3A%2F%2Fx%23small%3E", nil)
	t.Logf("/find: %.0f allocations for 256 rows, %.0f for 8", big, small)
	if big-small > 32 {
		t.Fatalf("/find of 256 rows made %.0f allocations against %.0f for 8 rows: rows must not allocate", big, small)
	}
}
