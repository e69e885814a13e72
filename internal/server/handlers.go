package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/ndm"
	"repro/internal/rdfterm"
	"repro/internal/trace"
)

// Wire types. Terms travel as N-Triples-style strings in both
// directions: "<http://x#a>", "\"literal\"", "\"5\"^^<...#int>",
// "_:b0". See SERVING.md for the full request/response catalogue.

// errBodyBudget aborts encoding when the response exceeds
// MaxResultBytes; the handler maps it to 413.
var errBodyBudget = errors.New("server: response exceeds the result byte budget")

// capWriter buffers an encoded response under a hard byte cap, so the
// response assembly itself is the memory budget.
type capWriter struct {
	buf bytes.Buffer
	max int64
}

func (c *capWriter) Write(p []byte) (int, error) {
	if int64(c.buf.Len())+int64(len(p)) > c.max {
		return 0, errBodyBudget
	}
	return c.buf.Write(p)
}

// writeJSON encodes v under the byte budget and, only then, writes the
// response — so a blown budget still has a clean 413 status line.
func (s *Server) writeJSON(ctx context.Context, w http.ResponseWriter, v any) error {
	sp := trace.FromContext(ctx).Child("server.response_encode")
	defer sp.End()
	cw := &capWriter{max: s.cfg.MaxResultBytes}
	if err := json.NewEncoder(cw).Encode(v); err != nil {
		sp.SetError(err)
		if errors.Is(err, errBodyBudget) {
			return &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBudget,
				msg: fmt.Sprintf("response exceeds the %d-byte result budget; narrow the query or lower limit", s.cfg.MaxResultBytes)}
		}
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	sp.SetInt("bytes", int64(cw.buf.Len()))
	_, err := w.Write(cw.buf.Bytes())
	return err
}

// decodeBody strictly decodes a JSON request body under the body cap.
func (s *Server) decodeBody(ctx context.Context, w http.ResponseWriter, r *http.Request, into any) error {
	sp := trace.FromContext(ctx).Child("server.body_decode")
	defer sp.End()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		sp.SetError(err)
		return errBadRequest("bad request body: %v", err)
	}
	return nil
}

// models resolves the request's model scope.
func (s *Server) models(req []string) ([]string, error) {
	if len(req) > 0 {
		return req, nil
	}
	if len(s.cfg.DefaultModels) > 0 {
		return s.cfg.DefaultModels, nil
	}
	return nil, errBadRequest("models required (no server default configured)")
}

// limit clamps a client row limit by the server cap.
func (s *Server) limit(req int) int {
	if req <= 0 || req > s.cfg.MaxRows {
		return s.cfg.MaxRows
	}
	return req
}

// ---- GET / and GET /healthz ----

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"service":   "rdfserve",
		"endpoints": []string{"POST /query", "GET /find", "POST /traverse", "POST /insert", "GET /healthz", "GET /debug/metrics"},
		"docs":      "SERVING.md",
	})
}

// handleHealthz is the load-balancer probe: 200 only when the store is
// Healthy and the server is not draining; 503 otherwise. (The richer
// supervisor payload is at /debug/healthz.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.cfg.Backend.Healthz()
	if s.draining.Load() {
		h.Healthy = false
		h.State = "Draining"
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// ---- POST /query ----

type queryRequest struct {
	// Query is the SDO_RDF_MATCH pattern list, e.g. "(?s ?p ?o)".
	Query string `json:"query"`
	// Models scopes the query (default: the server's configured models).
	Models []string `json:"models,omitempty"`
	// Filter is an optional boolean expression over the variables.
	Filter string `json:"filter,omitempty"`
	// Aliases adds prefix=namespace expansions for this query.
	Aliases  map[string]string `json:"aliases,omitempty"`
	Distinct bool              `json:"distinct,omitempty"`
	OrderBy  []string          `json:"order_by,omitempty"`
	// Limit caps result rows (clamped by the server's max).
	Limit int `json:"limit,omitempty"`
	// Trace returns the EXPLAIN-style execution record.
	Trace bool `json:"trace,omitempty"`
}

type queryResponse struct {
	Vars      []string   `json:"vars"`
	Rows      [][]string `json:"rows"`
	Count     int        `json:"count"`
	Truncated bool       `json:"truncated,omitempty"`
	Trace     *traceJSON `json:"trace,omitempty"`
}

type traceJSON struct {
	PlanOrder []int       `json:"plan_order"`
	Stages    []stageJSON `json:"stages"`
	Rows      int         `json:"rows"`
	TotalUS   int64       `json:"total_us"`
}

type stageJSON struct {
	Index      int    `json:"index"`
	Pattern    string `json:"pattern"`
	In         int    `json:"in"`
	Candidates int    `json:"candidates"`
	Out        int    `json:"out"`
	// EstRows is the planner's estimated output cardinality for the
	// stage.
	EstRows    float64 `json:"est_rows"`
	DurationUS int64   `json:"duration_us"`
}

func (s *Server) handleQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req queryRequest
	if err := s.decodeBody(ctx, w, r, &req); err != nil {
		return err
	}
	if req.Query == "" {
		return errBadRequest("query is required")
	}
	models, err := s.models(req.Models)
	if err != nil {
		return err
	}
	var aliases *rdfterm.AliasSet
	if len(req.Aliases) > 0 {
		aliases = rdfterm.Default()
		for p, ns := range req.Aliases {
			a := rdfterm.Alias{Prefix: p, Namespace: ns}
			if err := a.Validate(); err != nil {
				return errBadRequest("bad alias %q: %v", p, err)
			}
			aliases = aliases.With(a)
		}
	}
	opts := match.Options{
		Models:      models,
		Filter:      req.Filter,
		Aliases:     aliases,
		Distinct:    req.Distinct,
		OrderBy:     req.OrderBy,
		Limit:       s.limit(req.Limit),
		MaxBindings: s.cfg.MaxBindings,
	}
	var explain match.Trace
	if req.Trace {
		opts.Trace = &explain
	}
	rs, err := match.MatchContext(ctx, s.cfg.Backend.Store(), req.Query, opts)
	if err != nil {
		return queryError(err)
	}
	resp := queryResponse{Vars: rs.Vars, Rows: make([][]string, rs.Len()), Count: rs.Len(), Truncated: rs.Truncated}
	if resp.Vars == nil {
		resp.Vars = []string{}
	}
	for i, row := range rs.Rows {
		out := make([]string, len(row))
		for j, t := range row {
			out[j] = t.String()
		}
		resp.Rows[i] = out
	}
	if rs.Truncated {
		s.met.onTruncated()
	}
	if req.Trace {
		tj := &traceJSON{PlanOrder: explain.PlanOrder, Rows: explain.Rows, TotalUS: explain.Total.Microseconds()}
		for _, st := range explain.Stages {
			tj.Stages = append(tj.Stages, stageJSON{
				Index: st.Index, Pattern: st.Pattern, In: st.InBindings, Candidates: st.Candidates,
				Out: st.OutBindings, EstRows: st.EstRows, DurationUS: st.Duration.Microseconds(),
			})
		}
		resp.Trace = tj
	}
	return s.writeJSON(ctx, w, resp)
}

// queryError classifies a match failure: parse and planning problems are
// the client's (400), budget and cancellation are typed upstream.
func queryError(err error) error {
	switch {
	case errors.Is(err, match.ErrBudget),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, core.ErrNoSuchModel):
		return err
	default:
		return errBadRequest("%v", err)
	}
}

// ---- GET /find ----

type tripleJSON struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

type findResponse struct {
	Triples   []tripleJSON `json:"triples"`
	Count     int          `json:"count"`
	Truncated bool         `json:"truncated,omitempty"`
}

func (s *Server) handleFind(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	models, err := s.models(q["model"])
	if err != nil {
		return err
	}
	var pat core.Pattern
	aliases := rdfterm.Default()
	if raw := q.Get("s"); raw != "" {
		t, err := rdfterm.ParseSubject(raw, aliases)
		if err != nil {
			return errBadRequest("bad s: %v", err)
		}
		pat.Subject = core.P(t)
	}
	if raw := q.Get("p"); raw != "" {
		t, err := rdfterm.ParsePredicate(raw, aliases)
		if err != nil {
			return errBadRequest("bad p: %v", err)
		}
		pat.Predicate = core.P(t)
	}
	if raw := q.Get("o"); raw != "" {
		t, err := rdfterm.ParseObject(raw, aliases)
		if err != nil {
			return errBadRequest("bad o: %v", err)
		}
		pat.Object = core.P(t)
	}
	limit := s.limit(atoiDefault(q.Get("limit"), 0))

	st := s.cfg.Backend.Store()
	found, err := st.FindModelsCtx(ctx, models, pat)
	if err != nil {
		return err
	}
	resp := findResponse{Triples: []tripleJSON{}}
	for _, ts := range found {
		if len(resp.Triples) == limit {
			resp.Truncated = true
			s.met.onTruncated()
			break
		}
		tr, err := ts.GetTriple()
		if err != nil {
			return fmt.Errorf("resolving triple %d: %w", ts.TID, err)
		}
		resp.Triples = append(resp.Triples, tripleJSON{
			S: tr.Subject.String(), P: tr.Property.String(), O: tr.Object.String(),
		})
	}
	resp.Count = len(resp.Triples)
	return s.writeJSON(ctx, w, resp)
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return def
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 1 << 30
		}
	}
	return n
}

// ---- POST /traverse ----

type traverseRequest struct {
	// Op is the NDM analysis: shortest_path, reachable, within_cost,
	// nearest.
	Op string `json:"op"`
	// Models scopes the network (default: the server's configured models).
	Models []string `json:"models,omitempty"`
	// Source and Target are N-Triples-style terms; Target only for
	// shortest_path.
	Source string `json:"source"`
	Target string `json:"target,omitempty"`
	// MaxCost bounds within_cost; K bounds nearest; MaxDepth bounds
	// reachable (0 = unbounded).
	MaxCost  float64 `json:"max_cost,omitempty"`
	K        int     `json:"k,omitempty"`
	MaxDepth int     `json:"max_depth,omitempty"`
	// Limit caps returned nodes (clamped by the server's max).
	Limit int `json:"limit,omitempty"`
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

func (s *Server) handleTraverse(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req traverseRequest
	if err := s.decodeBody(ctx, w, r, &req); err != nil {
		return err
	}
	models, err := s.models(req.Models)
	if err != nil {
		return err
	}
	st := s.cfg.Backend.Store()
	net, err := st.Network(models...)
	if err != nil {
		return err
	}
	g := net.WithContext(ctx)
	if req.Source == "" {
		return errBadRequest("source is required")
	}
	srcTerm, err := rdfterm.ParseObject(req.Source, rdfterm.Default())
	if err != nil {
		return errBadRequest("bad source: %v", err)
	}
	src, ok := net.NodeID(srcTerm)
	if !ok {
		return errBadRequest("source %s is not a node in the scoped models", req.Source)
	}
	limit := s.limit(req.Limit)

	term := func(node int64) (string, error) {
		t, err := net.NodeTerm(node)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}
	resp := traverseResponse{Op: req.Op}
	addNodes := func(ncs []ndm.NodeCost) error {
		for _, nc := range ncs {
			if len(resp.Nodes) == limit {
				resp.Truncated = true
				s.met.onTruncated()
				break
			}
			name, err := term(nc.Node)
			if err != nil {
				return err
			}
			resp.Nodes = append(resp.Nodes, nodeCostJSON{Node: name, Cost: nc.Cost})
		}
		resp.Found = true
		resp.Count = len(resp.Nodes)
		return nil
	}

	switch req.Op {
	case "shortest_path":
		if req.Target == "" {
			return errBadRequest("target is required for shortest_path")
		}
		dstTerm, err := rdfterm.ParseObject(req.Target, rdfterm.Default())
		if err != nil {
			return errBadRequest("bad target: %v", err)
		}
		dst, ok := net.NodeID(dstTerm)
		if !ok {
			return errBadRequest("target %s is not a node in the scoped models", req.Target)
		}
		path, err := ndm.ShortestPathCtx(ctx, g, src, dst)
		if errors.Is(err, ndm.ErrNoPath) {
			resp.Found = false
			return s.writeJSON(ctx, w, resp)
		}
		if err != nil {
			return err
		}
		resp.Found = true
		resp.Cost = path.Cost
		for _, node := range path.Nodes {
			name, err := term(node)
			if err != nil {
				return err
			}
			resp.Path = append(resp.Path, name)
		}
		resp.Count = len(resp.Path)
	case "within_cost":
		ncs, err := ndm.WithinCost(ctx, g, src, req.MaxCost)
		if err != nil {
			return err
		}
		if err := addNodes(ncs); err != nil {
			return err
		}
	case "nearest":
		k := req.K
		if k <= 0 || k > limit {
			k = limit
		}
		ncs, err := ndm.NearestNeighbors(ctx, g, src, k)
		if err != nil {
			return err
		}
		if err := addNodes(ncs); err != nil {
			return err
		}
	case "reachable":
		depth := req.MaxDepth
		if depth <= 0 {
			depth = -1 // wire 0/absent means unbounded; ndm uses negative for that
		}
		nodes, err := ndm.ReachableCtx(ctx, g, src, depth)
		if err != nil {
			return err
		}
		ncs := make([]ndm.NodeCost, len(nodes))
		for i, n := range nodes {
			ncs[i] = ndm.NodeCost{Node: n}
		}
		if err := addNodes(ncs); err != nil {
			return err
		}
	default:
		return errBadRequest("unknown op %q (want shortest_path, within_cost, nearest, or reachable)", req.Op)
	}
	return s.writeJSON(ctx, w, resp)
}

// ---- POST /insert ----

type insertRequest struct {
	Model string `json:"model"`
	// CreateModel creates the model if it does not exist.
	CreateModel bool         `json:"create_model,omitempty"`
	Triples     []tripleJSON `json:"triples"`
}

type insertResponse struct {
	Inserted int `json:"inserted"`
	NewLinks int `json:"new_links"`
}

func (s *Server) handleInsert(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req insertRequest
	if err := s.decodeBody(ctx, w, r, &req); err != nil {
		return err
	}
	if req.Model == "" {
		return errBadRequest("model is required")
	}
	if len(req.Triples) == 0 {
		return errBadRequest("triples is empty")
	}
	if len(req.Triples) > s.cfg.MaxBatch {
		return &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBudget,
			msg: fmt.Sprintf("batch of %d exceeds the %d-triple cap", len(req.Triples), s.cfg.MaxBatch)}
	}
	aliases := rdfterm.Default()
	batch := make([]core.BatchTriple, len(req.Triples))
	for i, t := range req.Triples {
		sub, err := rdfterm.ParseSubject(t.S, aliases)
		if err != nil {
			return errBadRequest("triple %d: bad s: %v", i, err)
		}
		pred, err := rdfterm.ParsePredicate(t.P, aliases)
		if err != nil {
			return errBadRequest("triple %d: bad p: %v", i, err)
		}
		obj, err := rdfterm.ParseObject(t.O, aliases)
		if err != nil {
			return errBadRequest("triple %d: bad o: %v", i, err)
		}
		batch[i] = core.BatchTriple{Subject: sub, Predicate: pred, Object: obj}
	}
	// The deadline covers the admission wait and parse; the mutation
	// itself is not cancellable mid-batch (the WAL commit is atomic),
	// so check once more before paying for it.
	if err := ctx.Err(); err != nil {
		return err
	}
	var res core.BatchResult
	err := s.cfg.Backend.Mutate(func(st *core.Store) error {
		if req.CreateModel {
			if _, err := st.GetModelID(req.Model); errors.Is(err, core.ErrNoSuchModel) {
				if _, err := st.CreateRDFModel(req.Model, "", ""); err != nil {
					return err
				}
			}
		}
		var err error
		res, err = st.InsertBatchCtx(ctx, req.Model, batch)
		return err
	})
	if err != nil {
		return err
	}
	return s.writeJSON(ctx, w, insertResponse{Inserted: len(res.Triples), NewLinks: res.NewLinks})
}
