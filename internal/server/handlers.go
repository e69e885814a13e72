package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/ndm"
	"repro/internal/rdfterm"
	"repro/internal/trace"
)

// Wire types. Terms travel as N-Triples-style strings in both
// directions: "<http://x#a>", "\"literal\"", "\"5\"^^<...#int>",
// "_:b0". See SERVING.md for the full request/response catalogue.

// The read endpoints (/query, /find, /traverse) encode their bodies by
// hand, appending each term's wire form straight from its rdf_value$ cells
// inside the read view that produced the IDs (core.ReadTx
// .AppendTermJSONLocked). The bytes are those encoding/json wrote for the
// response structs the tests keep as the oracle (encode_test.go). Small
// fixed-shape bodies go through encoding/json.

// bodyStart is the capacity a hand-encoded body starts with: a point
// lookup's whole answer, so most bodies never regrow.
const bodyStart = 2 << 10

// cancelEvery is how many items a handler appends inside a read view
// between context checks.
const cancelEvery = 256

// budgetError is the 413 for a body past MaxResultBytes. The hand
// encoders check it as they append, so a huge result stops growing the
// body as soon as it crosses the cap.
func (s *Server) budgetError() error {
	return &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBudget,
		msg: fmt.Sprintf("response exceeds the %d-byte result budget; narrow the query or lower limit", s.cfg.MaxResultBytes)}
}

// overBudget reports whether a body under construction is past the cap.
func (s *Server) overBudget(b []byte) bool { return int64(len(b)) > s.cfg.MaxResultBytes }

// writeJSON encodes a small fixed-shape body with encoding/json and
// writes it.
func (s *Server) writeJSON(ctx context.Context, w http.ResponseWriter, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.writeBody(ctx, w, b)
}

// writeBody writes a complete JSON body, newline-terminated like
// encoding/json's Encoder, with its Content-Length — only once the whole
// body is known to fit the byte budget, so a blown budget still has a
// clean 413 status line.
func (s *Server) writeBody(ctx context.Context, w http.ResponseWriter, b []byte) error {
	sp := trace.FromContext(ctx).Child("server.response_encode")
	defer sp.End()
	b = append(b, '\n')
	if s.overBudget(b) {
		err := s.budgetError()
		sp.SetError(err)
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	sp.SetInt("bytes", int64(len(b)))
	_, err := w.Write(b)
	return err
}

// viewTicker polls a request's context once every cancelEvery items a
// handler appends inside a read view, so a long body releases the store's
// read lock soon after a cancel or deadline.
type viewTicker struct {
	ctx context.Context
	n   int
}

func (t *viewTicker) tick() error {
	t.n++
	if t.n%cancelEvery == 0 {
		return t.ctx.Err()
	}
	return nil
}

// rowMemo remembers, per column, the term a body appended last and where,
// so a term repeated from the row above — a star's subject and its shared
// objects, /find's subject — is copied within the body, not resolved
// again.
type rowMemo []struct {
	id       int64
	off, end int
}

// appendTerm appends the wire form of column col's term id to b: 0
// (unbound) is the zero term's.
func (m rowMemo) appendTerm(tx *core.ReadTx, b []byte, col int, id int64) ([]byte, error) {
	if c := m[col]; c.id == id && c.end > c.off {
		return append(b, b[c.off:c.end]...), nil
	}
	off := len(b)
	var err error
	if id == 0 {
		b = rdfterm.Term{}.AppendJSON(b)
	} else if b, err = tx.AppendTermJSONLocked(b, id); err != nil {
		return b, err
	}
	m[col].id, m[col].off, m[col].end = id, off, len(b)
	return b, nil
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
	// The body is the queryResponse encoding, appended as the engine
	// emits rows, inside its read view.
	b := make([]byte, 0, bodyStart)
	rows := 0
	tk := viewTicker{ctx: ctx}
	var memo rowMemo
	truncated, err := match.Each(ctx, s.cfg.Backend.Store(), req.Query, opts,
		func(vars []string) {
			memo = make(rowMemo, len(vars))
			b = append(b, `{"vars":[`...)
			for i, v := range vars {
				if i > 0 {
					b = append(b, ',')
				}
				b = rdfterm.AppendJSONString(b, v)
			}
			b = append(b, `],"rows":[`...)
		},
		func(tx *core.ReadTx, ids []int64) error {
			if rows > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for i, id := range ids {
				if err := tk.tick(); err != nil {
					return err
				}
				if i > 0 {
					b = append(b, ',')
				}
				var err error
				if b, err = memo.appendTerm(tx, b, i, id); err != nil {
					return err
				}
			}
			b = append(b, ']')
			rows++
			if s.overBudget(b) {
				return s.budgetError()
			}
			return nil
		})
	if err != nil {
		return queryError(err)
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(rows), 10)
	if truncated {
		s.met.onTruncated()
		b = append(b, `,"truncated":true`...)
	}
	if req.Trace {
		tj := &traceJSON{PlanOrder: explain.PlanOrder, Rows: explain.Rows, TotalUS: explain.Total.Microseconds()}
		for _, st := range explain.Stages {
			tj.Stages = append(tj.Stages, stageJSON{
				Index: st.Index, Pattern: st.Pattern, In: st.InBindings, Candidates: st.Candidates,
				Out: st.OutBindings, EstRows: st.EstRows, DurationUS: st.Duration.Microseconds(),
			})
		}
		enc, err := json.Marshal(tj)
		if err != nil {
			return err
		}
		b = append(append(b, `,"trace":`...), enc...)
	}
	return s.writeBody(ctx, w, append(b, '}'))
}

// queryError classifies a match failure: parse and planning problems are
// the client's (400), budget and cancellation are typed upstream.
func queryError(err error) error {
	var ae *apiError
	switch {
	case errors.As(err, &ae),
		errors.Is(err, match.ErrBudget),
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

	// The body is the findResponse encoding, resolved in the view that
	// found the links.
	b := make([]byte, 0, bodyStart)
	n, truncated := 0, false
	tk := viewTicker{ctx: ctx}
	memo := make(rowMemo, 3)
	err = s.cfg.Backend.Store().ReadView(ctx, func(tx *core.ReadTx) error {
		links, err := tx.FindLocked(nil, models, pat, limit+1)
		if err != nil {
			return err
		}
		b = append(b, `{"triples":[`...)
		for _, l := range links {
			if err := tk.tick(); err != nil {
				return err
			}
			if n == limit {
				truncated = true
				break
			}
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"s":`...)
			if b, err = memo.appendTerm(tx, b, 0, l.SID); err == nil {
				b = append(b, `,"p":`...)
				if b, err = memo.appendTerm(tx, b, 1, l.PID); err == nil {
					b = append(b, `,"o":`...)
					b, err = memo.appendTerm(tx, b, 2, l.OID)
				}
			}
			if err != nil {
				return fmt.Errorf("resolving triple %d: %w", l.TID, err)
			}
			b = append(b, '}')
			n++
			if s.overBudget(b) {
				return s.budgetError()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	if truncated {
		s.met.onTruncated()
		b = append(b, `,"truncated":true`...)
	}
	return s.writeBody(ctx, w, append(b, '}'))
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

	// The analysis yields node IDs; the answer is then resolved and
	// encoded in one read view.
	found := true // a node list is always found; a path may not be
	var (
		cost float64
		path []int64        // shortest_path
		ncs  []ndm.NodeCost // the node-list ops
	)
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
		p, err := ndm.ShortestPathCtx(ctx, g, src, dst)
		switch {
		case errors.Is(err, ndm.ErrNoPath):
			found = false
		case err != nil:
			return err
		default:
			cost, path = p.Cost, p.Nodes
		}
	case "within_cost":
		if ncs, err = ndm.WithinCost(ctx, g, src, req.MaxCost); err != nil {
			return err
		}
	case "nearest":
		k := req.K
		if k <= 0 || k > limit {
			k = limit
		}
		if ncs, err = ndm.NearestNeighbors(ctx, g, src, k); err != nil {
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
		ncs = make([]ndm.NodeCost, len(nodes))
		for i, n := range nodes {
			ncs[i] = ndm.NodeCost{Node: n}
		}
	default:
		return errBadRequest("unknown op %q (want shortest_path, within_cost, nearest, or reachable)", req.Op)
	}
	truncated := len(ncs) > limit
	if truncated {
		ncs = ncs[:limit]
		s.met.onTruncated()
	}

	// The body is the traverseResponse encoding: cost, path and nodes are
	// omitted when zero or empty.
	b := append(rdfterm.AppendJSONString(append(make([]byte, 0, bodyStart), `{"op":`...), req.Op), `,"found":`...)
	b = strconv.AppendBool(b, found)
	if cost != 0 {
		b = appendJSONFloat(append(b, `,"cost":`...), cost)
	}
	tk := viewTicker{ctx: ctx}
	err = st.ReadView(ctx, func(tx *core.ReadTx) error {
		if len(path) > 0 {
			b = append(b, `,"path":[`...)
			for i, node := range path {
				if err := tk.tick(); err != nil {
					return err
				}
				if i > 0 {
					b = append(b, ',')
				}
				var err error
				if b, err = tx.AppendTermJSONLocked(b, node); err != nil {
					return err
				}
				if s.overBudget(b) {
					return s.budgetError()
				}
			}
			b = append(b, ']')
		}
		if len(ncs) > 0 {
			b = append(b, `,"nodes":[`...)
			for i, nc := range ncs {
				if err := tk.tick(); err != nil {
					return err
				}
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"node":`...)
				var err error
				if b, err = tx.AppendTermJSONLocked(b, nc.Node); err != nil {
					return err
				}
				b = append(appendJSONFloat(append(b, `,"cost":`...), nc.Cost), '}')
				if s.overBudget(b) {
					return s.budgetError()
				}
			}
			b = append(b, ']')
		}
		return nil
	})
	if err != nil {
		return err
	}
	b = strconv.AppendInt(append(b, `,"count":`...), int64(len(path)+len(ncs)), 10)
	if truncated {
		b = append(b, `,"truncated":true`...)
	}
	return s.writeBody(ctx, w, append(b, '}'))
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation, in exponent form only below 1e-6 or from 1e21
// on, with a one-digit exponent left unpadded. Costs are finite sums of
// link costs, never NaN or infinite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
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
