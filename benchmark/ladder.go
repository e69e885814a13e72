package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/match"
	"repro/internal/ndm"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/rdfterm"
	"repro/internal/reify"
	"repro/internal/reldb"
	"repro/internal/server"
	"repro/internal/supervise"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The ladder issues the same operation once at every rung of the stack,
// top to bottom, through each layer's public entry point, with a span
// around each call. A layer's self time is its rung minus the rungs
// below it. Everything runs in this process on one goroutine, so the
// counts repeat exactly and the times exclude the scheduler.
//
//	reads    http → server.handler → supervise → core → reldb → btree
//	queries  http → server.handler → match
//	         http → server.handler → ndm
//	writes   http → server.handler → supervise → core (WAL-less) → reldb → btree
//	                                           ↘ wal (the same records, appended and committed)
//
// Write rungs cannot repeat an insert, so each takes the next batch of
// the same generator: disjoint, equivalent work.
const (
	ladderOps      = 120 // operations per kind
	ladderBigOps   = 24  // insert512: 512 triples each
	rungHTTP       = "http"
	rungHandler    = "server.handler"
	rungSupervise  = "supervise"
	rungCore       = "core"
	rungWAL        = "wal"
	rungMatch      = "match"
	rungNDM        = "ndm"
	rungReldb      = "reldb"
	rungBtree      = "btree"
	selfSumSlack   = 0.15
	shippedSlow    = 100 * time.Millisecond // rdfserve's -trace-slow
	shippedSample  = 0.01                   // -trace-sample
	shippedStore   = 256                    // -trace-store
	loaderBatch    = 1024                   // rdfserve's -load batch size
	serverMaxRows  = 10000                  // -max-rows
	serverBindings = 1 << 20                // -max-bindings
)

// ladderRow is one rung of one operation kind in the results file.
type ladderRow struct {
	Kind    string  `json:"kind"`
	Rung    string  `json:"rung"`
	Parent  string  `json:"parent,omitempty"`
	N       int     `json:"n"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func printLadder(rows []ladderRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Println("ladder (median µs per operation; self = rung − rungs below):")
	fmt.Printf("  %-14s %-16s %-16s %5s %12s %12s\n", "kind", "rung", "under", "n", "total", "self")
	for _, r := range rows {
		fmt.Printf("  %-14s %-16s %-16s %5d %12.1f %12.1f\n", r.Kind, r.Rung, r.Parent, r.N, r.TotalUS, r.SelfUS)
	}
}

// rig is the in-process stack the ladder climbs.
type rig struct {
	ds  *dataset
	rec *spanRecorder
	dir string

	reg     *obs.Registry
	sv      *supervise.Supervisor // loaded the way rdfserve -wal-dir -load loads
	shipped *server.Server        // registry and tracer as rdfserve builds them
	bare    *server.Server        // both nil, over the same backend
	ln      net.Listener
	served  chan error
	hc      *http.Client

	plain   *core.Store // WAL-less twin for the core write rung
	capture *recordSink // collects the records plain would have logged
	log     *wal.Dir    // stand-alone log for the wal rung

	links  *reldb.Table // rdf_link$-shaped, the store's six indexes
	values *reldb.Table // rdf_value$-shaped
	mspo   *reldb.Index
	valPK  *reldb.Index
	tree   *btree.Tree[reldb.Key]
	nextID int64

	explained map[opKind]*explainStats
	m         map[string]metric
}

// recordSink is a core.Durability that keeps the records of the current
// mutation instead of writing them.
type recordSink struct{ records []wal.Record }

func (s *recordSink) Append(r wal.Record) error { s.records = append(s.records, r); return nil }
func (s *recordSink) Commit() error             { return nil }

func (g *rig) set(name string, v float64, unit string) { g.m[name] = metric{v, unit} }

// runTraced produces every per-layer metric for one workload: a short
// end-to-end phase with a span around every request (for the server's
// own counters and the generator's lateness), then the in-process
// ladder and the micro measurements on the workload's key distribution.
func runTraced(ctx context.Context, w *workload, ds *dataset, bin, dir string, seconds int, spansPath string) (*runResult, error) {
	rec := newSpanRecorder()
	res, err := runEndToEnd(ctx, w, ds, bin, dir, max(seconds/3, 3), rec)
	if err != nil {
		return nil, err
	}
	res.Seconds = seconds
	res.Metrics = map[string]metric{} // the end-to-end metrics of a traced run are not the benchmark's
	g := &rig{ds: ds, rec: rec, dir: dir, m: res.Metrics, explained: map[opKind]*explainStats{}}

	fixed := res.Phases[len(res.Phases)-1]
	g.set("bench.generator_late_ms", fixed.LateMeanMS, "ms")
	c := res.Counters
	if n := c["server_admission_wait_seconds_count"]; n > 0 {
		g.set("server.admission_wait_ms", c["server_admission_wait_seconds_sum"]/n*1000, "ms")
	} else {
		g.set("server.admission_wait_ms", 0, "ms")
	}
	rejected := c["server_rejected_queue_full_total"] + c["server_rejected_wait_timeout_total"] + c["server_rejected_tenant_total"] +
		c["server_rejected_health_total"] + c["server_rejected_drain_total"]
	g.set("server.rejected_share", rejected/math.Max(rejected+c["server_admitted_total"], 1), "1")

	if err := g.build(ctx); err != nil {
		return nil, err
	}
	defer g.close()
	if err := g.climb(ctx, w.dist); err != nil {
		return nil, err
	}
	if err := g.micro(); err != nil {
		return nil, err
	}
	if err := g.recovery(); err != nil {
		return nil, err
	}

	folded := foldSpans(rec.spans)
	res.Ladder = ladderRows(folded)
	g.ladderMetrics(folded)
	for _, p := range checkSelfSums(rec.spans) {
		res.warn("%s", p)
	}
	for _, m := range perLayer {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			res.problem("per-layer metric %s (%s) was not measured", m.name, m.unit)
		}
	}
	if err := rec.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// build loads the dataset into the stores the rungs need, timing the
// set-up path layer by layer on the way.
func (g *rig) build(ctx context.Context) error {
	raw, err := os.ReadFile(g.ds.path)
	if err != nil {
		return err
	}
	// load/ntriples: the parse rdfserve's loader runs.
	t0 := time.Now()
	triples, err := load.Parse(bytes.NewReader(raw), load.Options{Workers: 1})
	if err != nil {
		return err
	}
	parse := time.Since(t0)
	n := float64(len(triples))
	g.set("load.parse_ns_per_triple", float64(parse.Nanoseconds())/n, "ns")

	// core, WAL-less: the loader's whole path, with heap accounting.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g.plain = core.New()
	if _, err := g.plain.CreateRDFModel(modelName, "", ""); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := (&reify.Loader{Store: g.plain, Model: modelName, Policy: reify.DropIncomplete, BatchSize: loaderBatch}).LoadTriples(triples); err != nil {
		return err
	}
	loadAll := time.Since(t0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	stored := float64(g.plain.TotalTriples())
	g.set("core.heap_bytes_per_triple", float64(after.HeapAlloc-before.HeapAlloc)/stored, "B")
	rows := 0
	db := g.plain.Database()
	for _, name := range db.TableNames() {
		rows += db.MustTable(name).Len()
	}
	g.set("core.rows_per_triple", float64(rows)/stored, "1")

	// reify: the loader minus the InsertBatch rung — the same statements
	// without their quads, straight into a store in the loader's batches.
	var batch []core.BatchTriple
	quadSubject := func(t ntriples.Triple) bool { return t.Subject.Kind == rdfterm.Blank }
	scratch := core.New()
	if _, err := scratch.CreateRDFModel(modelName, "", ""); err != nil {
		return err
	}
	var insertOnly time.Duration
	flush := func() error {
		t0 := time.Now()
		_, err := scratch.InsertBatchCtx(ctx, modelName, batch)
		insertOnly += time.Since(t0)
		batch = batch[:0]
		return err
	}
	for _, t := range triples {
		if quadSubject(t) {
			continue
		}
		batch = append(batch, core.BatchTriple{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object})
		if len(batch) == loaderBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	g.set("reify.fold_ns_per_triple", math.Max(float64((loadAll-insertOnly).Nanoseconds()), 0)/n, "ns")

	// The supervised store, as rdfserve -wal-dir -snapshot -load builds it.
	g.reg = obs.NewRegistry()
	tracer := trace.New(trace.Config{SlowThreshold: shippedSlow, SampleRate: shippedSample, Capacity: shippedStore})
	g.sv, err = supervise.Open(supervise.Config{
		WALDir: filepath.Join(g.dir, "ladder-wal"), SnapshotPath: filepath.Join(g.dir, "ladder.snap"),
		Obs: g.reg, Tracer: tracer,
	})
	if err != nil {
		return err
	}
	err = g.sv.Mutate(func(st *core.Store) error {
		if _, err := st.CreateRDFModel(modelName, "", ""); err != nil {
			return err
		}
		_, err := (&reify.Loader{Store: st, Model: modelName, Policy: reify.DropIncomplete, BatchSize: loaderBatch}).LoadTriples(triples)
		return err
	})
	if err != nil {
		return err
	}
	mk := func(reg *obs.Registry, tr *trace.Tracer) (*server.Server, error) {
		return server.New(server.Config{Backend: g.sv, DefaultModels: []string{modelName}, Registry: reg, Tracer: tr})
	}
	if g.shipped, err = mk(g.reg, tracer); err != nil {
		return err
	}
	if g.bare, err = mk(nil, nil); err != nil {
		return err
	}
	if g.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	g.served = make(chan error, 1)
	go func() { g.served <- g.shipped.Serve(g.ln) }()
	g.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}

	g.capture = &recordSink{}
	g.plain.SetDurability(g.capture)
	if g.log, _, err = wal.OpenDir(filepath.Join(g.dir, "rung-wal"), 0, wal.DirOptions{}); err != nil {
		return err
	}
	return g.buildTables(len(triples))
}

// buildTables makes the reldb and btree rungs' data: an rdf_link$-
// shaped table with the store's six indexes and as many rows as the
// store has links, an rdf_value$-shaped table, and a bare tree of the
// same size.
func (g *rig) buildTables(n int) error {
	g.links = reldb.NewTable(reldb.NewSchema("link",
		reldb.Column{Name: "LINK_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "START_NODE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "P_VALUE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "END_NODE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "CANON_END_NODE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "LINK_TYPE", Kind: reldb.KindString},
		reldb.Column{Name: "COST", Kind: reldb.KindInt},
		reldb.Column{Name: "CONTEXT", Kind: reldb.KindString},
		reldb.Column{Name: "REIF_LINK", Kind: reldb.KindString},
		reldb.Column{Name: "MODEL_ID", Kind: reldb.KindInt},
	))
	var err error
	index := func(name string, unique bool, cols ...string) *reldb.Index {
		ix, e := g.links.CreateIndex(name, unique, cols...)
		if e != nil && err == nil {
			err = e
		}
		return ix
	}
	index("pk", true, "LINK_ID")
	g.mspo = index("mspo", true, "MODEL_ID", "START_NODE_ID", "P_VALUE_ID", "CANON_END_NODE_ID")
	index("mp", false, "MODEL_ID", "P_VALUE_ID")
	index("mo", false, "MODEL_ID", "CANON_END_NODE_ID")
	index("start", false, "START_NODE_ID")
	index("end", false, "END_NODE_ID")
	if err != nil {
		return err
	}
	g.values = reldb.NewTable(reldb.NewSchema("value",
		reldb.Column{Name: "VALUE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "VALUE_NAME", Kind: reldb.KindString},
		reldb.Column{Name: "VALUE_TYPE", Kind: reldb.KindString},
	))
	if g.valPK, err = g.values.CreateIndex("pk", true, "VALUE_ID"); err != nil {
		return err
	}
	if _, err = g.values.CreateIndex("text", true, "VALUE_NAME"); err != nil {
		return err
	}
	g.tree = btree.New[reldb.Key](reldb.KeyCompare)
	// Twelve links per subject, like a protein.
	for i := 0; i < n; i++ {
		if err := g.insertLinkRow(); err != nil {
			return err
		}
		if i%2 == 0 {
			if err := g.insertValueRow(); err != nil {
				return err
			}
		}
		g.tree.Insert(reldb.Key{reldb.Int(1), reldb.Int(g.nextID / 12), reldb.Int(g.nextID % 12), reldb.Int(g.nextID)}, g.nextID)
	}
	return nil
}

func (g *rig) insertLinkRow() error {
	g.nextID++
	id := g.nextID
	_, err := g.links.Insert(reldb.Row{
		reldb.Int(id), reldb.Int(id / 12), reldb.Int(id % 12), reldb.Int(id), reldb.Int(id),
		reldb.String_("STANDARD"), reldb.Int(1), reldb.String_("D"), reldb.String_("N"), reldb.Int(1),
	})
	return err
}

func (g *rig) insertValueRow() error {
	id := g.nextID
	_, err := g.values.Insert(reldb.Row{reldb.Int(id), reldb.String_(fmt.Sprintf("urn:lsid:uniprot.org:bench:%d", id)), reldb.String_("UR")})
	return err
}

func (g *rig) close() {
	if g.ln != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		g.shipped.Shutdown(ctx)
		cancel()
		<-g.served
	}
	if g.hc != nil {
		g.hc.CloseIdleConnections()
	}
	if g.log != nil {
		g.log.Close()
	}
	if g.sv != nil {
		g.sv.Close()
	}
}

// span runs fn inside a span of the ladder.
func (g *rig) span(op int, kind opKind, rung string, parent int, fn func() error) (int, error) {
	id := g.rec.start(op, kind.String(), rung, parent)
	err := fn()
	g.rec.end(id)
	if err != nil {
		return id, fmt.Errorf("ladder %s at %s: %w", kind, rung, err)
	}
	return id, nil
}

// climb runs the ladder for every operation kind.
func (g *rig) climb(ctx context.Context, dist keyDist) error {
	gen := newReqGen(g.ds, dist, 9)
	op := 1 << 20 // clear of the end-to-end phase's operation ids
	for kind := opKind(0); kind < numOps; kind++ {
		n := ladderOps
		if kind == opInsert512 {
			n = ladderBigOps
		}
		// What the supervised store logs for the batches of 8: with one
		// client these counts repeat exactly.
		walDir := filepath.Join(g.dir, "ladder-wal")
		var bytesBefore, fsyncsBefore int64
		if kind == opInsert8 {
			var err error
			if bytesBefore, err = dirBytes(walDir); err != nil {
				return err
			}
			fsyncsBefore = g.fsyncs()
		}
		for i := 0; i < n; i++ {
			op++
			var err error
			switch {
			case kind.isInsert():
				err = g.climbInsert(ctx, op, kind, gen)
			default:
				err = g.climbRead(ctx, op, gen.next(kind))
			}
			if err != nil {
				return err
			}
		}
		if kind == opInsert8 {
			// Three rungs of every operation insert through the supervised
			// store: by HTTP, by the handler, by the supervisor.
			bytesAfter, err := dirBytes(walDir)
			if err != nil {
				return err
			}
			inserts := float64(3 * n)
			g.set("wal.bytes_per_triple", float64(bytesAfter-bytesBefore)/(inserts*8), "B")
			g.set("wal.fsyncs_per_insert", float64(g.fsyncs()-fsyncsBefore)/inserts, "count")
		}
	}
	return nil
}

// fsyncs reads the supervised store's WAL fsync counter.
func (g *rig) fsyncs() int64 {
	c, _ := g.reg.Snapshot().Counter("wal_fsyncs_total")
	return c.Value
}

// viaHTTP sends r over the loopback connection and checks the answer.
func (g *rig) viaHTTP(ctx context.Context, r *request) error {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, "http://"+g.ln.Addr().String()+r.path, body)
	if err != nil {
		return err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return r.check(resp.StatusCode, b)
}

// viaHandler calls the server's handler directly on a recorder.
func viaHandler(ctx context.Context, s *server.Server, r *request) error {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, r.path, body).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return r.check(w.Code, w.Body.Bytes())
}

func expect(kind opKind, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: %d results, want %d", kind, got, want)
	}
	return nil
}

func (g *rig) climbRead(ctx context.Context, op int, r *request) error {
	top, err := g.span(op, r.kind, rungHTTP, -1, func() error { return g.viaHTTP(ctx, r) })
	if err != nil {
		return err
	}
	handler, err := g.span(op, r.kind, rungHandler, top, func() error { return viaHandler(ctx, g.shipped, r) })
	if err != nil {
		return err
	}
	st := g.sv.Store()
	models := []string{modelName}
	switch r.kind {
	case opFindS, opFindSPO:
		pat := core.Pattern{Subject: core.P(rdfterm.NewURI(r.subject))}
		if r.kind == opFindSPO {
			pat.Predicate, pat.Object = core.P(rdfterm.NewURI(r.pred)), core.P(rdfterm.NewURI(r.object))
		}
		resolve := func(found []core.TripleS) error {
			for _, ts := range found {
				if _, err := ts.GetTriple(); err != nil {
					return err
				}
			}
			return expect(r.kind, len(found), r.wantCount)
		}
		sup, err := g.span(op, r.kind, rungSupervise, handler, func() error {
			found, err := g.sv.FindModels(ctx, models, pat)
			if err != nil {
				return err
			}
			return resolve(found)
		})
		if err != nil {
			return err
		}
		coreSpan, err := g.span(op, r.kind, rungCore, sup, func() error {
			found, err := st.FindModelsCtx(ctx, models, pat)
			if err != nil {
				return err
			}
			return resolve(found)
		})
		if err != nil {
			return err
		}
		// The table and index operations a find of k rows comes to: one
		// prefix scan of the (model, subject, …) index with its k row
		// fetches, and three value fetches by key per row.
		k := r.wantCount
		subject := 1 + int64(op)%(g.nextID/12-1)
		rel, err := g.span(op, r.kind, rungReldb, coreSpan, func() error {
			got := 0
			g.mspo.ScanPrefixRows(reldb.Key{reldb.Int(1), reldb.Int(subject)}, func(_ reldb.Key, _ reldb.RowID, row reldb.Row) bool {
				for _, col := range []int{1, 2, 3} {
					if id, ok := g.valPK.LookupOne(reldb.Key{reldb.Int(row[col].Int64() &^ 1)}); ok {
						if _, err := g.values.Get(id); err != nil {
							return false
						}
					}
				}
				got++
				return got < k
			})
			return nil
		})
		if err != nil {
			return err
		}
		_, err = g.span(op, r.kind, rungBtree, rel, func() error {
			got := 0
			lo := reldb.Key{reldb.Int(1), reldb.Int(subject)}
			g.tree.AscendRange(&lo, nil, func(key reldb.Key, _ int64) bool {
				for i := 0; i < 3; i++ {
					g.tree.Get(key)
				}
				got++
				return got < k
			})
			return nil
		})
		return err

	case opQueryOne, opChain3, opStar, opFilterOrder:
		opts := match.Options{Models: models, Filter: r.filter, Distinct: r.distinct, OrderBy: r.orderBy,
			Limit: serverMaxRows, MaxBindings: serverBindings}
		_, err := g.span(op, r.kind, rungMatch, handler, func() error {
			rs, err := match.MatchContext(ctx, st, r.query, opts)
			if err != nil {
				return err
			}
			return expect(r.kind, rs.Len(), r.wantCount)
		})
		if err != nil {
			return err
		}
		// Once more with EXPLAIN on, outside the ladder, for the stage
		// times and the planner's estimates.
		var tr match.Trace
		opts.Trace = &tr
		if _, err := match.MatchContext(ctx, st, r.query, opts); err != nil {
			return err
		}
		g.explain(r.kind, &tr)
		return nil

	default: // traversals
		_, err := g.span(op, r.kind, rungNDM, handler, func() error {
			network, err := st.Network(models...)
			if err != nil {
				return err
			}
			graph := network.WithContext(ctx)
			src, ok := network.NodeID(rdfterm.NewURI(r.subject))
			if !ok {
				return fmt.Errorf("no node for %s", r.subject)
			}
			if r.kind == opReachable {
				nodes, err := ndm.ReachableCtx(ctx, graph, src, 3)
				if err != nil {
					return err
				}
				return expect(r.kind, len(nodes), r.wantCount)
			}
			dst, ok := network.NodeID(rdfterm.NewURI(r.object))
			if !ok {
				return fmt.Errorf("no node for %s", r.object)
			}
			path, err := ndm.ShortestPathCtx(ctx, graph, src, dst)
			if !r.wantFound {
				if err == nil {
					return fmt.Errorf("found a path to %s, want none", r.object)
				}
				return nil
			}
			if err != nil {
				return err
			}
			return expect(r.kind, len(path.Nodes), r.wantCount)
		})
		return err
	}
}

// explainStats accumulates the EXPLAIN records of one query kind.
type explainStats struct {
	total, stages time.Duration
	candidates    int
	rows          int
	n             int
	qerr          float64
}

func (g *rig) explain(kind opKind, tr *match.Trace) {
	e := g.explained[kind]
	if e == nil {
		e = &explainStats{}
		g.explained[kind] = e
	}
	e.n++
	e.total += tr.Total
	e.rows += tr.Rows
	for _, s := range tr.Stages {
		e.stages += s.Duration
		e.candidates += s.Candidates
		if s.EstRows >= 0 {
			// +1 on both sides keeps an empty stage from dividing by zero.
			est, out := s.EstRows+1, float64(s.OutBindings)+1
			e.qerr = math.Max(e.qerr, math.Max(est/out, out/est))
		}
	}
}

func parseBatch(r *request) ([]core.BatchTriple, error) {
	aliases := rdfterm.Default()
	batch := make([]core.BatchTriple, len(r.triples))
	for i, t := range r.triples {
		s, err := rdfterm.ParseSubject(t[0], aliases)
		if err != nil {
			return nil, err
		}
		p, err := rdfterm.ParsePredicate(t[1], aliases)
		if err != nil {
			return nil, err
		}
		o, err := rdfterm.ParseObject(t[2], aliases)
		if err != nil {
			return nil, err
		}
		batch[i] = core.BatchTriple{Subject: s, Predicate: p, Object: o}
	}
	return batch, nil
}

func (g *rig) climbInsert(ctx context.Context, op int, kind opKind, gen *reqGen) error {
	r := gen.next(kind)
	top, err := g.span(op, kind, rungHTTP, -1, func() error { return g.viaHTTP(ctx, r) })
	if err != nil {
		return err
	}
	r = gen.next(kind)
	handler, err := g.span(op, kind, rungHandler, top, func() error { return viaHandler(ctx, g.shipped, r) })
	if err != nil {
		return err
	}
	insert := func(do func(batch []core.BatchTriple) (core.BatchResult, error)) func() error {
		batch, perr := parseBatch(gen.next(kind))
		return func() error {
			if perr != nil {
				return perr
			}
			res, err := do(batch)
			if err != nil {
				return err
			}
			return expect(kind, res.NewLinks, len(batch))
		}
	}
	sup, err := g.span(op, kind, rungSupervise, handler, insert(func(b []core.BatchTriple) (core.BatchResult, error) {
		return g.sv.InsertBatch(modelName, b)
	}))
	if err != nil {
		return err
	}
	g.capture.records = g.capture.records[:0]
	coreSpan, err := g.span(op, kind, rungCore, sup, insert(func(b []core.BatchTriple) (core.BatchResult, error) {
		return g.plain.InsertBatchCtx(ctx, modelName, b)
	}))
	if err != nil {
		return err
	}
	// wal: the records that batch logs, appended and committed.
	if _, err := g.span(op, kind, rungWAL, sup, func() error {
		for _, rec := range g.capture.records {
			if err := g.log.Append(rec); err != nil {
				return err
			}
		}
		return g.log.Commit()
	}); err != nil {
		return err
	}
	// reldb: the row inserts the batch comes to — one link row per
	// triple, one value row per new term (about half the triples).
	n := len(r.triples)
	rel, err := g.span(op, kind, rungReldb, coreSpan, func() error {
		for i := 0; i < n; i++ {
			if err := g.insertLinkRow(); err != nil {
				return err
			}
			if i%2 == 0 {
				if err := g.insertValueRow(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// btree: the index entries those rows come to — six per link row,
	// two per value row.
	_, err = g.span(op, kind, rungBtree, rel, func() error {
		for i := 0; i < n*7; i++ {
			g.nextID++
			g.tree.Insert(reldb.Key{reldb.Int(1), reldb.Int(g.nextID / 12), reldb.Int(g.nextID % 12), reldb.Int(g.nextID)}, g.nextID)
		}
		return nil
	})
	return err
}

// rungOrder lists the ladder's rungs top to bottom.
var rungOrder = map[string]int{rungHTTP: 0, rungHandler: 1, rungSupervise: 2, rungMatch: 2, rungNDM: 2, rungCore: 3, rungWAL: 4, rungReldb: 5, rungBtree: 6}

func ladderRows(folded map[rungKey]rungStat) []ladderRow {
	kinds := map[string]int{}
	for k := opKind(0); k < numOps; k++ {
		kinds[k.String()] = int(k)
	}
	var rows []ladderRow
	for k, s := range folded {
		if _, ok := rungOrder[k.name]; !ok {
			continue
		}
		rows = append(rows, ladderRow{Kind: k.kind, Rung: k.name, Parent: s.parent, N: s.n, TotalUS: us(s.total), SelfUS: us(s.self)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Kind != rows[j].Kind {
			return kinds[rows[i].Kind] < kinds[rows[j].Kind]
		}
		return rungOrder[rows[i].Rung] < rungOrder[rows[j].Rung]
	})
	return rows
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// checkSelfSums verifies the ladder adds up. For one operation the self
// times of its rungs sum to its top rung exactly, unless a rung is
// slower than the rung above it: a negative self time, counted as zero,
// leaves the sum too large. Per operation kind, the median operation's
// sum must be within selfSumSlack of its top rung, or the rungs did not
// measure the same work.
func checkSelfSums(spans []span) []string {
	childSum := make(map[int]time.Duration)
	for _, s := range spans {
		if _, ok := rungOrder[s.Name]; ok && s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	type opSum struct{ top, sum time.Duration }
	ops := map[int]*opSum{}
	kindOf := map[int]string{}
	for _, s := range spans {
		if _, ok := rungOrder[s.Name]; !ok {
			continue // spans outside the ladder
		}
		o := ops[s.Op]
		if o == nil {
			o = &opSum{}
			ops[s.Op], kindOf[s.Op] = o, s.Kind
		}
		if s.Name == rungHTTP {
			o.top = s.dur()
		}
		o.sum += max(s.dur()-childSum[s.ID], 0)
	}
	off := map[string][]float64{}
	for op, o := range ops {
		if o.top > 0 {
			off[kindOf[op]] = append(off[kindOf[op]], float64(o.sum-o.top)/float64(o.top))
		}
	}
	var problems []string
	for kind, v := range off {
		if m := medianFloat(v); m > selfSumSlack {
			problems = append(problems, fmt.Sprintf("ladder %s: the median operation's self times sum to %.0f%% more than its top rung (allowed %.0f%%)",
				kind, m*100, selfSumSlack*100))
		}
	}
	sort.Strings(problems)
	return problems
}

// ladderMetrics turns the folded ladder into the declared per-layer
// metrics.
func (g *rig) ladderMetrics(f map[rungKey]rungStat) {
	self := func(kind opKind, rung string) float64 { return math.Max(us(f[rungKey{kind.String(), rung}].self), 0) }
	total := func(kind opKind, rung string) float64 { return us(f[rungKey{kind.String(), rung}].total) }
	mean := func(rung string, kinds ...opKind) float64 {
		s := 0.0
		for _, k := range kinds {
			s += self(k, rung)
		}
		return s / float64(len(kinds))
	}
	g.set("server.transport_us", self(opFindS, rungHTTP), "us")
	g.set("server.find.self_us", mean(rungHandler, opFindS, opFindSPO), "us")
	g.set("server.query.self_us", mean(rungHandler, opQueryOne, opChain3, opStar, opFilterOrder), "us")
	g.set("server.traverse.self_us", mean(rungHandler, opReachable, opShortest), "us")
	g.set("server.insert.self_us", self(opInsert8, rungHandler), "us")
	g.set("supervise.read_overhead_us", self(opFindS, rungSupervise), "us")
	g.set("supervise.mutate_overhead_us", self(opInsert8, rungSupervise), "us")
	g.set("core.find_subject_us", total(opFindS, rungCore), "us")
	g.set("core.find_spo_us", total(opFindSPO, rungCore), "us")
	g.set("core.insert_ns_per_triple.b8", total(opInsert8, rungCore)*1000/8, "ns")
	g.set("core.insert_ns_per_triple.b512", total(opInsert512, rungCore)*1000/512, "ns")
	g.set("match.exec_us.chain3", total(opChain3, rungMatch), "us")
	g.set("match.exec_us.star", total(opStar, rungMatch), "us")
	g.set("match.exec_us.filter_order", total(opFilterOrder, rungMatch), "us")
	g.set("ndm.reachable_us", total(opReachable, rungNDM), "us")
	g.set("ndm.shortest_path_us", total(opShortest, rungNDM), "us")

	var overhead, stages time.Duration
	var cands, rows, planned int
	qerr := 0.0
	for kind, e := range g.explained {
		if kind == opQueryOne || kind == opChain3 {
			// Small results: what is left outside the stages is parsing,
			// statistics and planning, not the resolution of many rows.
			overhead += e.total - e.stages
			planned += e.n
		}
		stages += e.stages
		cands += e.candidates
		rows += e.rows
		qerr = math.Max(qerr, e.qerr)
	}
	g.set("match.plan_overhead_us", us(overhead)/float64(max(planned, 1)), "us")
	g.set("match.candidates_per_row", float64(cands)/float64(max(rows, 1)), "1")
	g.set("match.qerror_max", qerr, "1")
}
