// Package server is the multi-tenant HTTP query surface over the RDF
// store: SDO_RDF_MATCH-style pattern queries, single-pattern finds, and
// NDM graph traversals served from one cancellable read surface, with
// the robustness posture of a store that expects to be overloaded,
// degraded, and shut down while requests are in flight:
//
//   - Deadlines. Every request runs under a context deadline — the
//     client's ?timeout= clamped by the server's maximum, or the
//     server's default. The deadline propagates through the whole read
//     surface (match.MatchContext, core.Find, the NDM analyses), so an
//     abandoned query releases the store's read lock promptly. Response
//     writes carry a slow-client write deadline on top.
//   - Admission control. A weighted concurrency limiter with a bounded
//     FIFO wait queue fronts every endpoint; over-limit requests are
//     rejected with typed 429s (queue_full, wait_timeout, tenant_limit)
//     rather than queued unboundedly. See Limiter.
//   - Budgets. Result rows are capped (truncated responses say so),
//     join intermediates are bounded (match.ErrBudget → 413), and the
//     response body is assembled under a byte cap, so no single query
//     can exhaust the server's memory.
//   - Graceful degradation. The supervisor's health state gates
//     admission: Degraded/Recovering answer 503 with Retry-After while
//     recovery runs (configurably, reads may keep serving instead),
//     Failed answers 503 without one. Requests admitted before a
//     mid-flight transition run to completion under their deadline —
//     the in-memory image stays readable in every state.
//   - Containment. Handler panics become 500s plus an obs event, never
//     a process crash. Shutdown drains: stop accepting, give in-flight
//     requests a grace period, cancel their contexts, then close.
//
// The obs admin surface (/metrics, /healthz, /events, pprof) mounts
// under /debug. Wire format and tuning knobs are documented in
// SERVING.md.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/supervise"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Backend is the store surface the server queries. *supervise.Supervisor
// implements it; StoreBackend adapts a bare *core.Store for deployments
// without a durability layer (always Healthy).
type Backend interface {
	// Store returns the store for reads. Long queries re-fetch per
	// request — corruption recovery may swap the pointer.
	Store() *core.Store
	// State is the current health state; the server maps it to HTTP.
	State() supervise.State
	// Healthz is the admin /healthz payload.
	Healthz() obs.Health
	// Mutate runs one gated mutation (used by /insert).
	Mutate(func(*core.Store) error) error
}

// StoreBackend adapts a bare, always-Healthy *core.Store.
type StoreBackend struct{ S *core.Store }

func (b StoreBackend) Store() *core.Store                      { return b.S }
func (b StoreBackend) State() supervise.State                  { return supervise.Healthy }
func (b StoreBackend) Healthz() obs.Health                     { return obs.Health{Healthy: true, State: "Healthy"} }
func (b StoreBackend) Mutate(fn func(*core.Store) error) error { return fn(b.S) }

// DegradedReads selects what a read endpoint does when the supervisor
// is not Healthy.
type DegradedReads int

const (
	// RejectDegraded (default) sheds read load with 503 + Retry-After
	// while the store is Degraded/Recovering/Failed, so the recovery
	// loop is not competing with query traffic.
	RejectDegraded DegradedReads = iota
	// ServeDegraded keeps serving reads in every state — the in-memory
	// image is authoritative and safe to read while mutations are
	// rejected. Writes still require Healthy either way.
	ServeDegraded
)

func (d DegradedReads) String() string {
	if d == ServeDegraded {
		return "ServeDegraded"
	}
	return "RejectDegraded"
}

// Config configures New. The zero value of every field takes the
// documented default.
type Config struct {
	// Backend serves the queries (required).
	Backend Backend
	// DefaultModels scopes requests that name no models of their own.
	// Empty means clients must always name their models.
	DefaultModels []string
	// Registry receives the server's metrics and events and backs the
	// /debug admin surface; nil disables instrumentation.
	Registry *obs.Registry
	// Tracer records per-request span trees with tail-based sampling
	// and backs /debug/traces; nil disables tracing with zero overhead
	// (no span, no clock reads, no headers). See internal/trace.
	Tracer *trace.Tracer

	// MaxInflight is the limiter capacity in weight units (default 64).
	// Endpoint weights: query 4, traverse 4, insert 2, find 1.
	MaxInflight int64
	// MaxQueue bounds the admission wait queue (default 128; 0 rejects
	// everything that cannot be admitted immediately).
	MaxQueue int
	// QueueWait bounds how long a request may wait for admission
	// (default 1s; additionally clamped by the request deadline).
	QueueWait time.Duration
	// TenantCap caps one tenant's in-flight weight (X-Tenant header;
	// requests without the header share the "" tenant). 0 disables.
	TenantCap int64

	// DefaultTimeout bounds requests that name no ?timeout= (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied timeouts (default 30s).
	MaxTimeout time.Duration
	// WriteSlack is the extra budget, past the query deadline, a slow
	// client gets to drain the response before its write deadline fires
	// (default 10s).
	WriteSlack time.Duration

	// MaxRows caps result rows per response (default 10000); responses
	// at the cap set "truncated": true.
	MaxRows int
	// MaxResultBytes caps the encoded response body (default 8 MiB);
	// larger results are rejected with 413 rather than streamed forever.
	MaxResultBytes int64
	// MaxBindings bounds a query's intermediate join bindings (default
	// 1<<20); exceeding it is a 413.
	MaxBindings int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxBatch caps triples per /insert (default 10000).
	MaxBatch int

	// DegradedReads selects the non-Healthy read policy (see type).
	DegradedReads DegradedReads
	// RetryAfter is the Retry-After hint on 429/503 (default 1s).
	RetryAfter time.Duration
	// DrainGrace is how long Shutdown lets in-flight requests finish
	// before cancelling their contexts (default 2s).
	DrainGrace time.Duration
}

// Server is the HTTP query server. Create with New, serve with Serve or
// mount Handler, stop with Shutdown.
type Server struct {
	cfg Config
	met *Metrics
	lim *Limiter
	mux *http.ServeMux

	baseCtx    context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool
	inflight   atomic.Int64

	httpMu sync.Mutex
	httpS  *http.Server
}

// New validates the config, applies defaults, and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("server: Config.Backend is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 128
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.WriteSlack <= 0 {
		cfg.WriteSlack = 10 * time.Second
	}
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = 10000
	}
	if cfg.MaxResultBytes <= 0 {
		cfg.MaxResultBytes = 8 << 20
	}
	if cfg.MaxBindings <= 0 {
		cfg.MaxBindings = 1 << 20
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 10000
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 2 * time.Second
	}

	//repro:vet-ignore ctxcheck process-lifetime base context: the server outlives any request, and every request derives its own deadline from this root in wrap
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		met:        NewMetrics(cfg.Registry),
		lim:        NewLimiter(cfg.MaxInflight, cfg.MaxQueue, cfg.TenantCap),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. The listener's
// requests inherit the server's base context, so Shutdown's cancel
// reaches every in-flight query.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       60 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	s.httpMu.Lock()
	s.httpS = hs
	s.httpMu.Unlock()
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: new requests are rejected with 503
// shutting_down, listeners stop accepting, in-flight requests get
// DrainGrace to finish, then their contexts are cancelled, and the
// connections close. Returns once every request has completed or ctx
// expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.met.onDrain("begin", s.inflight.Load())

	s.httpMu.Lock()
	hs := s.httpS
	s.httpMu.Unlock()

	// Let in-flight work finish inside the grace window…
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	drained := make(chan struct{})
	go func() {
		for s.inflight.Load() > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-grace.C:
	case <-ctx.Done():
	}

	// …then cancel whatever is still running. Every request context
	// derives from baseCtx, so this reaches each in-flight query's
	// cancellation polls.
	s.met.onDrain("cancel", s.inflight.Load())
	s.cancelBase()

	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	s.met.onDrain("closed", s.inflight.Load())
	return err
}

// endpoint describes one routed handler for the middleware chain.
type endpoint struct {
	name   string
	weight int64
	write  bool
	handle func(ctx context.Context, w http.ResponseWriter, r *http.Request) error
}

// buildMux assembles the routing table.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	// Method-less: a method pattern on "/" would conflict with the
	// method-less /debug mounts under Go 1.22 ServeMux precedence.
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("POST /query", s.wrap(endpoint{name: "query", weight: 4, handle: s.handleQuery}))
	mux.Handle("GET /find", s.wrap(endpoint{name: "find", weight: 1, handle: s.handleFind}))
	mux.Handle("POST /traverse", s.wrap(endpoint{name: "traverse", weight: 4, handle: s.handleTraverse}))
	mux.Handle("POST /insert", s.wrap(endpoint{name: "insert", weight: 2, write: true, handle: s.handleInsert}))

	// Admin surface under /debug: the obs handler serves /metrics,
	// /healthz, and /events relative to its root (strip the prefix) and
	// registers pprof natively at /debug/pprof (no strip — the more
	// specific pattern wins).
	admin := obs.NewHandler(s.cfg.Registry, func() obs.Health { return s.cfg.Backend.Healthz() })
	mux.Handle("/debug/pprof/", admin)
	mux.Handle("/debug/", http.StripPrefix("/debug", admin))

	// Trace explorer: list + single-trace lookup. More specific than
	// the /debug/ mount, so it wins under ServeMux precedence; mounted
	// even without a tracer (it then serves an empty list), so the URL
	// is stable across configurations.
	traces := http.StripPrefix("/debug/traces", trace.NewHandler(s.cfg.Tracer))
	mux.Handle("GET /debug/traces", traces)
	mux.Handle("GET /debug/traces/", traces)
	return mux
}

// wrap is the middleware chain shared by every query endpoint: root
// span, panic containment, drain gate, health gate, deadline derivation,
// slow-client write deadline, admission, and response accounting.
func (s *Server) wrap(ep endpoint) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}

		// Root span: opened before any gate so rejected requests are
		// traced too (and force-retained — a 429/503 postmortem is
		// exactly what the trace store is for). An incoming W3C
		// traceparent continues the caller's trace; either way the
		// response carries X-Trace-Id and a traceparent for the next hop.
		// Nil tracer → nil span → every call below is a no-op.
		spCtx, sp := s.cfg.Tracer.StartRemote(r.Context(), ep.name+".request", r.Header.Get("traceparent"))
		if sp != nil {
			sw.Header().Set("X-Trace-Id", sp.TraceID())
			sw.Header().Set("traceparent", sp.Traceparent())
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			if tenant := r.Header.Get("X-Tenant"); tenant != "" {
				sp.SetAttr("tenant", tenant)
			}
		}
		defer func() {
			if v := recover(); v != nil {
				s.met.onPanic(ep.name, v)
				if !sw.wrote {
					writeError(sw, &apiError{status: http.StatusInternalServerError, code: CodeInternal,
						msg: fmt.Sprintf("internal error in %s: %s", ep.name, renderPanic(v))}, sp.TraceID())
				}
			}
			s.met.onResponse(sw.status())
			if sp != nil {
				st := sw.status()
				sp.SetInt("status", int64(st))
				if st == http.StatusTooManyRequests || st >= http.StatusInternalServerError {
					// Rejections and server faults are always retained:
					// they are the traces an operator comes looking for.
					sp.Force()
					if st >= http.StatusInternalServerError {
						sp.SetError(fmt.Errorf("status %d", st))
					}
				}
				sp.End()
			}
		}()

		if s.draining.Load() {
			s.met.onRejected(CodeShuttingDown)
			writeError(sw, &apiError{status: http.StatusServiceUnavailable, code: CodeShuttingDown,
				msg: "server is shutting down", retryAfter: s.cfg.RetryAfter}, sp.TraceID())
			return
		}
		hg := sp.Child("server.health_gate")
		e := s.healthGate(ep.write)
		if e != nil { // typed-nil *apiError must not reach SetError
			hg.SetError(e)
		}
		hg.End()
		if e != nil {
			s.met.onRejected(e.code)
			writeError(sw, e, sp.TraceID())
			return
		}

		// Deadline: client ?timeout= clamped by MaxTimeout, default
		// DefaultTimeout. The span rides the request context from here
		// down, so handler stages attach their own children.
		d, err := s.requestTimeout(r)
		if err != nil {
			writeError(sw, errBadRequest("%v", err), sp.TraceID())
			return
		}
		ctx, cancel := context.WithTimeout(spCtx, d)
		defer cancel()

		// Slow-client write deadline: the response must be fully written
		// within the query deadline plus slack, or the connection is
		// severed — one stalled reader cannot pin a connection (and its
		// admission slot was already released by then, but its buffers
		// and goroutine would linger forever otherwise).
		rc := http.NewResponseController(w)
		rc.SetWriteDeadline(time.Now().Add(d + s.cfg.WriteSlack))

		// Admission: wait at most QueueWait (and never past the request
		// deadline) for a slot.
		waitCtx, waitCancel := context.WithTimeout(ctx, s.cfg.QueueWait)
		t0 := s.met.startTimer()
		aw := sp.Child("server.admission_wait")
		aw.SetInt("weight", ep.weight)
		release, aerr := s.lim.Acquire(waitCtx, r.Header.Get("X-Tenant"), ep.weight)
		aw.SetError(aerr)
		aw.End()
		waitCancel()
		s.met.setQueueDepth(s.lim.Stats().Queued)
		if aerr != nil {
			e := admissionError(aerr, s.cfg.RetryAfter)
			s.met.onRejected(e.code)
			writeError(sw, e, sp.TraceID())
			return
		}
		s.met.onAdmitted(t0, ep.weight)
		s.inflight.Add(1)
		defer func() {
			release()
			s.inflight.Add(-1)
			s.met.onDone(ep.name, t0, ep.weight)
			s.met.setQueueDepth(s.lim.Stats().Queued)
		}()

		if err := ep.handle(ctx, sw, r); err != nil {
			s.writeHandlerError(sw, err, sp.TraceID())
		}
	})
}

// healthGate maps the supervisor state to an admission decision.
// Documented mapping (SERVING.md):
//
//	state           writes              reads (RejectDegraded)  reads (ServeDegraded)
//	Healthy         admitted            admitted                admitted
//	Degraded        503 + Retry-After   503 + Retry-After       admitted
//	Degraded(disk)  507 + Retry-After   507 + Retry-After       admitted
//	Recovering      503 + Retry-After   503 + Retry-After       admitted
//	Failed          503 (terminal)      503 (terminal)          admitted
//
// Degraded(disk) answers 507 Insufficient Storage rather than 503: the
// store is out of WAL disk budget, a condition an automatic checkpoint
// or an operator freeing space clears — retry after Retry-After. A raw
// ENOSPC never reaches a client.
//
// Requests admitted before a transition run to completion under their
// deadline; the gate is checked once at admission.
func (s *Server) healthGate(write bool) *apiError {
	st := s.cfg.Backend.State()
	if st == supervise.Healthy {
		return nil
	}
	if !write && s.cfg.DegradedReads == ServeDegraded {
		return nil
	}
	switch st {
	case supervise.Degraded:
		return &apiError{status: http.StatusServiceUnavailable, code: CodeDegraded,
			msg: "store is degraded (recovery in progress)", retryAfter: s.cfg.RetryAfter}
	case supervise.DegradedDisk:
		return &apiError{status: http.StatusInsufficientStorage, code: CodeDiskFull,
			msg: "store is out of WAL disk budget (checkpoint or free space to recover)", retryAfter: s.cfg.RetryAfter}
	case supervise.Recovering:
		return &apiError{status: http.StatusServiceUnavailable, code: CodeRecovering,
			msg: "store is recovering", retryAfter: s.cfg.RetryAfter}
	default: // Failed: terminal — no Retry-After, clients should fail over.
		return &apiError{status: http.StatusServiceUnavailable, code: CodeFailed,
			msg: "store has failed (recovery exhausted)"}
	}
}

// requestTimeout resolves the request's deadline from ?timeout=.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad timeout %q: must be positive", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// writeHandlerError maps a handler error onto the wire. Client
// disconnects (context.Canceled without a deadline) get no body — the
// connection is gone. traceID ("" when untraced) rides the envelope.
func (s *Server) writeHandlerError(w *statusWriter, err error, traceID string) {
	var e *apiError
	switch {
	case errors.As(err, &e):
	case errors.Is(err, context.DeadlineExceeded):
		e = &apiError{status: http.StatusGatewayTimeout, code: CodeDeadline,
			msg: "query exceeded its deadline"}
	case errors.Is(err, context.Canceled):
		if s.draining.Load() {
			e = &apiError{status: http.StatusServiceUnavailable, code: CodeShuttingDown,
				msg: "query cancelled: server shutting down", retryAfter: s.cfg.RetryAfter}
			break
		}
		return // client went away; nothing to tell it
	case errors.Is(err, match.ErrBudget):
		e = &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBudget, msg: err.Error()}
	case errors.Is(err, core.ErrNoSuchModel):
		e = &apiError{status: http.StatusNotFound, code: CodeUnknownModel, msg: err.Error()}
	case errors.Is(err, supervise.ErrDiskFull), wal.IsNoSpace(err):
		// Before the generic ErrDegraded case: ErrDiskFull wraps it. The
		// IsNoSpace arm catches an in-flight mutation that hit the disk
		// fault directly (budget rejection, real ENOSPC, short write)
		// before the supervisor transitioned — the client gets the same
		// typed, retryable 507, never a raw filesystem error.
		e = &apiError{status: http.StatusInsufficientStorage, code: CodeDiskFull,
			msg: "store is out of WAL disk budget (checkpoint or free space to recover)",
			retryAfter: s.cfg.RetryAfter}
	case errors.Is(err, supervise.ErrDegraded):
		e = &apiError{status: http.StatusServiceUnavailable, code: CodeDegraded,
			msg: err.Error(), retryAfter: s.cfg.RetryAfter}
	case errors.Is(err, supervise.ErrFailed):
		e = &apiError{status: http.StatusServiceUnavailable, code: CodeFailed, msg: err.Error()}
	case errors.Is(err, core.ErrDurability):
		// The write failed at the WAL and the supervisor is about to
		// degrade and recover; retryable, not an internal error.
		e = &apiError{status: http.StatusServiceUnavailable, code: CodeDegraded,
			msg: "mutation failed at the write-ahead log; store is recovering",
			retryAfter: s.cfg.RetryAfter}
	default:
		e = &apiError{status: http.StatusInternalServerError, code: CodeInternal, msg: err.Error()}
	}
	if w.wrote {
		return // body already streaming; too late to change the status
	}
	writeError(w, e, traceID)
}

// admissionError maps limiter rejections to typed 429s.
func admissionError(err error, retryAfter time.Duration) *apiError {
	switch {
	case errors.Is(err, ErrQueueFull):
		return &apiError{status: http.StatusTooManyRequests, code: CodeQueueFull,
			msg: "admission queue full", retryAfter: retryAfter}
	case errors.Is(err, ErrTenantLimit):
		return &apiError{status: http.StatusTooManyRequests, code: CodeTenantLimit,
			msg: "tenant concurrency limit reached", retryAfter: retryAfter}
	default: // ErrWaitTimeout or the request deadline fired while queued
		return &apiError{status: http.StatusTooManyRequests, code: CodeWaitTimeout,
			msg: "timed out waiting for admission", retryAfter: retryAfter}
	}
}

// statusWriter records whether and what the handler wrote, so the panic
// recovery and error paths know if the status line already left.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// renderPanic formats a recovered panic value with a short stack.
func renderPanic(v any) string {
	return fmt.Sprintf("%v\n%s", v, debug.Stack())
}
