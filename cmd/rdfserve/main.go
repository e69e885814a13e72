// Command rdfserve is the multi-tenant HTTP query server over the RDF
// object store: SDO_RDF_MATCH pattern queries (POST /query), single-
// pattern finds (GET /find), NDM graph traversals (POST /traverse), and
// batch inserts (POST /insert), with per-request deadlines, weighted
// admission control, result budgets, and health-gated graceful
// degradation. The wire format and every tuning knob are documented in
// SERVING.md.
//
// Usage:
//
//	rdfserve -addr 127.0.0.1:8080 -model data -load data.nt
//	rdfserve -addr :8080 -wal-dir store.d -snapshot store.snap
//	rdfserve -addr :8080 -wal-dir store.d -wal-soft-bytes 268435456
//	rdfserve -addr :8080 -wal-dir store.d -chaos-wal-write-rate 0.05
//
// Without -wal-dir the store is memory-only and always Healthy. With
// -wal-dir the store runs under the supervisor, which checkpoints into
// -snapshot (by default a file inside the WAL directory): recovery
// and the health states that gate admission
// (Degraded/Recovering answer 503 + Retry-After; Failed answers 503).
// The log is a directory of rotating segment files with
// checkpoint-driven retention and a disk budget — crossing
// -wal-soft-bytes triggers an automatic checkpoint, exhausting
// -wal-hard-bytes (or a real ENOSPC) moves the store to Degraded(disk),
// where writes answer 507 + Retry-After until space is freed. The
// -chaos-wal-* flags wrap every segment file with a deterministic fault
// injector — writes, syncs, or ENOSPC fail with the given probability —
// for robustness drills: the server keeps serving reads while the
// supervisor degrades and recovers underneath it.
//
// SIGINT/SIGTERM drain gracefully (a second signal kills): new requests
// get 503 shutting_down, in-flight requests get -drain-grace to finish,
// then their contexts are cancelled and the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/reify"
	"repro/internal/server"
	"repro/internal/supervise"
	"repro/internal/trace"
	"repro/internal/wal"
)

// ms rounds a start-up timing for printing.
func ms(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

func main() {
	// The first SIGINT/SIGTERM cancels ctx and starts the drain; stopping
	// the notification then lets a second signal kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdfserve:", err)
		os.Exit(1)
	}
}

// serveFlags holds every rdfserve knob. newFlagSet is the single place
// they are defined; the knob table in SERVING.md documents the same set,
// and main_test.go fails when either side drifts.
type serveFlags struct {
	addr, model, load *string
	snapPath, walDir  *string
	segmentBytes      *int64
	softBytes         *int64
	hardBytes         *int64
	ckptInterval      *time.Duration
	ckptWALBytes      *int64
	chaosWrite        *float64
	chaosSync         *float64
	chaosENOSPC       *float64
	chaosSeed         *int64
	maxInflight       *int64
	maxQueue          *int
	queueWait         *time.Duration
	tenantCap         *int64
	traceSample       *float64
	traceSlow         *time.Duration
	traceStore        *int
	defaultTimeout    *time.Duration
	maxTimeout        *time.Duration
	maxRows           *int
	maxBindings       *int
	maxResultBytes    *int64
	degraded          *string
	retryAfter        *time.Duration
	drainGrace        *time.Duration
	shutdownTimeout   *time.Duration
}

func newFlagSet() (*flag.FlagSet, *serveFlags) {
	fs := flag.NewFlagSet("rdfserve", flag.ContinueOnError)
	f := &serveFlags{
		addr:  fs.String("addr", "127.0.0.1:8080", "listen address"),
		model: fs.String("model", "data", "default model for requests that name none (created if missing)"),
		load:  fs.String("load", "", "N-Triples file to bulk-load into the model at startup"),

		snapPath:     fs.String("snapshot", "", "checkpoint snapshot to load before replaying the WAL and to checkpoint into (default: snapshot inside -wal-dir)"),
		walDir:       fs.String("wal-dir", "", "write-ahead log directory (rotating segments, checkpoint retention, disk budget): run under the supervisor with durable mutations"),
		segmentBytes: fs.Int64("wal-segment-bytes", 0, "segment rotation threshold in bytes (0 = 64 MiB default; requires -wal-dir)"),
		softBytes:    fs.Int64("wal-soft-bytes", 0, "soft disk watermark: crossing it triggers an automatic checkpoint (0 disables; requires -wal-dir)"),
		hardBytes:    fs.Int64("wal-hard-bytes", 0, "hard disk budget: writes past it are rejected and the store enters Degraded(disk) (0 disables; requires -wal-dir)"),
		ckptInterval: fs.Duration("checkpoint-interval", 0, "automatic checkpoint age trigger (0 disables; requires -wal-dir)"),
		ckptWALBytes: fs.Int64("checkpoint-wal-bytes", 0, "automatic checkpoint WAL-size trigger in bytes (0 disables; requires -wal-dir)"),
		chaosWrite:   fs.Float64("chaos-wal-write-rate", 0, "probability each WAL write fails (fault-injection drill; requires -wal-dir)"),
		chaosSync:    fs.Float64("chaos-wal-sync-rate", 0, "probability each WAL sync fails (requires -wal-dir)"),
		chaosENOSPC:  fs.Float64("chaos-wal-enospc-rate", 0, "probability each segment write fails with injected ENOSPC (requires -wal-dir)"),
		chaosSeed:    fs.Int64("chaos-seed", 1, "deterministic seed for the WAL fault injector"),

		traceSample: fs.Float64("trace-sample", 0.01, "probability a fast clean request's trace is retained (slow/errored/rejected traces are always kept)"),
		traceSlow:   fs.Duration("trace-slow", 100*time.Millisecond, "duration past which a request trace is retained as slow"),
		traceStore:  fs.Int("trace-store", 256, "retained-trace ring capacity behind /debug/traces (0 disables tracing entirely)"),

		maxInflight: fs.Int64("max-inflight", 64, "admission capacity in weight units (query/traverse 4, insert 2, find 1)"),
		maxQueue:    fs.Int("max-queue", 128, "admission wait-queue bound (negative = no queueing: reject the moment capacity is full)"),
		queueWait:   fs.Duration("queue-wait", time.Second, "longest a request may wait for admission"),
		tenantCap:   fs.Int64("tenant-cap", 0, "per-tenant in-flight weight cap (X-Tenant header; 0 disables)"),

		defaultTimeout:  fs.Duration("default-timeout", 5*time.Second, "deadline for requests without ?timeout="),
		maxTimeout:      fs.Duration("max-timeout", 30*time.Second, "clamp on client-supplied ?timeout="),
		maxRows:         fs.Int("max-rows", 10000, "result-row cap per response"),
		maxBindings:     fs.Int("max-bindings", 1<<20, "intermediate join-binding budget per query"),
		maxResultBytes:  fs.Int64("max-result-bytes", 8<<20, "encoded response byte budget"),
		degraded:        fs.String("degraded-reads", "reject", "non-Healthy read policy: reject (503 + Retry-After) or serve"),
		retryAfter:      fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503"),
		drainGrace:      fs.Duration("drain-grace", 2*time.Second, "how long shutdown lets in-flight requests finish"),
		shutdownTimeout: fs.Duration("shutdown-timeout", 10*time.Second, "hard bound on the whole shutdown"),
	}
	return fs, f
}

// run serves until ctx is cancelled, then drains and returns.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs, f := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr, model, loadPath := f.addr, f.model, f.load
	snapPath, walDir := f.snapPath, f.walDir
	chaosWrite, chaosSync, chaosSeed := f.chaosWrite, f.chaosSync, f.chaosSeed
	maxInflight, maxQueue, queueWait, tenantCap := f.maxInflight, f.maxQueue, f.queueWait, f.tenantCap
	defaultTimeout, maxTimeout := f.defaultTimeout, f.maxTimeout
	maxRows, maxBindings, maxResultBytes := f.maxRows, f.maxBindings, f.maxResultBytes
	degraded, retryAfter := f.degraded, f.retryAfter
	drainGrace, shutdownTimeout := f.drainGrace, f.shutdownTimeout

	var degradedReads server.DegradedReads
	switch *degraded {
	case "reject":
		degradedReads = server.RejectDegraded
	case "serve":
		degradedReads = server.ServeDegraded
	default:
		return fmt.Errorf("-degraded-reads %q: want reject or serve", *degraded)
	}
	chaos := *chaosWrite > 0 || *chaosSync > 0 || *f.chaosENOSPC > 0
	if *walDir == "" && (*snapPath != "" || chaos ||
		*f.ckptInterval > 0 || *f.ckptWALBytes > 0 ||
		*f.segmentBytes > 0 || *f.softBytes > 0 || *f.hardBytes > 0) {
		return errors.New("-snapshot, -checkpoint-*, -wal-*-bytes and -chaos-wal-* require -wal-dir")
	}

	reg := obs.NewRegistry()

	// Tracer: nil when -trace-store 0, which turns every span call in
	// the request path into a no-op (the nil-instrument discipline obs
	// uses for metrics).
	var tracer *trace.Tracer
	if *f.traceStore > 0 {
		tracer = trace.New(trace.Config{
			SlowThreshold: *f.traceSlow,
			SampleRate:    *f.traceSample,
			Capacity:      *f.traceStore,
		})
	}

	// Backend: supervised (durable, health-gated) with -wal-dir, bare
	// in-memory store otherwise.
	var backend server.Backend
	if *walDir != "" {
		cfg := supervise.Config{
			SnapshotPath: *snapPath,
			WALDir:       *walDir,
			Obs:          reg,
			Tracer:       tracer,
			Checkpoint: supervise.CheckpointPolicy{
				Interval: *f.ckptInterval,
				WALBytes: *f.ckptWALBytes,
			},
			OnRecover: func(info core.RecoverInfo) {
				if info.Truncated {
					fmt.Fprintf(os.Stderr,
						"rdfserve: warning: WAL had a torn tail (replayed %d records, kept %d bytes): %v\n",
						info.Applied, info.ValidBytes, info.TailErr)
				}
				if info.Restore > 0 || info.Applied > 0 {
					fmt.Fprintf(stdout, "recovered: snapshot %s, %d WAL records (scan %s, replay %s)\n",
						ms(info.Restore), info.Applied, ms(info.Scan), ms(info.Replay))
				}
			},
		}
		cfg.Segment = wal.DirOptions{
			SegmentBytes: *f.segmentBytes,
			Budget:       wal.Budget{SoftBytes: *f.softBytes, HardBytes: *f.hardBytes},
		}
		if chaos {
			// One injector per segment file, each seeded afresh, arming the
			// write, sync and ENOSPC rates together.
			var nextSeed atomic.Int64
			nextSeed.Store(*chaosSeed)
			cfg.Segment.Wrap = func(f0 wal.File) wal.File {
				fl := wal.NewFlaky(f0)
				seed := nextSeed.Add(1)
				fl.SetErrorRate(*chaosWrite, *chaosSync, seed)
				fl.SetNoSpaceRate(*f.chaosENOSPC, seed)
				return fl
			}
			fmt.Fprintf(stdout, "chaos: WAL faults armed (write %.2f, sync %.2f, ENOSPC %g, seed %d)\n",
				*chaosWrite, *chaosSync, *f.chaosENOSPC, *chaosSeed)
		}
		sv, err := supervise.Open(cfg)
		if err != nil {
			return fmt.Errorf("opening supervised store: %w", err)
		}
		defer sv.Close()
		backend = sv
	} else {
		st := core.New()
		st.SetMetrics(core.NewMetrics(reg))
		backend = server.StoreBackend{S: st}
	}

	// Ensure the default model exists and load any seed data through the
	// same mutation gate requests use.
	if err := backend.Mutate(func(st *core.Store) error {
		if _, err := st.GetModelID(*model); errors.Is(err, core.ErrNoSuchModel) {
			if _, err := st.CreateRDFModel(*model, "", ""); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("creating model %q: %w", *model, err)
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		t0 := time.Now()
		triples, err := load.Parse(f, load.Options{Workers: 1})
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", *loadPath, err)
		}
		parsed := time.Since(t0)
		// A commit group is one fsync; the load acknowledges nothing until
		// the last one is down, which is before the listener opens.
		fsyncs := func() int64 {
			c, _ := reg.Snapshot().Counter("wal_fsyncs_total")
			return c.Value
		}
		groups := fsyncs()
		err = backend.Mutate(func(st *core.Store) error {
			loader := &reify.Loader{Store: st, Model: *model, Policy: reify.DropIncomplete, BatchSize: 1024}
			_, lerr := loader.LoadTriples(triples)
			return lerr
		})
		if err != nil {
			return fmt.Errorf("loading %s: %w", *loadPath, err)
		}
		n := len(triples)
		// The parsed input is garbage now, but the load's last GC may have
		// marked it live and set the heap goal from it. A forced collection
		// that returns the freed pages to the OS costs tens of
		// milliseconds, so it runs beside start-up, not in it.
		triples = nil
		go debug.FreeOSMemory()
		fmt.Fprintf(stdout, "loaded %d triples from %s into %q (parse %s, fold+insert %s, %d commit groups)\n",
			n, *loadPath, *model, ms(parsed), ms(time.Since(t0)-parsed), fsyncs()-groups)
	}

	srv, err := server.New(server.Config{
		Backend:        backend,
		DefaultModels:  []string{*model},
		Registry:       reg,
		Tracer:         tracer,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		TenantCap:      *tenantCap,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxRows:        *maxRows,
		MaxBindings:    *maxBindings,
		MaxResultBytes: *maxResultBytes,
		DegradedReads:  degradedReads,
		RetryAfter:     *retryAfter,
		DrainGrace:     *drainGrace,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	fmt.Fprintf(stdout, "serving on http://%s/ (model %q, admin under /debug)\n", ln.Addr(), *model)

	// Serve until ctx is cancelled, then drain.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down: draining in-flight requests")
	// ctx is done by now; the drain gets its own bound.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil {
		return err
	}
	fmt.Fprintln(stdout, "drained; bye")
	return nil
}
