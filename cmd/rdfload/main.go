// Command rdfload bulk-loads an N-Triples file into the RDF object store,
// folding reification quads into the streamlined DBUri representation
// (§5) — the reproduction of the paper's Java bulk-load API.
//
// The store is memory-resident; rdfload demonstrates the load pipeline and
// prints the resulting storage statistics (rows, values, nodes, reified
// statements, contexts).
//
// Usage:
//
//	rdfload -model name [-policy drop|insert|report] [-keep-orig] file.nt
//	cat file.nt | rdfload -model name
//	rdfload -model name -wal-dir store.d file.nt        # durable load
//	rdfload -model name -batch 4096 -workers 0 -wal-dir store.d file.nt
//
// With -wal-dir, every mutation is appended to a write-ahead log — a
// directory of rotating segment files (-wal-segment-bytes) under an
// optional disk budget (-wal-hard-bytes) — before the command exits, and
// an existing log there is replayed first, so an interrupted load resumes
// from its last durable record instead of starting over. Pair with -save
// to checkpoint: the snapshot records a segment watermark and the
// segments it covers are retired, keeping recovery (snapshot + log)
// small. To keep loading into a checkpointed store, pass the same
// -snapshot and -wal-dir back.
//
// Bulk load: -workers parses the input with parallel workers (0 = all
// CPUs), and every statement — quad bases and their reification rows
// included — goes through the store's batch API, -batch statements to a
// group: one write-lock acquisition and one WAL commit per group. The
// size only places the commit points; the stored result does not depend
// on it. -sync-every N adds WAL group commit on top: the log
// fsyncs once every N commits (a crash can lose at most the last N-1
// committed batches, but always recovers to a consistent state). The
// defaults sync on every group of 1024; -batch 1 commits (and, with a
// WAL, fsyncs) every statement on its own.
//
// Observability: -admin ADDR serves the runtime metrics registry
// (/metrics in Prometheus text format, /healthz, /events, /debug/pprof)
// for the duration of the load, instrumenting the store and WAL at no
// cost to un-instrumented runs. -admin-linger keeps the endpoint up
// after the load finishes so the final counters can be scraped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/rdfxml"
	"repro/internal/reify"
	"repro/internal/trace"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdfload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdfload", flag.ContinueOnError)
	model := fs.String("model", "data", "RDF model (graph) name to load into")
	policy := fs.String("policy", "drop", "incomplete-quad policy: drop, insert, or report")
	keepOrig := fs.Bool("keep-orig", false, "store original quad-resource URIs alongside DBUris")
	save := fs.String("save", "", "write a store snapshot to this file after loading (readable by rdfquery -snapshot)")
	walDir := fs.String("wal-dir", "", "write-ahead log directory (rotating segments): mutations are logged durably, and an existing log is replayed before loading")
	segmentBytes := fs.Int64("wal-segment-bytes", 0, "segment rotation threshold in bytes (0 = 64 MiB default; requires -wal-dir)")
	hardBytes := fs.Int64("wal-hard-bytes", 0, "hard disk budget for the WAL directory: appends past it fail with a typed disk-full error (0 disables; requires -wal-dir)")
	snapPath := fs.String("snapshot", "", "checkpoint snapshot to load before replaying the WAL (continue a store checkpointed with -save -wal-dir)")
	format := fs.String("format", "nt", "input format: nt (N-Triples) or xml (RDF/XML)")
	base := fs.String("base", "", "base URI for resolving rdf:ID in RDF/XML input")
	batch := fs.Int("batch", 1024, "statements per insert group: one WAL commit each (1 = a commit per statement; the stored result is the same at any size)")
	workers := fs.Int("workers", 0, "parallel N-Triples parse workers (0 = all CPUs, 1 = serial)")
	syncEvery := fs.Int("sync-every", 1, "with -wal-dir, fsync once every N commits instead of every commit (group commit)")
	traceWAL := fs.Bool("trace-wal", false, "record wal.flush span trees during a group-committed load and print the slowest flush (requires -sync-every > 1)")
	adminAddr := fs.String("admin", "", "serve /metrics, /healthz, /events, and /debug/pprof on this address (e.g. 127.0.0.1:9090) while loading")
	adminLinger := fs.Duration("admin-linger", 0, "with -admin, keep serving this long after the load finishes so the endpoint can be scraped")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1 (got %d)", *batch)
	}
	if *syncEvery < 1 {
		return fmt.Errorf("-sync-every must be >= 1 (got %d)", *syncEvery)
	}
	if *traceWAL && (*syncEvery < 2 || *walDir == "") {
		return errors.New("-trace-wal requires -wal-dir with -sync-every > 1 (flush spans come from group commit)")
	}
	if (*segmentBytes > 0 || *hardBytes > 0) && *walDir == "" {
		return errors.New("-wal-segment-bytes/-wal-hard-bytes require -wal-dir")
	}

	// Admin surface: a registry plus an HTTP listener started before the
	// load so a long-running bulk load can be watched live. With no
	// -admin flag reg stays nil and every instrument hook below is a
	// nil-receiver no-op.
	var reg *obs.Registry
	if *adminAddr != "" {
		reg = obs.NewRegistry()
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("-admin %s: %w", *adminAddr, err)
		}
		srv := &http.Server{Handler: obs.NewHandler(reg, nil)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s/\n", ln.Addr())
	}

	var in io.Reader = stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	store := core.New()
	var dir *wal.Dir
	switch {
	case *walDir != "":
		// Snapshot (with its segment watermark), retention cleanup, and
		// replay happen in one recovery step.
		if *snapPath != "" {
			if _, err := os.Stat(*snapPath); err != nil {
				return err
			}
		}
		var info core.RecoverInfo
		var err error
		store, dir, info, err = core.RecoverDir(*snapPath, *walDir, wal.DirOptions{
			SegmentBytes: *segmentBytes,
			Budget:       wal.Budget{HardBytes: *hardBytes},
		})
		if err != nil {
			switch {
			case errors.Is(err, wal.ErrSegmentCorrupt):
				return fmt.Errorf("WAL directory %s is damaged (a non-final segment is torn or missing): %v", *walDir, err)
			case errors.Is(err, wal.ErrNotWAL):
				return fmt.Errorf("%s does not hold WAL segments (wrong path?): %v", *walDir, err)
			}
			return snapshotError(*snapPath, err)
		}
		defer dir.Close()
		if *snapPath != "" {
			fmt.Fprintf(stdout, "loaded checkpoint snapshot %s\n", *snapPath)
		}
		if info.Applied > 0 {
			fmt.Fprintf(stdout, "replayed %d WAL records from %d segment(s) in %s\n", info.Applied, info.Segments, *walDir)
		}
		if info.Truncated {
			fmt.Fprintf(os.Stderr, "rdfload: warning: WAL had a torn tail (truncated to last valid record): %v\n", info.TailErr)
		}
	case *snapPath != "":
		var err error
		if store, err = core.LoadFile(*snapPath); err != nil {
			return snapshotError(*snapPath, err)
		}
		fmt.Fprintf(stdout, "loaded checkpoint snapshot %s\n", *snapPath)
	}
	store.SetMetrics(core.NewMetrics(reg))
	var group *wal.GroupLog
	if dir != nil {
		// Log mutations from here on; replayed records are already durable.
		if *syncEvery > 1 {
			// Group commit: fsync once every N commits. A crash mid-load can
			// lose at most the last N-1 committed batches; the surviving log
			// prefix still replays to a consistent store. Each flushed batch
			// lands in one segment.
			group = wal.Group(dir, wal.GroupOptions{SyncEvery: *syncEvery})
			store.SetDurability(group)
		} else {
			store.SetDurability(dir)
		}
		if reg != nil {
			m := wal.NewMetrics(reg)
			if group != nil {
				group.SetMetrics(m) // also attaches to the underlying dir
			} else {
				dir.SetMetrics(m)
			}
		}
	}
	// -trace-wal: every group-commit flush records a wal.flush root span
	// (the Dir's one write and fsync); retain them all (sample 1.0) in a
	// modest ring and print the slowest tree after the load.
	var flushTracer *trace.Tracer
	if *traceWAL && group != nil {
		flushTracer = trace.New(trace.Config{SlowThreshold: time.Hour, SampleRate: 1, Capacity: 1024})
		group.SetTracer(flushTracer)
	}
	if _, err := store.GetModelID(*model); err != nil {
		if _, err := store.CreateRDFModel(*model, "", ""); err != nil {
			return err
		}
	}
	loader := &reify.Loader{
		Store:            store,
		Model:            *model,
		KeepOriginalURIs: *keepOrig,
		Report:           os.Stderr,
		BatchSize:        *batch,
	}
	if *workers == 0 {
		loader.Workers = -1 // Loader: < 0 means GOMAXPROCS
	} else {
		loader.Workers = *workers
	}
	switch *policy {
	case "drop":
		loader.Policy = reify.DropIncomplete
	case "insert":
		loader.Policy = reify.InsertIncomplete
	case "report":
		loader.Policy = reify.ReportIncomplete
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	var stats reify.Stats
	var err error
	switch *format {
	case "nt":
		stats, err = loader.Load(in)
	case "xml":
		var parsed []ntriples.Triple
		parsed, err = rdfxml.Parse(in, rdfxml.Options{Base: *base})
		if err == nil {
			stats, err = loader.LoadTriples(parsed)
		}
	default:
		return fmt.Errorf("unknown format %q (want nt or xml)", *format)
	}
	if err != nil {
		return err
	}
	if group != nil {
		// Make the tail of the load durable before reporting success (and
		// before any -save checkpoint rotates the log).
		if err := group.Flush(); err != nil {
			return fmt.Errorf("flushing group-committed WAL: %w", err)
		}
	}
	triples, err := store.NumTriples(*model)
	if err != nil {
		return err
	}
	reified, err := store.ReifiedCount(*model)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "read:                 %d triples\n", stats.Read)
	fmt.Fprintf(stdout, "base inserted:        %d\n", stats.Inserted)
	fmt.Fprintf(stdout, "quads folded:         %d (4 input triples -> 1 stored row each)\n", stats.QuadsFolded)
	fmt.Fprintf(stdout, "assertions rewritten: %d\n", stats.AssertionsRewritten)
	fmt.Fprintf(stdout, "incomplete quads:     %d (%s)\n", stats.Incomplete, *policy)
	fmt.Fprintf(stdout, "stored rows:          %d in rdf_link$ (model %q)\n", triples, *model)
	fmt.Fprintf(stdout, "distinct values:      %d in rdf_value$\n", store.NumValues())
	fmt.Fprintf(stdout, "graph nodes:          %d in rdf_node$\n", store.NumNodes())
	fmt.Fprintf(stdout, "reified statements:   %d\n", reified)
	if stats.Read > 0 && stats.QuadsFolded > 0 {
		saved := 3 * stats.QuadsFolded
		fmt.Fprintf(stdout, "rows saved by DBUri reification: %d (%.0f%% of quad storage)\n",
			saved, 100*float64(stats.QuadsFolded)/float64(4*stats.QuadsFolded))
	}
	if flushTracer != nil {
		var slowest trace.TraceData
		flushes := flushTracer.Snapshot()
		for _, td := range flushes {
			if td.Duration > slowest.Duration {
				slowest = td
			}
		}
		fmt.Fprintf(stdout, "WAL flushes traced:   %d (last %d retained)\n", len(flushes), flushTracer.Len())
		if slowest.ID != "" {
			fmt.Fprintf(stdout, "slowest flush:\n")
			trace.WriteTree(stdout, slowest)
		}
	}
	switch {
	case *save != "" && dir != nil:
		// Checkpoint: rotate, write the snapshot with the new segment number
		// as its watermark, then retire older segments.
		if err := core.CheckpointDir(store, *save, dir); err != nil {
			return fmt.Errorf("checkpointing WAL directory: %w", err)
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", *save)
		fmt.Fprintf(stdout, "WAL %s checkpointed (stale segments retired)\n", *walDir)
	case *save != "":
		// Atomic: tmp file + fsync + rename, so a crash mid-save never
		// clobbers an existing good snapshot.
		if err := store.SaveFile(*save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", *save)
	}
	if *adminAddr != "" && *adminLinger > 0 {
		// Keep the admin endpoint up so post-load scrapes (CI smoke,
		// one-off profiling) can read the final metrics.
		fmt.Fprintf(os.Stderr, "admin endpoint lingering %s\n", *adminLinger)
		time.Sleep(*adminLinger)
	}
	return nil
}

// snapshotError turns a snapshot's typed load failures into actionable
// messages.
func snapshotError(path string, err error) error {
	switch {
	case errors.Is(err, core.ErrSnapshotVersion):
		return fmt.Errorf("snapshot %s was written by an incompatible format version — regenerate it with this build's -save (%v)", path, err)
	case errors.Is(err, core.ErrSnapshotCorrupt):
		return fmt.Errorf("snapshot %s is damaged and cannot be loaded (%v)", path, err)
	}
	return err
}
