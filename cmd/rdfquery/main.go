// Command rdfquery loads N-Triples data and runs an SDO_RDF_MATCH-style
// query against it (§6.1).
//
// Usage:
//
//	rdfquery -data file.nt -query '(?s ?p ?o)' [-filter '?s != "x"'] \
//	         [-alias gov=http://www.us.gov#] [-rule 'ante=>cons' ...] [-rdfs] \
//	         [-timeout 10s]
//	rdfquery -snapshot store.snap -model data -query '(?s ?p ?o)'
//	rdfquery -snapshot store.snap -wal-dir store.d -model data -query '(?s ?p ?o)'
//	rdfquery -data file.nt -stats
//
// Rules passed with -rule are collected into an ad-hoc rulebase, a rules
// index is built, and the query runs with inference enabled. -snapshot
// reopens a store written by rdfload -save; adding -wal-dir replays the
// write-ahead log on top of it (crash recovery: the snapshot is the
// checkpoint, the log holds everything since; -wal-dir alone recovers
// from the log only). -stats prints the model's storage statistics (rows,
// contexts, link types) instead of querying.
//
// Observability: -explain appends an EXPLAIN-style execution trace to
// the output (the cost planner's order, per-stage estimated and actual
// cardinalities, timings);
// -slow DURATION logs any query over the threshold with its trace;
// -admin ADDR serves the runtime metrics registry (/metrics, /healthz,
// /events, /debug/pprof) while the command runs.
//
// Exit codes: 0 success; 1 any error; 2 the -timeout deadline expired
// ("query timed out after X"); 130 the query was interrupted (Ctrl-C).
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
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/rdfterm"
	"repro/internal/reify"
	"repro/internal/trace"
	"repro/internal/wal"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// Exit codes. A deadline kill and a Ctrl-C are different events for the
// calling script: one means "the query is too slow, tune it", the other
// "the operator gave up" — so they get distinct codes.
const (
	exitFailure     = 1   // any other error
	exitTimeout     = 2   // -timeout expired (query timed out after X)
	exitInterrupted = 130 // SIGINT, the shell convention (128 + 2)
)

// exitError carries a specific process exit code up through run().
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdfquery:", err)
		var xe *exitError
		if errors.As(err, &xe) {
			os.Exit(xe.code)
		}
		os.Exit(exitFailure)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdfquery", flag.ContinueOnError)
	data := fs.String("data", "", "N-Triples file to load (default: stdin)")
	snapshot := fs.String("snapshot", "", "store snapshot to open instead of loading N-Triples (see rdfload -save)")
	walDir := fs.String("wal-dir", "", "write-ahead log directory to replay (on top of -snapshot when both are given; see rdfload -wal-dir)")
	query := fs.String("query", "", "match query, e.g. '(?s ?p ?o)'")
	queryModel := fs.String("model", "data", "model to query when opening a snapshot")
	stats := fs.Bool("stats", false, "print model storage statistics instead of running a query")
	timeout := fs.Duration("timeout", 0, "abort the query if it runs longer than this (e.g. 500ms, 10s; 0 = no limit)")
	filter := fs.String("filter", "", "optional filter expression")
	rdfs := fs.Bool("rdfs", false, "enable the built-in RDFS rulebase")
	explain := fs.Bool("explain", false, "print the query execution trace (the cost planner's pattern order, per-stage estimated vs actual cardinalities, timings) after the rows")
	slow := fs.Duration("slow", 0, "log queries slower than this threshold with their full trace (0 = off)")
	spans := fs.Bool("trace", false, "run the query under a span tree and print it after the rows (query + per-stage spans)")
	adminAddr := fs.String("admin", "", "serve /metrics, /healthz, /events, and /debug/pprof on this address while the command runs")
	adminLinger := fs.Duration("admin-linger", 0, "with -admin, keep serving this long after the query finishes so the endpoint can be scraped")
	var aliases, rules multiFlag
	fs.Var(&aliases, "alias", "namespace alias prefix=namespace (repeatable)")
	fs.Var(&rules, "rule", "inference rule 'antecedent=>consequent' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" && !*stats {
		return fmt.Errorf("-query is required (or pass -stats)")
	}

	// Admin surface: serve the metrics registry while the command runs.
	// Deferred LIFO order means the linger sleep runs before the server
	// closes, so CI smoke checks can scrape the final counters.
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
		if *adminLinger > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "admin endpoint lingering %s\n", *adminLinger)
				time.Sleep(*adminLinger)
			}()
		}
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s/\n", ln.Addr())
	}

	aliasSet := rdfterm.Default()
	for _, a := range aliases {
		prefix, ns, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("bad -alias %q (want prefix=namespace)", a)
		}
		al := rdfterm.Alias{Prefix: prefix, Namespace: ns}
		if err := al.Validate(); err != nil {
			return err
		}
		aliasSet = aliasSet.With(al)
	}

	var store *core.Store
	model := *queryModel
	if *snapshot != "" || *walDir != "" {
		var err error
		store, err = openDurable(*snapshot, *walDir, stdout)
		if err != nil {
			return err
		}
		n, err := store.NumTriples(model)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d triples in model %q\n\n", n, model)
	} else {
		var in io.Reader = os.Stdin
		if *data != "" {
			f, err := os.Open(*data)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		store = core.New()
		if _, err := store.CreateRDFModel(model, "", ""); err != nil {
			return err
		}
		loader := &reify.Loader{Store: store, Model: model}
		stats, err := loader.Load(in)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %d triples (%d reification quads folded)\n\n", stats.Read, stats.QuadsFolded)
	}
	store.SetMetrics(core.NewMetrics(reg))

	if *stats {
		st, err := store.ModelStatistics(model)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model %q storage statistics:\n", model)
		fmt.Fprintf(stdout, "  triples (rdf_link$ rows): %d\n", st.Triples)
		fmt.Fprintf(stdout, "  reified statements:       %d\n", st.Reified)
		fmt.Fprintf(stdout, "  CONTEXT=D (direct):       %d\n", st.Direct)
		fmt.Fprintf(stdout, "  CONTEXT=I (implied):      %d\n", st.Indirect)
		for _, lt := range []string{"STANDARD", "RDF_TYPE", "RDF_MEMBER", "RDF_*"} {
			if n := st.ByLinkType[lt]; n > 0 {
				fmt.Fprintf(stdout, "  LINK_TYPE %-10s      %d\n", lt+":", n)
			}
		}
		return nil
	}

	opts := match.Options{
		Models:    []string{model},
		Aliases:   aliasSet,
		Filter:    *filter,
		Metrics:   match.NewMetrics(reg),
		SlowQuery: *slow,
	}
	var mtrace match.Trace
	if *explain || *slow > 0 {
		opts.Trace = &mtrace
	}
	if len(rules) > 0 || *rdfs {
		cat := inference.NewCatalog(store)
		var rbNames []string
		if *rdfs {
			rbNames = append(rbNames, inference.RDFSRulebaseName)
		}
		if len(rules) > 0 {
			if _, err := cat.CreateRulebase("cli_rb"); err != nil {
				return err
			}
			var aliasList []rdfterm.Alias
			for _, p := range aliasSet.Prefixes() {
				ns, _ := aliasSet.Lookup(p)
				aliasList = append(aliasList, rdfterm.Alias{Prefix: p, Namespace: ns})
			}
			for i, r := range rules {
				ante, cons, ok := strings.Cut(r, "=>")
				if !ok {
					return fmt.Errorf("bad -rule %q (want 'antecedent=>consequent')", r)
				}
				if err := cat.AddRule("cli_rb", inference.Rule{
					Name:       fmt.Sprintf("cli_rule_%d", i+1),
					Antecedent: strings.TrimSpace(ante),
					Consequent: strings.TrimSpace(cons),
					Aliases:    aliasList,
				}); err != nil {
					return err
				}
			}
			rbNames = append(rbNames, "cli_rb")
		}
		ix, err := cat.CreateRulesIndex("cli_rix", []string{model}, rbNames)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rules index: %d inferred triples\n\n", ix.InferredCount())
		opts.Rulebases = rbNames
		opts.Resolver = cat
	}

	// Ctrl-C cancels the query through the same context the -timeout
	// deadline uses, but the two exits are distinguishable: deadline →
	// exit 2 with a "timed out" message, SIGINT → exit 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// -trace: a one-trace tracer that retains everything (sample 1.0),
	// so the tree is printable no matter how fast the query was.
	var tracer *trace.Tracer
	var rootSpan *trace.Span
	if *spans {
		tracer = trace.New(trace.Config{SlowThreshold: time.Hour, SampleRate: 1, Capacity: 1})
		rootSpan = tracer.StartRoot("rdfquery.query")
		ctx = trace.WithSpan(ctx, rootSpan)
	}
	rs, err := match.MatchContext(ctx, store, *query, opts)
	if rootSpan != nil {
		rootSpan.SetError(err)
		rootSpan.End()
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return &exitError{code: exitTimeout,
				err: fmt.Errorf("query timed out after %v (-timeout): %w", *timeout, err)}
		case errors.Is(err, context.Canceled):
			return &exitError{code: exitInterrupted,
				err: fmt.Errorf("query interrupted: %w", err)}
		}
		return err
	}
	headers := make([]string, len(rs.Vars))
	for i, v := range rs.Vars {
		headers[i] = "?" + v
	}
	fmt.Fprintln(stdout, strings.Join(headers, "\t"))
	for i := 0; i < rs.Len(); i++ {
		fmt.Fprintln(stdout, strings.Join(rs.Strings(i), "\t"))
	}
	fmt.Fprintf(stdout, "\n%d rows\n", rs.Len())
	if *explain {
		fmt.Fprintln(stdout, "\nexplain:")
		mtrace.Format(stdout)
	}
	if rootSpan != nil {
		if td, ok := tracer.Get(rootSpan.TraceID()); ok {
			fmt.Fprintf(stdout, "\ntrace %s:\n", td.ID)
			trace.WriteTree(stdout, td)
		}
	}
	if *slow > 0 && mtrace.Total >= *slow {
		fmt.Fprintf(os.Stderr, "slow query (total %s >= -slow %s):\n", mtrace.Total.Round(time.Microsecond), *slow)
		mtrace.Format(os.Stderr)
	}
	return nil
}

// openDurable rebuilds a store from a snapshot (checkpoint) and/or a
// write-ahead log directory, translating the typed failure modes into
// actionable messages.
func openDurable(snapPath, walDir string, stdout io.Writer) (*core.Store, error) {
	if walDir == "" {
		store, err := core.LoadFile(snapPath)
		if err != nil {
			return nil, snapshotError(snapPath, err)
		}
		fmt.Fprintf(stdout, "opened snapshot %s\n", snapPath)
		return store, nil
	}
	if snapPath != "" {
		if _, err := os.Stat(snapPath); err != nil {
			return nil, err
		}
	}
	store, d, info, err := core.RecoverDir(snapPath, walDir, wal.DirOptions{})
	if err != nil {
		switch {
		case errors.Is(err, wal.ErrSegmentCorrupt):
			return nil, fmt.Errorf("WAL directory %s is damaged (a non-final segment is torn or missing): %v", walDir, err)
		case errors.Is(err, wal.ErrNotWAL):
			return nil, fmt.Errorf("%s does not hold WAL segments — pass the directory written by rdfload -wal-dir (%v)", walDir, err)
		}
		return nil, snapshotError(snapPath, err)
	}
	d.Close() // read-only use: the query never appends
	if snapPath != "" {
		fmt.Fprintf(stdout, "recovered from snapshot %s + WAL directory %s (%d records replayed, %d segments)\n",
			snapPath, walDir, info.Applied, info.Segments)
	} else {
		fmt.Fprintf(stdout, "recovered from WAL directory %s (%d records replayed, %d segments)\n",
			walDir, info.Applied, info.Segments)
	}
	if info.Truncated {
		fmt.Fprintf(os.Stderr, "rdfquery: warning: WAL had a torn tail (recovered to the last valid record): %v\n", info.TailErr)
	}
	return store, nil
}

// snapshotError turns a snapshot's typed load failures into actionable
// messages.
func snapshotError(path string, err error) error {
	switch {
	case errors.Is(err, core.ErrSnapshotVersion):
		return fmt.Errorf("snapshot %s was written by an incompatible format version — regenerate it with this build's rdfload -save (%v)", path, err)
	case errors.Is(err, core.ErrSnapshotCorrupt):
		return fmt.Errorf("snapshot %s is damaged and cannot be loaded — regenerate it with rdfload -save (%v)", path, err)
	}
	return err
}
