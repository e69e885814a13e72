// Command benchmark is the repository's one benchmark: four HTTP
// workloads against a child cmd/rdfserve for the end-to-end metrics,
// and an in-process call ladder for the per-layer ones. README.md in
// this directory says what is measured and why; BENCHMARK.json at the
// repository root declares the metrics and their regression bounds.
//
// Usage, from the repository root:
//
//	go run ./benchmark                                  every workload, end to end
//	go run ./benchmark -workload read_point -trace 1    one workload's ladder
//	go run ./benchmark -repeat 10 -out a.json           a set of runs to compare
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// results is the one schema every run writes and -compare reads.
type results struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

// envInfo records what the numbers depend on besides the code.
type envInfo struct {
	NProc            int    `json:"nproc"`
	GOMAXPROCSBench  int    `json:"gomaxprocs_benchmark"`
	GOMAXPROCSServer string `json:"gomaxprocs_server"` // the child inherits the environment
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	WALFilesystem    string `json:"wal_filesystem"`
	Clients          int    `json:"clients"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: read_point, read_join, write_durable, mixed_rw, or all")
	seed := fs.Int64("seed", 1, "generator seed: same seed, same dataset and request stream")
	seconds := fs.Int("seconds", 20, "measured seconds per run: half fixed-rate open loop, half closed loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from a child rdfserve; 1: per-layer metrics from the in-process ladder")
	repeat := fs.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...")
	outDir := fs.String("out-dir", filepath.Join("benchmark", "out"), "where results, span files and scratch data go")
	out := fs.String("out", "", "results file (default <out-dir>/results.json)")
	compare := fs.Bool("compare", false, "compare two results files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		selected = append(selected, w)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 3 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: want -seconds ≥ 3, -repeat ≥ 1, -trace 0 or 1")
		return 2
	}
	if *out == "" {
		*out = filepath.Join(*outDir, "results.json")
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(*outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	bin, err := buildServer(ctx, workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// A generator worker waits for its due time inside a nanosleep system
	// call, which holds its P. Two spare Ps keep the runtime able to poll
	// the network meanwhile; without them a ready response waited for the
	// next sleeper to wake, and latencies snapped to the pacing interval.
	runtime.GOMAXPROCS(clients + 2)
	all := results{Env: environment(workDir)}
	fmt.Printf("env: nproc %d, GOMAXPROCS %d (benchmark) %s (server), %s, commit %s, WAL on %s, %d connections\n",
		all.Env.NProc, all.Env.GOMAXPROCSBench, all.Env.GOMAXPROCSServer, all.Env.GoVersion, all.Env.Commit, all.Env.WALFilesystem, clients)
	ok := true
	var last *runResult
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			res, err := runOne(ctx, w, *seed+int64(rep), *seconds, *trace == 1, bin, workDir, *outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			printRun(res)
			all.Runs = append(all.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if err := writeJSON(*out, all); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("results:", *out)

	// The last line of standard output is the run's verdict, for the
	// driver that runs one workload at a time.
	line, _ := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
	})
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// runOne generates the seed's dataset and runs one workload on it.
func runOne(ctx context.Context, w *workload, seed int64, seconds int, traced bool, bin, workDir, outDir string) (*runResult, error) {
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // the stores of one run are hundreds of megabytes; do not keep them for the next
	ds, err := generateFile(seed, filepath.Join(dir, "data.nt"))
	if err != nil {
		return nil, err
	}
	if !traced {
		return runEndToEnd(ctx, w, ds, bin, dir, seconds, nil)
	}
	return runTraced(ctx, w, ds, bin, dir, seconds, filepath.Join(outDir, "spans_"+w.name+".jsonl"))
}

func printRun(r *runResult) {
	mode := "end to end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s  seed %d  %s  %ds  dataset %s (%d triples, %d reified, %d proteins, sha256 %.12s, generated in %.2fs)  requests sha256 %.12s\n",
		r.Workload, r.Seed, mode, r.Seconds, r.Dataset.Name, r.Dataset.Triples, r.Dataset.Reified, r.Dataset.Proteins, r.Dataset.SHA256, r.Dataset.GenSeconds, r.RequestsSHA)
	if len(r.SetupSamples) > 0 {
		fmt.Printf("set-up samples (s): %.3f  recovery samples (s): %.3f\n", r.SetupSamples, r.RecoverySamples)
	}
	for _, p := range r.Phases {
		fmt.Println(p)
	}
	printLadder(r.Ladder)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, p := range r.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	for _, p := range r.Warnings {
		fmt.Println("  WARNING:", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func environment(walDir string) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCSBench: runtime.GOMAXPROCS(0), GOMAXPROCSServer: os.Getenv("GOMAXPROCS"),
		GoVersion: runtime.Version(), Commit: "unknown", WALFilesystem: filesystemOf(walDir), Clients: clients,
	}
	if e.GOMAXPROCSServer == "" {
		e.GOMAXPROCSServer = fmt.Sprintf("%d (default)", runtime.NumCPU())
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// filesystemOf names the filesystem type under dir, from /proc/mounts:
// what an fsync costs depends on it.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fstype = mnt, f[2]
		}
	}
	return fstype
}
