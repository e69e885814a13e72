package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// e2eMetric is one end-to-end metric as BENCHMARK.json declares it. The
// bound is the share of the baseline's median by which the metric may
// get worse before a change counts as a regression.
type e2eMetric struct {
	name, unit   string
	higherBetter bool
	bound        float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"throughput_rps", "1/s", true, 0.25},
	{"p50_ms", "ms", false, 0.25},
	{"rss_mb", "MB", false, 0.25},
	{"recovery_s", "s", false, 0.25},
}

// exactCounts are per-layer counts that one client on one goroutine
// must reproduce exactly: two traced runs of the same code on the same
// seed that disagree on one of them have found nondeterminism.
var exactCounts = []string{"core.rows_per_triple", "wal.bytes_per_triple", "match.candidates_per_row"}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so
// that the spread printed here is the spread the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return data[0], data[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / medianFloat(values)
}

// verdict judges one (metric, workload) pair of a baseline a and a
// candidate b. worse is the relative change in the bad direction.
func verdict(m e2eMetric, a, b []float64) (worse float64, v string) {
	ma, mb := medianFloat(a), medianFloat(b)
	worse = (mb - ma) / ma
	if m.higherBetter {
		worse = -worse
	}
	switch {
	case spread(a) > m.bound || spread(b) > m.bound:
		return worse, "unresolved" // the runs disagree among themselves by more than the bound
	case worse > m.bound:
		return worse, "worse"
	}
	return worse, "ok"
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// samples collects, per workload, the values of one metric over the
// runs of one mode.
func (r *results) samples(name string, traced bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, run := range r.Runs {
		if m, ok := run.Metrics[name]; ok && run.Traced == traced {
			out[run.Workload] = append(out[run.Workload], m.Value)
		}
	}
	return out
}

// compareFiles prints, per (metric, workload), both medians, the
// change, the bound and the verdict, and returns 1 when anything is
// worse or an exact count differs.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *results) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-15s %5s %12s %9s %12s %9s %9s %7s  %s\n",
		"workload", "metric", "runs", "a median", "a spread", "b median", "b spread", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.samples(m.name, false)[wl.name], b.samples(m.name, false)[wl.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(m, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-15s %2d/%-2d %12.4f %8.1f%% %12.4f %8.1f%% %+8.1f%% %6.0f%%  %s\n",
				wl.name, m.name, len(va), len(vb), medianFloat(va), spread(va)*100, medianFloat(vb), spread(vb)*100, worse*100, m.bound*100, v)
		}
	}
	// Exact counts, where both files hold a traced run of the same seed.
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if !ra.Traced || !rb.Traced || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, name := range exactCounts {
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				v := "same"
				if va != vb {
					v, code = "differs", 1
				}
				fmt.Fprintf(w, "%-15s %-26s seed %-4d %16.6f %16.6f  %s\n", ra.Workload, name, ra.Seed, va, vb, v)
			}
		}
	}
	return code
}
