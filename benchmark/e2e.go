package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/uniprot"
)

// setups is how many times a run starts the server from scratch, and
// later how many times it kills and restarts it; setup_s and recovery_s
// are the medians. The last start serves the phases that follow.
const setups = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Seconds  int    `json:"seconds"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"` // wrong or missing outputs: the run is not correct
	Warnings  []string `json:"warnings,omitempty"` // timing guards that tripped: the numbers of this run deserve doubt

	Metrics map[string]metric `json:"metrics"`

	Phases          []phaseResult      `json:"phases,omitempty"`
	SetupSamples    []float64          `json:"setup_samples_s,omitempty"`
	RecoverySamples []float64          `json:"recovery_samples_s,omitempty"`
	Dataset         datasetInfo        `json:"dataset"`
	RequestsSHA     string             `json:"requests_sha256,omitempty"`
	Ladder          []ladderRow        `json:"ladder,omitempty"`
	Counters        map[string]float64 `json:"server_counter_deltas,omitempty"`
}

type datasetInfo struct {
	Name       string  `json:"name"`
	SHA256     string  `json:"sha256"`
	Triples    int     `json:"triples"`
	Reified    int     `json:"reified"`
	Proteins   int     `json:"proteins"`
	Bytes      int64   `json:"bytes"`
	GenSeconds float64 `json:"generator_seconds"`
}

func (ds *dataset) info() datasetInfo {
	return datasetInfo{
		Name: fmt.Sprintf("uniprot-%dk", baseTriples/1000), SHA256: ds.sha256, Triples: ds.lines,
		Reified: ds.reified, Proteins: len(ds.proteins), Bytes: ds.bytes, GenSeconds: ds.genSeconds,
	}
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// warn records a timing guard that tripped. Whether a stall was the
// program's or the shared host's cannot be told from inside one run, so a
// warning is printed and kept in the results file but does not make the
// run incorrect: every output was still checked and right, and the
// metric's own regression bound judges the slowdown.
func (r *runResult) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

func (r *runResult) addPhase(p phaseResult) {
	r.Phases = append(r.Phases, p)
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	if p.Failed > 0 {
		r.problem("%s: %d of %d requests failed (%d refused): %s", p.Name, p.Failed, p.Attempted, p.Refused, p.FirstErr)
	}
}

// serverFlags are the flags a workload adds to rdfserve's defaults.
// first is the launch that loads the dataset; a restart recovers from
// what the first left on disk, or — for a memory-only server, which
// leaves nothing — loads again.
func (w *workload) serverFlags(dir, data string, first bool) []string {
	var flags []string
	if w.durable {
		flags = append(flags, "-wal-dir", filepath.Join(dir, "wal"))
	}
	if w.snapshot {
		flags = append(flags, "-snapshot", filepath.Join(dir, "store.snap"),
			"-checkpoint-wal-bytes", strconv.Itoa(checkpointWALBytes))
	}
	if first || !w.durable {
		flags = append(flags, "-load", data)
	}
	return flags
}

// phasePlan splits a run's measured seconds evenly: open loop at the
// fixed rate, then closed loop.
func phasePlan(seconds int) (fixed, sat time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 2, total - total/2
}

// runEndToEnd measures one workload against a child rdfserve. With rec
// set (the traced run) it starts the server once, runs only the fixed
// phase with a span around every request, and returns the server's
// counter deltas; the end-to-end metrics come from runs with rec nil.
func runEndToEnd(ctx context.Context, w *workload, ds *dataset, bin, workDir string, seconds int, rec *spanRecorder) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: ds.seed, Seconds: seconds, Traced: rec != nil,
		Metrics: map[string]metric{}, Dataset: ds.info()}
	fixedDur, satDur := phasePlan(seconds)
	nSetups := setups
	if rec != nil {
		nSetups = 1
	}

	// Set-up, several times over; each start gets fresh directories.
	var srv *child
	var dir string
	for i := 0; i < nSetups; i++ {
		if srv != nil {
			srv.kill()
		}
		dir = filepath.Join(workDir, fmt.Sprintf("srv%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if srv, err = launch(ctx, bin, w.serverFlags(dir, ds.path, true)...); err != nil {
			return nil, err
		}
		res.SetupSamples = append(res.SetupSamples, srv.setupS)
	}
	defer func() { srv.kill() }()
	res.Metrics["setup_s"] = metric{medianFloat(res.SetupSamples), "s"}

	drv := newDriver(srv.base, rec)
	defer func() { drv.close() }()

	// Warm-up: connections, the server's term cache and plan statistics,
	// and the Go runtime's heap all settle before anything is timed.
	warm := newReqGen(ds, w.dist, 0).stream(w.fixed, w.warmup)
	probe := probeRequest()
	warmed := drv.sequential(ctx, "warm-up", append([]*request{probe}, warm...))
	res.addPhase(warmed)

	settleDisk()

	before, err := srv.counters()
	if err != nil {
		return nil, err
	}

	// Fixed phase: open loop at the frozen rate.
	n := int(w.rate * fixedDur.Seconds())
	gen := newReqGen(ds, w.dist, 1)
	reqs := gen.stream(w.fixed, n)
	res.RequestsSHA = hashRequests(append(warm, reqs...))
	due := schedule(w.rate, n)
	stopRSS := make(chan struct{})
	rssSamples := make(chan []float64, 1)
	go func() { rssSamples <- srv.sampleRSS(stopRSS) }()
	fixed := drv.openLoop(ctx, "fixed", reqs, due, w.limit)
	close(stopRSS)
	rss := <-rssSamples
	res.addPhase(fixed)
	acked := append(warmed.acked, fixed.acked...)
	if fixed.LatenessGrows {
		res.warn("fixed: lateness grows: median %.1f ms over the last tenth of the schedule, limit %v", fixed.LateEndMS, w.limit)
	}
	if fixed.OverLimit > 0.01 {
		res.warn("fixed: %.2f%% of requests over the %v limit (allowed 1%%)", fixed.OverLimit*100, w.limit)
	}
	res.Metrics["p50_ms"] = metric{fixed.P50MS, "ms"}

	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	res.Counters = map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			res.Counters[k] = d
		}
	}
	if rec != nil {
		res.Correct = len(res.Problems) == 0
		return res, nil
	}

	if len(rss) == 0 {
		return nil, fmt.Errorf("no VmRSS sample of the server during the fixed phase")
	}
	res.Metrics["rss_mb"] = metric{medianFloat(rss), "MB"}

	// Kill and restart, several times over like set-up: time to healthy.
	// Then every acknowledged insert and the probe subject must be
	// readable from the last restart.
	drv.close()
	for i := 0; i < setups; i++ {
		srv.kill()
		if srv, err = launch(ctx, bin, w.serverFlags(dir, ds.path, false)...); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		res.RecoverySamples = append(res.RecoverySamples, srv.setupS)
	}
	res.Metrics["recovery_s"] = metric{medianFloat(res.RecoverySamples), "s"}
	drv = newDriver(srv.base, nil)
	audit := []*request{probe}
	for _, s := range acked {
		audit = append(audit, ackedRequest(s))
	}
	res.addPhase(drv.sequential(ctx, "audit", audit))

	// Saturation phase: closed loop, two clients back to back, after a
	// short warm-up of the restarted server.
	res.addPhase(drv.sequential(ctx, "re-warm", newReqGen(ds, w.dist, 2).stream(w.sat, w.warmup/4)))
	gens := make([]func() *request, clients)
	for c := range gens {
		g := newReqGen(ds, w.dist, 3+c)
		gens[c] = func() *request { return g.next(w.sat.pick(g.rng)) }
	}
	sat := drv.closedLoop(ctx, "sat", gens, satDur)
	res.addPhase(sat)
	res.Metrics["throughput_rps"] = metric{float64(sat.OK) / sat.Seconds, "1/s"}

	res.Correct = len(res.Problems) == 0
	return res, nil
}

// probeRequest is the paper's Exp II query: the probe subject returns
// uniprot.ProbeRows triples.
func probeRequest() *request {
	r := &request{kind: opFindS, subject: uniprot.ProbeSubject, wantCount: uniprot.ProbeRows}
	r.get(map[string][]string{"s": {wrap(uniprot.ProbeSubject)}})
	return r
}

// ackedRequest reads back one inserted protein: all 8 of its triples.
func ackedRequest(subject string) *request {
	r := &request{kind: opFindS, subject: subject, wantCount: 8}
	r.get(map[string][]string{"s": {wrap(subject)}})
	return r
}
