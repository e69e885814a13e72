package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/uniprot"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	for p, want := range map[float64]time.Duration{50: 50, 99: 99, 99.9: 100, 100: 100, 1: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", p, got, want)
		}
	}
}

// Four requests are due at once on two connections to a server that
// takes 40 ms: two are sent on time and two wait for a connection. The
// waiting pair's latency must run from the due instant (about 80 ms),
// and the wait must be reported as lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		io.WriteString(w, `{"triples":[],"count":0}`)
	}))
	defer srv.Close()
	reqs := make([]*request, 4)
	for i := range reqs {
		reqs[i] = &request{kind: opFindS, method: "GET", path: "/find?s=x"}
	}
	d := newDriver(srv.URL, nil)
	defer d.close()
	p := d.openLoop(context.Background(), "fixed", reqs, make([]time.Duration, 4), time.Second)
	if p.Failed != 0 || p.OK != 4 {
		t.Fatalf("phase: %v", p)
	}
	if p.P50MS < ms(service) || p.P50MS > ms(service)*1.9 {
		t.Errorf("p50 = %.1f ms, want about %v: the on-time pair", p.P50MS, service)
	}
	if p.P99MS < 2*ms(service)*0.95 {
		t.Errorf("p99 = %.1f ms, want about %v: the waiting pair timed from when it was due", p.P99MS, 2*service)
	}
	if p.LateMaxMS < ms(service)*0.9 || p.LateMeanMS < ms(service)*0.4 {
		t.Errorf("lateness mean %.1f max %.1f ms, want about %v max: the wait for a connection", p.LateMeanMS, p.LateMaxMS, service)
	}
	if p.OverLimit != 0 || p.LatenessGrows {
		t.Errorf("over limit %g, grows %v, want neither", p.OverLimit, p.LatenessGrows)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	gen := func() (*dataset, []byte) {
		var buf bytes.Buffer
		ds, err := generate(7, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return ds, buf.Bytes()
	}
	a, rawA := gen()
	b, rawB := gen()
	if !bytes.Equal(rawA, rawB) || a.sha256 != b.sha256 {
		t.Fatal("the same seed generated different datasets")
	}
	if p := a.proteins[0]; p.subject != uniprot.ProbeSubject || p.triples != uniprot.ProbeRows {
		t.Errorf("probe is %s with %d triples, want %s with %d", p.subject, p.triples, uniprot.ProbeSubject, uniprot.ProbeRows)
	}
	if a.lines != strings.Count(string(rawA), "\n") {
		t.Errorf("counted %d triples, wrote %d lines", a.lines, strings.Count(string(rawA), "\n"))
	}
	m := mixedMix()
	ra, rb := newReqGen(a, zipfKeys, 1).stream(m, 300), newReqGen(b, zipfKeys, 1).stream(m, 300)
	if hashRequests(ra) != hashRequests(rb) {
		t.Error("the same seed generated different request streams")
	}
	if hashRequests(ra) == hashRequests(newReqGen(a, zipfKeys, 2).stream(m, 300)) {
		t.Error("two stream ids generated the same requests")
	}
	kinds := map[opKind]bool{}
	for _, r := range ra {
		kinds[r.kind] = true
	}
	if len(kinds) != 9 { // every kind of the mix; insert512 is not in it
		t.Errorf("300 mixed requests cover %d kinds, want 9", len(kinds))
	}
}

func TestFoldSpans(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	var spans []span
	add := func(op int, name string, parent int, dur int64) int {
		id := len(spans)
		spans = append(spans, span{ID: id, Parent: parent, Op: op, Kind: "insert8", Name: name, StartNS: us(10), EndNS: us(10 + dur)})
		return id
	}
	// Three operations; the second has a slow top rung, which the
	// median must shrug off.
	for op, top := range []int64{100, 400, 100} {
		h := add(op, rungHTTP, -1, top)
		s := add(op, rungSupervise, h, 60)
		add(op, rungCore, s, 25)
		add(op, rungWAL, s, 15)
	}
	f := foldSpans(spans)
	for name, want := range map[string][2]time.Duration{
		rungHTTP:      {100 * time.Microsecond, 40 * time.Microsecond},
		rungSupervise: {60 * time.Microsecond, 20 * time.Microsecond},
		rungCore:      {25 * time.Microsecond, 25 * time.Microsecond},
		rungWAL:       {15 * time.Microsecond, 15 * time.Microsecond},
	} {
		got := f[rungKey{"insert8", name}]
		if got.total != want[0] || got.self != want[1] || got.n != 3 {
			t.Errorf("%s: total %v self %v n %d, want total %v self %v n 3", name, got.total, got.self, got.n, want[0], want[1])
		}
	}
	if got := f[rungKey{"insert8", rungCore}].parent; got != rungSupervise {
		t.Errorf("core's parent = %q, want %q", got, rungSupervise)
	}
	if p := checkSelfSums(spans); len(p) != 0 {
		t.Errorf("a ladder that adds up was rejected: %v", p)
	}
	// A bottom rung slower than the rung above it measured other work.
	add(0, rungReldb, 2, 80)
	add(1, rungReldb, 6, 80)
	add(2, rungReldb, 10, 80)
	if p := checkSelfSums(spans); len(p) != 1 {
		t.Errorf("a ladder that does not add up was accepted: %v", p)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	lower := e2eMetric{"p50_ms", "ms", false, 0.10}
	higher := e2eMetric{"throughput_rps", "1/s", true, 0.10}
	for _, c := range []struct {
		name string
		m    e2eMetric
		a, b []float64
		want string
	}{
		{"same", lower, tight(10), tight(10.5), "ok"},
		{"slower", lower, tight(10), tight(11.5), "worse"},
		{"faster", lower, tight(10), tight(5), "ok"},
		{"less throughput", higher, tight(1000), tight(850), "worse"},
		{"more throughput", higher, tight(1000), tight(1500), "ok"},
		{"noisy", lower, []float64{8, 10, 12, 9, 13}, tight(20), "unresolved"},
		{"single runs", lower, []float64{10}, []float64{12}, "worse"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	run := func(wl string, traced bool, metrics map[string]float64) *runResult {
		r := &runResult{Workload: wl, Seed: 1, Traced: traced, Metrics: map[string]metric{}}
		for k, v := range metrics {
			r.Metrics[k] = metric{Value: v}
		}
		return r
	}
	a := &results{Runs: []*runResult{run("read_point", false, map[string]float64{"p50_ms": 1}), run("read_point", true, map[string]float64{"core.rows_per_triple": 2.5})}}
	b := &results{Runs: []*runResult{run("read_point", false, map[string]float64{"p50_ms": 1.05}), run("read_point", true, map[string]float64{"core.rows_per_triple": 2.5})}}
	var out bytes.Buffer
	if code := compareResults(&out, a, b); code != 0 || !strings.Contains(out.String(), "ok") {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	b.Runs[0].Metrics["p50_ms"] = metric{Value: 2}
	if code := compareResults(io.Discard, a, b); code != 1 {
		t.Errorf("a doubled p50 exits %d, want 1", code)
	}
	b.Runs[0].Metrics["p50_ms"] = metric{Value: 1}
	b.Runs[1].Metrics["core.rows_per_triple"] = metric{Value: 2.6}
	out.Reset()
	if code := compareResults(&out, a, b); code != 1 || !strings.Contains(out.String(), "differs") {
		t.Errorf("an exact count that moved exits %d, want 1\n%s", code, out.String())
	}
}

// BENCHMARK.json is the declaration later changes are held to; the code
// must measure exactly what it declares.
func TestDeclarationMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, code %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the code", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		c := endToEnd[i]
		better := "lower"
		if c.higherBetter {
			better = "higher"
		}
		if m.Name != c.name || m.Unit != c.unit || m.Better != better || math.Abs(m.Bound-c.bound) > 1e-9 {
			t.Errorf("end-to-end metric %d: declared %+v, code %+v", i, m, c)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the code", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if c := perLayer[i]; m.Name != c.name || m.Unit != c.unit || m.Better != "lower" {
			t.Errorf("per-layer metric %d: declared %+v, code %+v", i, m, c)
		}
	}
}
