package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "measure the paper's whole size sweep and rewrite the generated tables of EXPERIMENTS.md")

// paperSizes is the paper's size sweep (§7.1.1: 10 k, 100 k and 1 M
// extracts of the 5 M-triple UniProt dump).
var paperSizes = [...]int{10_000, 100_000, 1_000_000, 5_000_000}

const docPath = "../../EXPERIMENTS.md"

// table is one generated block of EXPERIMENTS.md, the markdown between
// <!-- experiments:<name>:begin --> and <!-- experiments:<name>:end -->.
type table struct {
	name    string
	headers []string
	// counts are the columns that hold counts, not timings: in default
	// mode they must equal the committed rows'.
	counts []int
	rows   [][]string
}

func (tb *table) add(cells ...string) { tb.rows = append(tb.rows, cells) }

func (tb *table) markdown() string {
	var b strings.Builder
	line := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	line(tb.headers)
	dashes := make([]string, len(tb.headers))
	for i := range dashes {
		dashes[i] = "---"
	}
	line(dashes)
	for _, r := range tb.rows {
		line(r)
	}
	return b.String()
}

// TestExperimentsDoc measures the paper's tables and checks them against
// EXPERIMENTS.md. By default it measures the 10 k point only and fails
// when a generated block is missing or a count column of a committed
// 10 k row differs from the fresh result; timings are not compared. With
// -update it measures every size of the sweep and rewrites the blocks:
//
//	go test ./internal/experiments -run TestExperimentsDoc -v -timeout 0 -args -update
func TestExperimentsDoc(t *testing.T) {
	sizes := paperSizes[:1]
	if *update {
		sizes = paperSizes[:]
	}
	tables := measureTables(t, sizes)
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	if *update {
		for _, tb := range tables {
			if doc, err = replaceBlock(doc, tb.name, tb.markdown()); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, tb := range tables {
		body, err := block(doc, tb.name)
		if err != nil {
			t.Error(err)
			continue
		}
		committed := tableRows(body)
		for i, fresh := range tb.rows {
			if i >= len(committed) {
				t.Errorf("experiments:%s: the committed table lacks row %q", tb.name, fresh)
				break
			}
			for _, c := range tb.counts {
				if c >= len(committed[i]) || committed[i][c] != fresh[c] {
					t.Errorf("experiments:%s row %d, column %q: committed %q, measured %q — regenerate with -update",
						tb.name, i+1, tb.headers[c], committed[i], fresh[c])
				}
			}
		}
	}
}

// measureTables runs every experiment, the size-swept ones at each of
// sizes, and renders the generated tables.
func measureTables(t *testing.T, sizes []int) []*table {
	env := &table{name: "env", headers: []string{"Go", "OS/arch", "CPUs", "CPU", "Seed", "Trials"}}
	env.add(runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH, fmt.Sprint(runtime.NumCPU()), cpuModel(),
		fmt.Sprint(Seed), fmt.Sprint(Trials))
	exp1 := &table{name: "exp1", counts: []int{0, 3},
		headers: []string{"Triples", "Member fns (sec)", "Flat tables (sec)", "Rows", "member µs", "flat µs"}}
	table1 := &table{name: "table1", counts: []int{0, 3},
		headers: []string{"Triples", "Jena2 (sec)", "RDF objects (sec)", "Rows", "Jena2 µs", "RDF µs"}}
	table2 := &table{name: "table2", counts: []int{0, 3},
		headers: []string{"Triples/Stmts", "Jena2 (sec)", "RDF objects (sec)", "Res", "Jena2 µs", "RDF µs"}}
	fbindex := &table{name: "fbindex", counts: []int{0},
		headers: []string{"Triples", "Indexed", "Unindexed (full scan + GET_SUBJECT per row)"}}
	for _, n := range sizes {
		start := time.Now()
		o, j, err := MeasureSize(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s triples measured in %v", fmtTriples(n), time.Since(start).Round(time.Millisecond))
		size := fmtTriples(n)
		exp1.add(size, seconds(o.MemberFns), seconds(o.FlatTables), fmt.Sprint(o.Rows),
			micros(o.MemberFns), micros(o.FlatTables))
		table1.add(size, seconds(j.Find), seconds(o.MemberFns), fmt.Sprint(o.Rows),
			micros(j.Find), micros(o.MemberFns))
		stmts := fmt.Sprintf("%s /%d", size, o.Reified)
		table2.add(stmts, seconds(j.ReifiedTrue), seconds(o.ReifiedTrue), "true",
			micros(j.ReifiedTrue), micros(o.ReifiedTrue))
		table2.add(stmts, seconds(j.ReifiedFalse), seconds(o.ReifiedFalse), "false",
			micros(j.ReifiedFalse), micros(o.ReifiedFalse))
		fbindex.add(size, duration(o.MemberFns), duration(o.Unindexed))
	}

	r, err := RunReificationStorage(Reifications)
	if err != nil {
		t.Fatal(err)
	}
	reif := &table{name: "reification", counts: []int{0, 1, 2},
		headers: []string{"Scheme", "Rows stored", "Row ratio", "Live heap / reification", "Byte ratio", "IS_REIFIED lookup"}}
	reif.add("Streamlined DBUri (this system)", fmt.Sprint(r.OracleRows),
		fmt.Sprintf("%.2f", float64(r.OracleRows)/float64(r.QuadRows)),
		fmt.Sprintf("%.0f B", r.OracleBytes), fmt.Sprintf("%.2f", r.OracleBytes/r.QuadBytes), duration(r.OracleLookup))
	reif.add("Naïve quad (baseline)", fmt.Sprint(r.QuadRows), "1.00",
		fmt.Sprintf("%.0f B", r.QuadBytes), "1.00", duration(r.QuadLookup))

	designs, err := RunStorageComparison(StorageTriples)
	if err != nil {
		t.Fatal(err)
	}
	storage := &table{name: "storage", counts: []int{0, 1, 2},
		headers: []string{"Design", "Text bytes", "Rows", "Live heap / triple"}}
	for _, d := range designs {
		storage.add(d.Design, groupDigits(d.TextBytes), groupDigits(int64(d.Rows)), fmt.Sprintf("%.0f B", d.HeapBytes))
	}

	ablations, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	abl := &table{name: "ablations", counts: []int{0, 1},
		headers: []string{"Design decision", "Variant", "Mean time"}}
	for _, a := range ablations {
		abl.add(a.Decision, a.Variant, duration(a.Time))
	}
	return []*table{env, exp1, table1, table2, reif, fbindex, storage, abl}
}

// cpuModel is the processor's model name, where the OS reports one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func markers(name string) (begin, end string) {
	return "<!-- experiments:" + name + ":begin -->", "<!-- experiments:" + name + ":end -->"
}

// block returns the text between a generated block's markers.
func block(doc, name string) (string, error) {
	begin, end := markers(name)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		return "", fmt.Errorf("%s is missing the %s / %s markers", filepath.Base(docPath), begin, end)
	}
	return doc[i+len(begin) : j], nil
}

// replaceBlock swaps a generated block's text for body.
func replaceBlock(doc, name, body string) (string, error) {
	old, err := block(doc, name)
	if err != nil {
		return "", err
	}
	begin, _ := markers(name)
	return strings.Replace(doc, begin+old, begin+"\n"+body, 1), nil
}

// tableRows parses a markdown table's body rows into trimmed cells.
func tableRows(body string) [][]string {
	var rows [][]string
	for i, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if i < 2 { // header and separator
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for c := range cells {
			cells[c] = strings.TrimSpace(cells[c])
		}
		rows = append(rows, cells)
	}
	return rows
}

// seconds formats a duration the way the paper's tables do (hundredths of
// a second; "0.00 represents query times that are less than a hundredth
// of a second").
func seconds(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// micros renders a duration in microseconds for the supplementary
// columns (the paper's 0.00 format hides sub-hundredth differences).
func micros(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond)) }

// duration renders a timing at a readable scale.
func duration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1f µs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2f s", d.Seconds())
}

func fmtTriples(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%d M", n/1_000_000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%d k", n/1000)
	}
	return fmt.Sprint(n)
}

// groupDigits writes n with thousands separators: 1234567 -> 1,234,567.
func groupDigits(n int64) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

func TestSecondsFormat(t *testing.T) {
	if got := seconds(0); got != "0.00" {
		t.Errorf("seconds(0) = %q", got)
	}
	if got := seconds(1500 * time.Millisecond); got != "1.50" {
		t.Errorf("seconds(1.5s) = %q", got)
	}
}

func TestFmtTriples(t *testing.T) {
	cases := map[int]string{
		10_000:    "10 k",
		100_000:   "100 k",
		1_000_000: "1 M",
		5_000_000: "5 M",
		1234:      "1234",
	}
	for in, want := range cases {
		if got := fmtTriples(in); got != want {
			t.Errorf("fmtTriples(%d) = %q, want %q", in, got, want)
		}
	}
}
