package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// knobTable renders the flag set as the markdown table SERVING.md embeds
// between the knob-table markers (same convention as cmd/rdfserve).
func knobTable(fs *flag.FlagSet) string {
	var b strings.Builder
	b.WriteString("| Flag | Default | Description |\n")
	b.WriteString("|------|---------|-------------|\n")
	fs.VisitAll(func(f *flag.Flag) {
		def := ""
		if f.DefValue != "" {
			def = "`" + f.DefValue + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", f.Name, def, f.Usage)
	})
	return strings.TrimSpace(b.String())
}

// TestServingKnobTableInSync keeps the SERVING.md rdfbench knob table
// byte-identical to what the binary's flag set produces, in both
// directions: every flag documented, every documented flag real.
func TestServingKnobTableInSync(t *testing.T) {
	fs, _ := newFlagSet()
	want := knobTable(fs)
	data, err := os.ReadFile(filepath.Join("..", "..", "SERVING.md"))
	if err != nil {
		t.Fatalf("reading SERVING.md: %v", err)
	}
	doc := string(data)
	begin := "<!-- knob-table:rdfbench:begin -->"
	end := "<!-- knob-table:rdfbench:end -->"
	i := strings.Index(doc, begin)
	j := strings.Index(doc, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("SERVING.md is missing the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(doc[i+len(begin) : j])
	if got != want {
		t.Fatalf("SERVING.md rdfbench knob table out of sync; regenerate it as:\n%s", want)
	}
}

// TestSelfServeInjectsWriteFaultsOnSegments runs the self-serve drill
// with a segment knob and a write-fault rate set together: the write rate
// must arm on every segment file alongside the segment options, so the
// report counts injected write failures.
func TestSelfServeInjectsWriteFaultsOnSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("self-serve drill skipped in -short mode")
	}
	var out strings.Builder
	err := run([]string{"-conns", "4", "-duration", "1s", "-burst", "8",
		"-wal-segment-bytes", "4096", "-chaos-wal-write-rate", "0.3"}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`injected WAL faults (\d+)`).FindStringSubmatch(out.String())
	if m == nil || m[1] == "0" {
		t.Fatalf("the drill injected no WAL write faults:\n%s", out.String())
	}
}
