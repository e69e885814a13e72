package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// knobTable renders the flag set as the markdown table SERVING.md embeds
// between the knob-table markers. Generated from flag.VisitAll so the
// table and the binary cannot disagree: the test below fails when either
// a flag or its documented default/help text drifts.
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

// extractKnobTable pulls the block between the knob-table markers.
func extractKnobTable(t *testing.T, doc string) string {
	t.Helper()
	begin := "<!-- knob-table:rdfserve:begin -->"
	end := "<!-- knob-table:rdfserve:end -->"
	i := strings.Index(doc, begin)
	j := strings.Index(doc, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("SERVING.md is missing the %s / %s markers", begin, end)
	}
	return strings.TrimSpace(doc[i+len(begin) : j])
}

// diffKnobTables reports per-flag mismatches between the documented and
// generated tables, in both directions.
func diffKnobTables(t *testing.T, got, want string) {
	t.Helper()
	parse := func(s string) map[string]string {
		rows := map[string]string{}
		for _, line := range strings.Split(s, "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "| `-") {
				continue
			}
			cells := strings.SplitN(strings.Trim(line, "|"), "|", 3)
			if len(cells) != 3 {
				continue
			}
			name := strings.Trim(strings.TrimSpace(cells[0]), "`")
			rows[name] = line
		}
		return rows
	}
	gotRows, wantRows := parse(got), parse(want)
	for name, row := range wantRows {
		doc, ok := gotRows[name]
		switch {
		case !ok:
			t.Errorf("flag %s is not documented in SERVING.md; add the row:\n  %s", name, row)
		case doc != row:
			t.Errorf("flag %s drifted:\n  documented: %s\n  actual:     %s", name, doc, row)
		}
	}
	for name, row := range gotRows {
		if _, ok := wantRows[name]; !ok {
			t.Errorf("SERVING.md documents flag %s which rdfserve does not define; drop the row:\n  %s", name, row)
		}
	}
}

// TestServingKnobTableInSync keeps the SERVING.md rdfserve knob table
// byte-identical to what the binary's flag set produces: every flag
// documented, every documented flag real, defaults and help text exact.
func TestServingKnobTableInSync(t *testing.T) {
	fs, _ := newFlagSet()
	want := knobTable(fs)
	data, err := os.ReadFile(filepath.Join("..", "..", "SERVING.md"))
	if err != nil {
		t.Fatalf("reading SERVING.md: %v", err)
	}
	got := extractKnobTable(t, string(data))
	if got != want {
		diffKnobTables(t, got, want)
		t.Fatalf("SERVING.md rdfserve knob table out of sync; regenerate it as:\n%s", want)
	}
}
