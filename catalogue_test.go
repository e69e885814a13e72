package repro

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/supervise"
	"repro/internal/wal"
)

// catalogueRow matches one row of DESIGN.md §7's metric table:
// | `name` | type | what it answers |
var catalogueRow = regexp.MustCompile("^\\| `([a-z0-9_]+)` \\| (counter|gauge|histogram) \\|")

// TestMetricCatalogueInSync keeps DESIGN.md §7's metric catalogue true:
// every family the subsystems register is listed there by its full name
// and type, and every listed family is registered.
func TestMetricCatalogueInSync(t *testing.T) {
	reg := obs.NewRegistry()
	core.New().SetMetrics(core.NewMetrics(reg)) // core_, ndm_ and the reldb_ collectors
	wal.NewMetrics(reg)
	supervise.NewMetrics(reg)
	server.NewMetrics(reg)
	registered := map[string]string{}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		registered[c.Name] = "counter"
	}
	for _, f := range snap.Families {
		registered[f.Name] = "counter"
	}
	for _, g := range snap.Gauges {
		registered[g.Name] = "gauge"
	}
	for _, h := range snap.Histograms {
		registered[h.Name] = "histogram"
	}

	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## 7. Observability\n")
	if start < 0 {
		t.Fatal("DESIGN.md has no \"## 7. Observability\" section")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	documented := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		m := catalogueRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if _, dup := documented[m[1]]; dup {
			t.Errorf("DESIGN.md §7 lists %s twice", m[1])
		}
		documented[m[1]] = m[2]
	}

	var names []string
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch typ, ok := documented[name]; {
		case !ok:
			t.Errorf("%s %s is registered but not in DESIGN.md §7's catalogue", registered[name], name)
		case typ != registered[name]:
			t.Errorf("DESIGN.md §7 lists %s as a %s; it is registered as a %s", name, typ, registered[name])
		}
	}
	names = names[:0]
	for name := range documented {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := registered[name]; !ok {
			t.Errorf("DESIGN.md §7 lists %s, which nothing registers", name)
		}
	}
}
