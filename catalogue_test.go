package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

// spanNameArg is the position of the span name among the arguments of
// each internal/trace call that names a span.
var spanNameArg = map[string]int{"StartRoot": 0, "Child": 0, "AddCompleted": 0, "Start": 1, "StartRemote": 1}

// spanShape renders a span-name expression with its computed parts as
// "*": a string literal as itself, a concatenation part by part, an
// fmt.Sprintf by its format. ok is false for anything else (a name
// passed through a variable).
func spanShape(e ast.Expr) (shape string, ok bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			part := func(x ast.Expr) string {
				if s, ok := spanShape(x); ok {
					return s
				}
				return "*"
			}
			return part(e.X) + part(e.Y), true
		}
	case *ast.CallExpr:
		if sel, isSel := e.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Sprintf" && len(e.Args) > 0 {
			if format, ok := spanShape(e.Args[0]); ok {
				return regexp.MustCompile(`%[a-z]`).ReplaceAllString(format, "*"), true
			}
		}
	}
	return "", false
}

// spanTableName matches a span name in DESIGN.md §10's taxonomy table;
// "<endpoint>" and "N: #i" are its computed parts.
var spanTableName = regexp.MustCompile("`((?:<endpoint>|[a-z]+)\\.[a-z_]+(?: N: #i)?)`")

// TestSpanCatalogueInSync keeps DESIGN.md §10's span taxonomy true: every
// span name non-test code passes to the tracer is in the table, and every
// name in the table is started somewhere.
func TestSpanCatalogueInSync(t *testing.T) {
	started := map[string]string{} // shape → where
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if i, named := spanNameArg[sel.Sel.Name]; named && i < len(call.Args) {
				if shape, ok := spanShape(call.Args[i]); ok {
					started[shape] = fset.Position(call.Pos()).String()
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n| Layer | Spans |\n")
	if start < 0 {
		t.Fatal("DESIGN.md has no \"| Layer | Spans |\" table")
	}
	table := doc[start+1:]
	table = table[:strings.Index(table+"\n\n", "\n\n")]
	documented := map[string]string{} // shape → name as written
	for _, m := range spanTableName.FindAllStringSubmatch(table, -1) {
		shape := strings.NewReplacer("<endpoint>", "*", " N: #i", " *: #*").Replace(m[1])
		documented[shape] = m[1]
	}

	for _, shape := range sortedKeys(started) {
		if _, ok := documented[shape]; !ok {
			t.Errorf("span %q (%s) is not in DESIGN.md §10's table", shape, started[shape])
		}
	}
	for _, shape := range sortedKeys(documented) {
		if _, ok := started[shape]; !ok {
			t.Errorf("DESIGN.md §10 lists span %s, which no code starts", documented[shape])
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
