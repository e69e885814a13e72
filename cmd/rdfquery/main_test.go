package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/reify"
	"repro/internal/wal"
)

func writeData(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const icData = `
<http://www.us.gov#files> <http://www.us.gov#terrorSuspect> <http://www.us.id#JohnDoe> .
<http://www.us.id#JimDoe> <http://www.us.gov#terrorAction> "bombing" .
`

func TestQueryBasic(t *testing.T) {
	path := writeData(t, icData)
	var out strings.Builder
	err := run([]string{
		"-data", path,
		"-query", "(?s ?p ?o)",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 rows") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestQueryWithAliasAndFilter(t *testing.T) {
	path := writeData(t, icData)
	var out strings.Builder
	err := run([]string{
		"-data", path,
		"-alias", "gov=http://www.us.gov#",
		"-query", "(?s gov:terrorSuspect ?o)",
		"-filter", `LIKE(?o, "%JohnDoe")`,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "1 rows") || !strings.Contains(got, "JohnDoe") {
		t.Errorf("output:\n%s", got)
	}
}

func TestQueryWithRule(t *testing.T) {
	path := writeData(t, icData)
	var out strings.Builder
	err := run([]string{
		"-data", path,
		"-alias", "gov=http://www.us.gov#",
		"-query", "(gov:files gov:terrorSuspect ?x)",
		"-rule", `(?x gov:terrorAction "bombing") => (gov:files gov:terrorSuspect ?x)`,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "JimDoe") { // inferred
		t.Errorf("inferred suspect missing:\n%s", got)
	}
	if !strings.Contains(got, "2 rows") {
		t.Errorf("output:\n%s", got)
	}
}

func TestQueryWithRDFS(t *testing.T) {
	path := writeData(t, `
<http://x#Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x#Animal> .
<http://x#rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x#Dog> .
`)
	var out strings.Builder
	err := run([]string{
		"-data", path,
		"-rdfs",
		"-query", "(?x rdf:type <http://x#Animal>)",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rex") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestQueryErrors(t *testing.T) {
	path := writeData(t, icData)
	cases := [][]string{
		{"-data", path},                  // missing -query
		{"-data", path, "-query", "bad"}, // bad query
		{"-data", path, "-query", "(?s ?p ?o)", "-alias", "noequals"},
		{"-data", path, "-query", "(?s ?p ?o)", "-rule", "no arrow"},
		{"-data", "/nonexistent.nt", "-query", "(?s ?p ?o)"},
	}
	for i, args := range cases {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestQuerySnapshot(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "d.nt")
	if err := os.WriteFile(dataPath, []byte(icData), 0o600); err != nil {
		t.Fatal(err)
	}
	// Build a snapshot through the core API (what rdfload -save does).
	snapPath := filepath.Join(dir, "s.snap")
	buildSnapshot(t, dataPath, snapPath)

	var out strings.Builder
	err := run([]string{
		"-snapshot", snapPath,
		"-model", "data",
		"-query", "(?s ?p ?o)",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 rows") {
		t.Errorf("output:\n%s", out.String())
	}
	// Missing snapshot errors.
	if err := run([]string{"-snapshot", "/nonexistent.snap", "-query", "(?s ?p ?o)"}, &strings.Builder{}); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

func buildSnapshot(t *testing.T, dataPath, snapPath string) {
	t.Helper()
	st := core.New()
	if _, err := st.CreateRDFModel("data", "", ""); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loader := &reify.Loader{Store: st, Model: "data"}
	if _, err := loader.Load(f); err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if err := st.Save(sf, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStatsFlag(t *testing.T) {
	path := writeData(t, icData)
	var out strings.Builder
	if err := run([]string{"-data", path, "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "triples (rdf_link$ rows): 2") {
		t.Errorf("output:\n%s", got)
	}
	if !strings.Contains(got, "CONTEXT=D (direct):       2") {
		t.Errorf("output:\n%s", got)
	}
}

// loadWithWAL runs rdfload's pipeline by hand: a store recovered from
// snapPath + walDir (either may not exist yet), loaded with the given
// N-Triples through the WAL, and checkpointed into snapPath when
// checkpoint is set.
func loadWithWAL(t *testing.T, walDir, snapPath, nt string, checkpoint bool) {
	t.Helper()
	st, d, _, err := core.RecoverDir(snapPath, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st.SetDurability(d)
	if _, err := st.GetModelID("data"); err != nil {
		if _, err := st.CreateRDFModel("data", "", ""); err != nil {
			t.Fatal(err)
		}
	}
	loader := &reify.Loader{Store: st, Model: "data"}
	if _, err := loader.Load(strings.NewReader(nt)); err != nil {
		t.Fatal(err)
	}
	if checkpoint {
		if err := core.CheckpointDir(st, snapPath, d); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryFromWAL(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "store.d")
	loadWithWAL(t, walDir, "", icData, false)

	var out strings.Builder
	err := run([]string{
		"-wal-dir", walDir,
		"-query", "(?s ?p ?o)",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "recovered from WAL") || !strings.Contains(got, "2 rows") {
		t.Errorf("output:\n%s", got)
	}
}

func TestQueryFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "store.d")
	snapPath := filepath.Join(dir, "store.snap")
	// Checkpoint the first triple into the snapshot, leave the second in
	// the log only.
	loadWithWAL(t, walDir, snapPath,
		"<http://www.us.gov#files> <http://www.us.gov#terrorSuspect> <http://www.us.id#JohnDoe> .\n", true)
	loadWithWAL(t, walDir, snapPath,
		`<http://www.us.id#JimDoe> <http://www.us.gov#terrorAction> "bombing" .`+"\n", false)

	var out strings.Builder
	err := run([]string{
		"-snapshot", snapPath,
		"-wal-dir", walDir,
		"-query", "(?s ?p ?o)",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "recovered from snapshot") || !strings.Contains(got, "2 rows") {
		t.Errorf("output:\n%s", got)
	}
}

// TestQueryWALDirFindsDefaultSnapshot: a checkpoint into the directory's
// default snapshot (an empty path, as a supervised rdfserve writes it)
// is found by -wal-dir alone, and the banner names it.
func TestQueryWALDirFindsDefaultSnapshot(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "store.d")
	loadWithWAL(t, walDir, "", icData, true)
	if _, err := os.Stat(filepath.Join(walDir, "snapshot")); err != nil {
		t.Fatalf("checkpoint did not land in the directory: %v", err)
	}

	var out strings.Builder
	if err := run([]string{"-wal-dir", walDir, "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	banner := "recovered from snapshot " + filepath.Join(walDir, "snapshot") + " + WAL directory " + walDir + " (0 records replayed"
	if !strings.Contains(got, banner) || !strings.Contains(got, "triples (rdf_link$ rows): 2") {
		t.Errorf("output:\n%s", got)
	}
}

func TestQueryTornWALRecovers(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "store.d")
	loadWithWAL(t, walDir, "", icData, false)
	// Tear the tail: chop bytes off the last record.
	seg := filepath.Join(walDir, "wal-000001.log")
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, img[:len(img)-3], 0o600); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	stderr := captureStderr(t)
	err = run([]string{
		"-wal-dir", walDir,
		"-query", "(?s ?p ?o)",
	}, &out)
	warnings := stderr()
	if err != nil {
		t.Fatal(err)
	}
	// The torn-tail repair is an operational warning: it must land on
	// stderr (one line), not pollute the query output on stdout.
	if !strings.Contains(warnings, "torn tail") {
		t.Errorf("torn tail warning not on stderr:\n%s", warnings)
	}
	if strings.Contains(out.String(), "torn tail") {
		t.Errorf("torn tail warning leaked to stdout:\n%s", out.String())
	}
}

// captureStderr swaps os.Stderr for a pipe; the returned func restores
// it and yields everything written in between.
func captureStderr(t *testing.T) func() string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	return func() string {
		w.Close()
		os.Stderr = old
		return <-done
	}
}

func TestQuerySnapshotErrorMessages(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("junk that is not a snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-snapshot", bad, "-query", "(?s ?p ?o)"}, &out)
	if err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("corrupt snapshot error = %v, want 'damaged' message", err)
	}

	notWAL := filepath.Join(dir, "bogus.d")
	if err := os.Mkdir(notWAL, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(notWAL, "wal-000001.log"), []byte("junk that is not a log 12345"), 0o600); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"-wal-dir", notWAL, "-query", "(?s ?p ?o)"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not a WAL") {
		t.Fatalf("non-WAL error = %v, want 'not a WAL' message", err)
	}
}

// TestQueryGobEraSnapshot opens a snapshot of the retired encoding/gob
// format: it is refused as an old format version, with the advice to
// regenerate it, not reported as damage.
func TestQueryGobEraSnapshot(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "core", "testdata", "gob-era", "store.snap")
	err := run([]string{"-snapshot", fixture, "-model", "m", "-query", "(?s ?p ?o)"}, io.Discard)
	want := "incompatible format version — regenerate it with this build's rdfload -save"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("gob-era snapshot error = %v, want %q", err, want)
	}
}

func TestQueryTimeoutFlag(t *testing.T) {
	// A generous timeout lets the query finish normally.
	path := writeData(t, icData)
	var out strings.Builder
	err := run([]string{
		"-data", path,
		"-query", "(?s ?p ?o)",
		"-timeout", "30s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 rows") {
		t.Errorf("output:\n%s", out.String())
	}

	// A sub-microsecond budget trips before the join can run, with the
	// dedicated message and exit code 2 — scripts can tell a deadline
	// kill (tune the query) from a Ctrl-C (exit 130).
	out.Reset()
	err = run([]string{
		"-data", path,
		"-query", "(?a ?p ?b) (?b ?q ?c)",
		"-timeout", "1ns",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "timed out after") {
		t.Fatalf("1ns timeout error = %v, want 'timed out after' message", err)
	}
	var xe *exitError
	if !errors.As(err, &xe) || xe.code != exitTimeout {
		t.Fatalf("timeout error = %#v, want exitError with code %d", err, exitTimeout)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error does not unwrap to DeadlineExceeded: %v", err)
	}
}

func TestQueryExplain(t *testing.T) {
	path := writeData(t, icData)
	var out strings.Builder
	err := run([]string{
		"-data", path,
		"-alias", "gov=http://www.us.gov#",
		"-query", "(?s gov:terrorSuspect ?o) (?s ?p ?o)",
		"-explain",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"explain:", "plan: ", "stage 1: #", "candidates=", "est=", "total "} {
		if !strings.Contains(got, want) {
			t.Errorf("explain output missing %q:\n%s", want, got)
		}
	}
	// One engine, one planner, one trace output: the old selector flags
	// and -explain's span, slow-query and admin twins are unknown.
	for _, flag := range [][]string{
		{"-planner=naive"}, {"-engine=materialize"},
		{"-slow", "1ns"}, {"-trace"}, {"-admin", "x"}, {"-admin-linger", "1s"},
	} {
		err := run(append([]string{"-data", path, "-query", "(?s ?p ?o)"}, flag...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

// TestQueryWALDirRecovers reads a store back from a segmented WAL
// directory, including the torn-tail repair warning on stderr.
func TestQueryWALDirRecovers(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal.d")
	d, _, err := wal.OpenDir(walDir, 0, wal.DirOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := core.New()
	st.SetDurability(d)
	if _, err := st.CreateRDFModel("data", "", ""); err != nil {
		t.Fatal(err)
	}
	loader := &reify.Loader{Store: st, Model: "data"}
	if _, err := loader.Load(strings.NewReader(icData)); err != nil {
		t.Fatal(err)
	}
	if d.Segments() < 2 {
		t.Fatalf("load spans only %d segment(s); shrink SegmentBytes", d.Segments())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean read via -wal-dir.
	var out strings.Builder
	if err := run([]string{"-wal-dir", walDir, "-query", "(?s ?p ?o)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recovered from WAL directory") {
		t.Errorf("recovery banner missing:\n%s", out.String())
	}

	// Tear the final segment's tail: one stderr warning, query still runs.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v (err %v)", segs, err)
	}
	last := segs[len(segs)-1]
	img, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, img[:len(img)-3], 0o600); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	stderr := captureStderr(t)
	err = run([]string{"-wal-dir", walDir, "-query", "(?s ?p ?o)"}, &out)
	warnings := stderr()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warnings, "torn tail") {
		t.Errorf("torn tail warning not on stderr:\n%s", warnings)
	}
}
