package main

import (
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

const sample = `
<http://gov/files> <http://gov/terrorSuspect> <http://id/JohnDoe> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#subject> <http://gov/files> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#predicate> <http://gov/terrorSuspect> .
_:r1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#object> <http://id/JohnDoe> .
<http://gov/MI5> <http://gov/source> _:r1 .
`

func TestRunLoadsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.nt")
	if err := os.WriteFile(path, []byte(sample), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-model", "test", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"read:                 6 triples",
		"quads folded:         1",
		"assertions rewritten: 1",
		"reified statements:   1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunStdin(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("<http://a> <http://p> <http://b> .\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "read:                 1 triples") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunBadPolicy(t *testing.T) {
	if err := run([]string{"-policy", "explode"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"/nonexistent/file.nt"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunParseError(t *testing.T) {
	if err := run(nil, strings.NewReader("garbage\n"), &strings.Builder{}); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

func TestRunSaveSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "out.snap")
	var out strings.Builder
	err := run([]string{"-model", "m", "-save", snap},
		strings.NewReader("<http://a> <http://p> <http://b> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "snapshot written") {
		t.Errorf("output:\n%s", out.String())
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st.NumTriples("m"); n != 1 {
		t.Fatalf("snapshot triples = %d", n)
	}
}

const xmlSample = `<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        xmlns:gov="http://gov#">
  <rdf:Description rdf:about="http://gov/files">
    <gov:terrorSuspect rdf:ID="claim1" rdf:resource="http://id/JohnDoe"/>
  </rdf:Description>
</rdf:RDF>`

func TestRunXMLFormat(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-format", "xml", "-base", "http://base", "-model", "m"},
		strings.NewReader(xmlSample), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// The rdf:ID reification quad (4 triples) plus the base statement are
	// read; the quad folds to one DBUri row.
	for _, want := range []string{
		"read:                 5 triples",
		"quads folded:         1",
		"stored rows:          2",
		"reified statements:   1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunXMLBadFormatAndParse(t *testing.T) {
	if err := run([]string{"-format", "weird"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("unknown format accepted")
	}
	if err := run([]string{"-format", "xml"}, strings.NewReader("<unclosed>"), &strings.Builder{}); err == nil {
		t.Fatal("bad XML accepted")
	}
}

func TestRunWALDurableLoad(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "store.d")

	// First load writes through the WAL.
	var out strings.Builder
	err := run([]string{"-model", "m", "-wal-dir", walDir},
		strings.NewReader("<http://a> <http://p> <http://b> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}

	// Second invocation replays the log and keeps loading into the same
	// model — the resumed-load path.
	out.Reset()
	err = run([]string{"-model", "m", "-wal-dir", walDir},
		strings.NewReader("<http://c> <http://p> <http://d> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed") {
		t.Errorf("second run did not report WAL replay:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stored rows:          2") {
		t.Errorf("second run should see both triples:\n%s", out.String())
	}

	// Recover directly from the log and check both loads survived.
	if n := recoveredTriples(t, "", walDir); n != 2 {
		t.Fatalf("recovered store has %d triples, want 2", n)
	}
}

// recoveredTriples recovers snap + walDir from disk alone and counts
// model m's triples.
func recoveredTriples(t *testing.T, snap, walDir string) int {
	t.Helper()
	st, d, info, err := core.RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if info.Truncated {
		t.Fatalf("unexpected torn tail: %v", info.TailErr)
	}
	n, err := st.NumTriples("m")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// walRecords is the number of records left in walDir's segments.
func walRecords(t *testing.T, walDir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range segs {
		res, err := wal.ScanFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += len(res.Records)
	}
	return n
}

func TestRunWALCheckpointOnSave(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "store.d")
	snap := filepath.Join(dir, "store.snap")

	var out strings.Builder
	err := run([]string{"-model", "m", "-wal-dir", walDir, "-save", snap},
		strings.NewReader("<http://a> <http://p> <http://b> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkpointed") {
		t.Errorf("no checkpoint message:\n%s", out.String())
	}
	// After the checkpoint the log is empty; the snapshot holds the data.
	if n := walRecords(t, walDir); n != 0 {
		t.Fatalf("WAL still has %d records after checkpoint", n)
	}
	st, err := core.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st.NumTriples("m"); n != 1 {
		t.Fatalf("snapshot has %d triples, want 1", n)
	}
}

func TestRunWALRejectsNonWAL(t *testing.T) {
	walDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(walDir, "wal-000001.log"), []byte("this is not a log at all"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-model", "m", "-wal-dir", walDir},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "not a WAL") {
		t.Fatalf("err = %v, want not-a-WAL error", err)
	}
}

func TestRunWALContinueAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "store.d")
	snap := filepath.Join(dir, "store.snap")

	// Load + checkpoint, then keep loading with the snapshot passed back
	// in: the post-checkpoint log must apply cleanly on top of it.
	var out strings.Builder
	err := run([]string{"-model", "m", "-wal-dir", walDir, "-save", snap},
		strings.NewReader("<http://a> <http://p> <http://b> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"-model", "m", "-snapshot", snap, "-wal-dir", walDir},
		strings.NewReader("<http://c> <http://p> <http://d> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loaded checkpoint snapshot") {
		t.Errorf("no checkpoint message:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stored rows:          2") {
		t.Errorf("second load should see both triples:\n%s", out.String())
	}

	// Recovery = snapshot + post-checkpoint records.
	if n := walRecords(t, walDir); n == 0 {
		t.Fatal("the second load logged nothing past the checkpoint")
	}
	if n := recoveredTriples(t, snap, walDir); n != 2 {
		t.Fatalf("recovered store has %d triples, want 2", n)
	}
}

func TestRunFastPathFlagsMatchSerial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.nt")
	if err := os.WriteFile(path, []byte(sample), 0o600); err != nil {
		t.Fatal(err)
	}
	var serial, fast strings.Builder
	if err := run([]string{"-model", "test", "-batch", "1", "-workers", "1", path},
		strings.NewReader(""), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "test", "-batch", "2", "-workers", "4", path},
		strings.NewReader(""), &fast); err != nil {
		t.Fatal(err)
	}
	if serial.String() != fast.String() {
		t.Fatalf("fast-path output differs from serial:\n--- serial ---\n%s--- fast ---\n%s",
			serial.String(), fast.String())
	}
}

func TestRunWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "store.d")

	// Group commit (-sync-every 8) buffers commits, but the final Flush
	// before exit makes the whole load durable.
	var out strings.Builder
	doc := "<http://a> <http://p> <http://b> .\n<http://c> <http://p> <http://d> .\n<http://e> <http://p> <http://f> .\n"
	err := run([]string{"-model", "m", "-wal-dir", walDir, "-sync-every", "8", "-batch", "2"},
		strings.NewReader(doc), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n := recoveredTriples(t, "", walDir); n != 3 {
		t.Fatalf("recovered store has %d triples, want 3", n)
	}

	// Checkpoint under group commit: the buffered tail must be flushed
	// before the snapshot is written and the old segments retired.
	snap := filepath.Join(dir, "store.snap")
	out.Reset()
	err = run([]string{"-model", "m", "-wal-dir", walDir, "-sync-every", "4", "-save", snap},
		strings.NewReader("<http://g> <http://p> <http://h> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n := walRecords(t, walDir); n != 0 {
		t.Fatalf("WAL still has %d records after checkpoint", n)
	}
	st, err := core.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st.NumTriples("m"); n != 4 {
		t.Fatalf("snapshot has %d triples, want 4", n)
	}
}

func TestRunRejectsBadFastPathFlags(t *testing.T) {
	if err := run([]string{"-batch", "0"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("-batch 0 accepted")
	}
	if err := run([]string{"-sync-every", "0"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("-sync-every 0 accepted")
	}
}

// TestRunAdminEndpoint drives the full admin path: a durable load with
// -admin serving the registry, scraped over HTTP while the endpoint
// lingers, with the exposition strictly parsed and checked for the
// store and WAL series the load must have produced.
func TestRunAdminEndpoint(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "store.d")
	// Reserve a port, free it, and hand it to -admin. (A small window
	// exists where another process could grab it; tests tolerate that
	// by failing loudly rather than flaking silently.)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-model", "m", "-wal-dir", walDir, "-sync-every", "4",
			"-admin", addr, "-admin-linger", "5s",
		}, strings.NewReader("<http://a> <http://p> <http://b> .\n"), &strings.Builder{})
	}()

	// Poll /metrics until the lingering endpoint answers.
	var exp *obs.Exposition
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			exp, err = obs.ParseExposition(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("/metrics unparseable: %v", err)
			}
			if exp.HasPrefix("wal_") {
				break // load finished; WAL counters are final
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("admin endpoint never served WAL metrics (err %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, prefix := range []string{"core_", "wal_"} {
		if !exp.HasPrefix(prefix) {
			t.Errorf("exposition missing %s* series", prefix)
		}
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/healthz = %s, want 200", resp.Status)
	}
	// The command is still lingering; don't wait the full 5s here.
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	default:
	}
}

func TestRunAdminBadAddr(t *testing.T) {
	err := run([]string{"-admin", "definitely-not-an-address:xyz"},
		strings.NewReader(""), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "-admin") {
		t.Fatalf("bad -admin addr error = %v", err)
	}
}

// TestRunWALDirDurableLoad is TestRunWALDurableLoad with segments small
// enough to rotate: load, resume (replaying segments), checkpoint with
// -save (snapshot watermark + retention), resume again from snapshot +
// surviving segments.
func TestRunWALDirDurableLoad(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal.d")
	snap := filepath.Join(dir, "store.snap")

	// Tiny segments so even this little load rotates.
	var out strings.Builder
	err := run([]string{"-model", "m", "-wal-dir", walDir, "-wal-segment-bytes", "64"},
		strings.NewReader("<http://a> <http://p> <http://b> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v (err %v)", segs, err)
	}

	// Resume: replay the segments, keep loading, checkpoint via -save.
	out.Reset()
	err = run([]string{"-model", "m", "-wal-dir", walDir, "-wal-segment-bytes", "64", "-save", snap},
		strings.NewReader("<http://c> <http://p> <http://d> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed") {
		t.Errorf("second run did not report segment replay:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stored rows:          2") {
		t.Errorf("second run should see both triples:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stale segments retired") {
		t.Errorf("-save did not checkpoint the directory:\n%s", out.String())
	}

	// Continue from snapshot + retained segments; everything survives.
	out.Reset()
	err = run([]string{"-model", "m", "-wal-dir", walDir, "-snapshot", snap, "-wal-segment-bytes", "64"},
		strings.NewReader("<http://e> <http://p> <http://f> .\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stored rows:          3") {
		t.Errorf("third run should see all three triples:\n%s", out.String())
	}

	// Recover from disk alone.
	if n := recoveredTriples(t, snap, walDir); n != 3 {
		t.Fatalf("recovered store has %d triples, want 3", n)
	}
}

// TestRunWALDirExclusiveFlags pins the flag validation: the segment
// knobs need -wal-dir, and -wal-dir is the only log (-wal is no flag).
func TestRunWALDirExclusiveFlags(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-wal-hard-bytes", "1024"}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "require -wal-dir") {
		t.Fatalf("err = %v, want require--wal-dir error", err)
	}
	err = run([]string{"-wal", "store.wal"}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -wal") {
		t.Fatalf("err = %v, want -wal to be an unknown flag", err)
	}
}
