package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/wal"
)

// walStore returns a fresh store logging to a fresh WAL directory. The
// log skips fsyncs (noFault): these tests read it back through the page
// cache.
func walStore(t *testing.T) (*Store, *wal.Dir) {
	t.Helper()
	d, _, err := wal.OpenDir(filepath.Join(t.TempDir(), "wal"), 0, wal.DirOptions{Wrap: noFault().Wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s := New()
	s.SetDurability(d)
	return s, d
}

// recoverLog rebuilds a store from a snapshot ("" for none) and a WAL
// directory, asserting the recovery is clean.
func recoverLog(t *testing.T, snapPath, dir string) *Store {
	t.Helper()
	s, d, info, err := RecoverDir(snapPath, dir, wal.DirOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	d.Close()
	if info.Truncated {
		t.Fatalf("unexpected torn tail: %v", info.TailErr)
	}
	assertInvariants(t, s)
	return s
}

// TestWALRoundTrip runs the full crash workload with logging on and
// checks that replaying the log alone reproduces the live store exactly.
func TestWALRoundTrip(t *testing.T) {
	s, log := walStore(t)
	for _, op := range walWorkload() {
		if err := op.do(s); err != nil {
			t.Fatalf("op %q: %v", op.name, err)
		}
	}
	rec := recoverLog(t, "", log.Path())
	if got, want := fingerprint(t, rec), fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("recovered store differs from live store")
	}
	if n := rec.TotalTriples(); n != s.TotalTriples() {
		t.Fatalf("recovered %d triples, live has %d", n, s.TotalTriples())
	}
}

// TestRecoverFromCheckpoint checkpoints mid-history (snapshot, retire the
// log), keeps mutating, and recovers from snapshot + WAL.
func TestRecoverFromCheckpoint(t *testing.T) {
	s, log := walStore(t)
	snap := filepath.Join(t.TempDir(), "store.snap")
	a := govAliases()

	if _, err := s.CreateRDFModel("gov", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("gov", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}
	if err := CheckpointDir(s, snap, log); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint history: new work plus a delete of pre-checkpoint
	// state, so replay must patch the snapshot, not just extend it.
	if _, err := s.NewTripleS("gov", "gov:c", "gov:p", "gov:d", a); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteTriple("gov", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRDFModel("late", "", ""); err != nil {
		t.Fatal(err)
	}

	rec := recoverLog(t, snap, log.Path())
	if got, want := fingerprint(t, rec), fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("snapshot+WAL recovery differs from live store")
	}
	if _, ok, err := rec.IsTriple("gov", "gov:a", "gov:p", "gov:b", a); err != nil || ok {
		t.Fatalf("deleted triple visible after recovery (ok=%v, err=%v)", ok, err)
	}
	if _, ok, err := rec.IsTriple("gov", "gov:c", "gov:p", "gov:d", a); err != nil || !ok {
		t.Fatalf("post-checkpoint triple missing after recovery (ok=%v, err=%v)", ok, err)
	}
}

// TestRecoverThenContinue crashes mid-workload, recovers, keeps going on
// the recovered log after a checkpoint, and recovers again — the restart
// loop of a real process, twice over.
func TestRecoverThenContinue(t *testing.T) {
	ops := walWorkload()
	cutAfter := 7 // crash after the first 7 ops

	s1, log1 := walStore(t)
	for _, op := range ops[:cutAfter] {
		if err := op.do(s1); err != nil {
			t.Fatalf("op %q: %v", op.name, err)
		}
	}
	// "Crash": s1 is discarded; only its log survives.
	log1.Close()
	snap := filepath.Join(t.TempDir(), "store.snap")
	s2, log2, _, err := RecoverDir(snap, log1.Path(), wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if got, want := fingerprint(t, s2), fingerprint(t, s1); !bytes.Equal(got, want) {
		t.Fatal("first recovery differs from pre-crash store")
	}

	// Continue on the recovered log after a checkpoint of the recovered
	// state, then crash and recover once more.
	s2.SetDurability(log2)
	if err := CheckpointDir(s2, snap, log2); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[cutAfter:] {
		if err := op.do(s2); err != nil {
			t.Fatalf("op %q: %v", op.name, err)
		}
	}
	s3 := recoverLog(t, snap, log2.Path())
	if got, want := fingerprint(t, s3), fingerprint(t, s2); !bytes.Equal(got, want) {
		t.Fatal("second recovery differs from live store")
	}
}

// TestLogResetCheckpointOnDisk exercises the checkpoint sequence against
// the log on disk: write, checkpoint (the log is reset to the segments
// after the snapshot's watermark), write more, close, recover.
func TestLogResetCheckpointOnDisk(t *testing.T) {
	dir := t.TempDir()
	snap, walDir := filepath.Join(dir, "store.snap"), filepath.Join(dir, "wal")
	s, log, info, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Applied != 0 {
		t.Fatalf("fresh WAL replayed %d records", info.Applied)
	}
	s.SetDurability(log)
	a := govAliases()
	if _, err := s.CreateRDFModel("gov", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("gov", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}
	if err := CheckpointDir(s, snap, log); err != nil {
		t.Fatal(err)
	}
	if log.Segments() != 1 || log.Size() != int64(len(wal.Magic)) {
		t.Fatalf("checkpoint left %d segments, %d bytes; want one empty segment", log.Segments(), log.Size())
	}
	if _, err := s.NewTripleS("gov", "gov:c", "gov:p", "gov:d", a); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the snapshot plus the post-checkpoint tail.
	rec, log2, info, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if info.Applied == 0 {
		t.Fatal("post-checkpoint mutation was not replayed")
	}
	assertInvariants(t, rec)
	if got, want := fingerprint(t, rec), fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("on-disk checkpoint recovery differs from live store")
	}
}

// TestDropModelRecovery drops a model whose values are shared with a
// surviving model, and checks WAL replay reproduces the post-drop state:
// shared nodes kept, exclusive nodes gone, model catalog and view gone.
func TestDropModelRecovery(t *testing.T) {
	s, log := walStore(t)
	a := govAliases()
	for _, m := range []string{"keep", "doomed"} {
		if _, err := s.CreateRDFModel(m, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	// gov:shared is a node in both models; gov:only in "doomed" alone.
	if _, err := s.NewTripleS("keep", "gov:shared", "gov:p", "gov:x", a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("doomed", "gov:shared", "gov:p", "gov:only", a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("doomed", "_:b", "gov:p", "gov:z", a); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRDFModel("doomed"); err != nil {
		t.Fatal(err)
	}
	assertInvariants(t, s)

	rec := recoverLog(t, "", log.Path())
	if got, want := fingerprint(t, rec), fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("post-drop recovery differs from live store")
	}
	if _, err := rec.GetModelID("doomed"); err == nil {
		t.Fatal("dropped model still resolvable after recovery")
	}
	if n, err := rec.NumTriples("keep"); err != nil || n != 1 {
		t.Fatalf("surviving model has %d triples (err %v), want 1", n, err)
	}
	// The dropped model's name is reusable on the recovered store.
	if _, err := rec.CreateRDFModel("doomed", "", ""); err != nil {
		t.Fatalf("recreating dropped model after recovery: %v", err)
	}
	assertInvariants(t, rec)
}

// TestRecoverRejectsNonWAL makes sure recovery refuses a segment that is
// not a WAL instead of misreading it.
func TestRecoverRejectsNonWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-000001.log"), []byte("GOBSNAP1 definitely not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RecoverDir("", dir, wal.DirOptions{}); !errors.Is(err, wal.ErrNotWAL) {
		t.Fatalf("recover of a non-WAL segment: %v, want wal.ErrNotWAL", err)
	}
}

// TestReplayRejectsDuplicateTerm: the term dictionary is what keeps a term
// to one rdf_value$ row, so a log that interns one text under two VALUE_IDs
// must fail recovery with the unique-constraint error, not replay into a
// store whose dictionary silently points at the second row.
func TestReplayRejectsDuplicateTerm(t *testing.T) {
	_, log := walStore(t)
	for _, r := range []wal.Record{
		{Type: wal.TypeInternValue, ValueID: 1068, Text: "http://a", ValueType: rdfterm.VTUri},
		{Type: wal.TypeInternValue, ValueID: 1069, Text: "chat", ValueType: rdfterm.VTPlainLang, Language: "fr"},
		{Type: wal.TypeInternValue, ValueID: 1070, Text: "chat", ValueType: rdfterm.VTPlainLang, Language: "en"},
		{Type: wal.TypeInternValue, ValueID: 1071, Text: "http://a", ValueType: rdfterm.VTUri},
	} {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := RecoverDir("", log.Path(), wal.DirOptions{})
	if !errors.Is(err, reldb.ErrUniqueViolation) || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("recovering a log that interns <http://a> twice: %v; want a unique violation at record 3", err)
	}
}

// TestReplayKeepsNothingOfTheScanWindow: replay reads each record while
// the scanner still owns it, strings and all. Whatever the store keeps —
// model names, view names, blank labels, text — must be its own copy: the
// window is overwritten by the next read.
func TestReplayKeepsNothingOfTheScanWindow(t *testing.T) {
	live, log := walStore(t)
	for _, op := range walWorkload() {
		if err := op.do(live); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	rec := recoverLog(t, "", log.Path())
	// A different log of at least the same length, through the same
	// (pooled) window.
	_, other := walStore(t)
	for other.Size() < log.Size()+64 {
		if err := other.Append(wal.Record{Type: wal.TypeCreateModel, ModelID: 1, Name: strings.Repeat("#", 200)}); err != nil {
			t.Fatal(err)
		}
		if err := other.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := wal.ScanFile(filepath.Join(other.Path(), "wal-000001.log")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(fingerprint(t, rec), fingerprint(t, live)) {
		t.Fatal("recovered store changed when the scanner's window was reused")
	}
	names, err := rec.ModelNames()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := rec.ModelView(name); err != nil {
			t.Fatalf("model %q: %v", name, err)
		}
	}
	assertInvariants(t, rec)
}
