package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/wal"
)

// walStore returns a fresh store logging to a fresh in-memory WAL.
func walStore(t *testing.T) (*Store, *wal.BufferFile) {
	t.Helper()
	f := &wal.BufferFile{}
	log, err := wal.NewLog(f, true)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.SetDurability(log)
	return s, f
}

// recoverImage rebuilds a store from a snapshot (nil for none) and a WAL
// image, asserting the recovery is clean.
func recoverImage(t *testing.T, snap, img []byte) *Store {
	t.Helper()
	var snapR io.Reader
	if snap != nil {
		snapR = bytes.NewReader(snap)
	}
	s, info, err := Recover(snapR, bytes.NewReader(img))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.Truncated {
		t.Fatalf("unexpected torn tail: %v", info.TailErr)
	}
	assertInvariants(t, s)
	return s
}

// TestWALRoundTrip runs the full crash workload with logging on and
// checks that replaying the log alone reproduces the live store exactly.
func TestWALRoundTrip(t *testing.T) {
	s, f := walStore(t)
	for _, op := range walWorkload() {
		if err := op.do(s); err != nil {
			t.Fatalf("op %q: %v", op.name, err)
		}
	}
	rec := recoverImage(t, nil, f.Bytes())
	if got, want := fingerprint(t, rec), fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("recovered store differs from live store")
	}
	if n := rec.TotalTriples(); n != s.TotalTriples() {
		t.Fatalf("recovered %d triples, live has %d", n, s.TotalTriples())
	}
}

// TestRecoverFromCheckpoint snapshots mid-history (the checkpoint),
// truncates the log, keeps mutating, and recovers from snapshot + WAL.
func TestRecoverFromCheckpoint(t *testing.T) {
	f := &wal.BufferFile{}
	log, err := wal.NewLog(f, true)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.SetDurability(log)
	a := govAliases()

	if _, err := s.CreateRDFModel("gov", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("gov", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}

	// Checkpoint: snapshot the store, then truncate the log. BufferFile
	// has no Truncate, so model the reset by swapping in a fresh file —
	// the same state transition Log.Reset performs on disk.
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	f2 := &wal.BufferFile{}
	log2, err := wal.NewLog(f2, true)
	if err != nil {
		t.Fatal(err)
	}
	s.SetDurability(log2)

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

	rec := recoverImage(t, snap.Bytes(), f2.Bytes())
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

// TestRecoverThenContinue crashes mid-workload, recovers, attaches a new
// log, keeps going, and recovers again — the restart loop of a real
// process, twice over.
func TestRecoverThenContinue(t *testing.T) {
	ops := walWorkload()
	cutAfter := 7 // crash after the first 7 ops

	s1, f1 := walStore(t)
	for _, op := range ops[:cutAfter] {
		if err := op.do(s1); err != nil {
			t.Fatalf("op %q: %v", op.name, err)
		}
	}
	// "Crash": s1 is discarded; only the log image survives.
	s2 := recoverImage(t, nil, f1.Bytes())
	if got, want := fingerprint(t, s2), fingerprint(t, s1); !bytes.Equal(got, want) {
		t.Fatal("first recovery differs from pre-crash store")
	}

	// Continue on a fresh log paired with a checkpoint of the recovered
	// state, then crash and recover once more.
	var snap bytes.Buffer
	if err := s2.Save(&snap); err != nil {
		t.Fatal(err)
	}
	f2 := &wal.BufferFile{}
	log2, err := wal.NewLog(f2, true)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetDurability(log2)
	for _, op := range ops[cutAfter:] {
		if err := op.do(s2); err != nil {
			t.Fatalf("op %q: %v", op.name, err)
		}
	}
	s3 := recoverImage(t, snap.Bytes(), f2.Bytes())
	if got, want := fingerprint(t, s3), fingerprint(t, s2); !bytes.Equal(got, want) {
		t.Fatal("second recovery differs from live store")
	}
}

// TestLogResetCheckpointOnDisk exercises the real checkpoint sequence
// against an on-disk WAL file: write, snapshot, Reset, write more,
// reopen, recover.
func TestLogResetCheckpointOnDisk(t *testing.T) {
	path := t.TempDir() + "/store.wal"
	log, res, err := wal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("fresh WAL has %d records", len(res.Records))
	}
	s := New()
	s.SetDurability(log)
	a := govAliases()
	if _, err := s.CreateRDFModel("gov", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("gov", "gov:a", "gov:p", "gov:b", a); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := log.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("gov", "gov:c", "gov:p", "gov:d", a); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the WAL, load the snapshot, replay the tail.
	log2, res2, err := wal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	rec, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(res2.Records); err != nil {
		t.Fatal(err)
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
	s, f := walStore(t)
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

	rec := recoverImage(t, nil, f.Bytes())
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

// TestRecoverRejectsNonWAL makes sure recovery refuses a stream that is
// not a WAL instead of misreading it.
func TestRecoverRejectsNonWAL(t *testing.T) {
	if _, _, err := Recover(nil, bytes.NewReader([]byte("GOBSNAP1 definitely not a log"))); err == nil {
		t.Fatal("recover accepted a non-WAL stream")
	}
}

// TestReplayRejectsDuplicateTerm: the term dictionary is what keeps a term
// to one rdf_value$ row, so a log that interns one text under two VALUE_IDs
// must fail recovery with the unique-constraint error, not replay into a
// store whose dictionary silently points at the second row.
func TestReplayRejectsDuplicateTerm(t *testing.T) {
	f := &wal.BufferFile{}
	log, err := wal.NewLog(f, true)
	if err != nil {
		t.Fatal(err)
	}
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
	_, _, err = Recover(nil, bytes.NewReader(f.Buffer.Bytes()))
	if !errors.Is(err, reldb.ErrUniqueViolation) || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("recovering a log that interns <http://a> twice: %v; want a unique violation at record 3", err)
	}
}

// TestReplayKeepsNothingOfTheScanWindow: replay reads each record while
// the scanner still owns it, strings and all. Whatever the store keeps —
// model names, view names, blank labels, text — must be its own copy: the
// window is overwritten by the next read.
func TestReplayKeepsNothingOfTheScanWindow(t *testing.T) {
	live, logFile := walStore(t)
	for _, op := range walWorkload() {
		if err := op.do(live); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	rec := recoverImage(t, nil, logFile.Bytes())
	// A different log of at least the same length, through the same
	// (pooled) window.
	other := &wal.BufferFile{}
	olog, err := wal.NewLog(other, true)
	if err != nil {
		t.Fatal(err)
	}
	for other.Buffer.Len() < logFile.Buffer.Len()+64 {
		if err := olog.Append(wal.Record{Type: wal.TypeCreateModel, ModelID: 1, Name: strings.Repeat("#", 200)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := wal.ScanFunc(bytes.NewReader(other.Buffer.Bytes()), nil); err != nil {
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
