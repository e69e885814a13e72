package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.snap")
	s := newStoreWithModel(t, "m")
	a := govAliases()
	for i := 0; i < 5; i++ {
		if _, err := s.NewTripleS("m", "gov:s", "gov:p", "gov:o"+string(rune('a'+i)), a); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveFile(snap, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap + tmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("stale tmp left behind after successful SaveFile: %v", err)
	}
	loaded, _, err := LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	n, err := loaded.NumTriples("m")
	if err != nil || n != 5 {
		t.Fatalf("reloaded NumTriples = %d, %v", n, err)
	}
	assertInvariants(t, loaded)
}

// A crash mid-checkpoint leaves a stray *.tmp; loading must ignore and
// remove it, surfacing only the previous good snapshot.
func TestLoadFileRemovesStaleTmp(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.snap")
	s := newStoreWithModel(t, "m")
	a := govAliases()
	if _, err := s.NewTripleS("m", "gov:s", "gov:p", "gov:o", a); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(snap, 0); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn in-progress snapshot from a crashed checkpoint.
	if err := os.WriteFile(snap+tmpSuffix, []byte("GOBSNAP1 torn half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := loaded.NumTriples("m"); n != 1 {
		t.Fatalf("loaded wrong snapshot: %d triples", n)
	}
	if _, err := os.Stat(snap + tmpSuffix); !os.IsNotExist(err) {
		t.Fatal("stale tmp not removed by LoadFile")
	}
}

// Full on-disk lifecycle: fresh recover → mutate durably → recover
// replays the WAL → checkpoint retires it → recover uses the snapshot.
func TestRecoverFilesCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.snap")
	walDir := filepath.Join(dir, "wal")
	a := govAliases()

	s, log, info, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Applied != 0 {
		t.Fatalf("fresh recover applied %d records", info.Applied)
	}
	s.SetDurability(log)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("m", "gov:s", "gov:p", "gov:o", a); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-restart: no snapshot yet, everything comes from the WAL.
	s2, log2, info2, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info2.Applied == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	if n, _ := s2.NumTriples("m"); n != 1 {
		t.Fatalf("replayed store has %d triples", n)
	}
	s2.SetDurability(log2)
	if _, err := s2.NewTripleS("m", "gov:s", "gov:p", "gov:o2", a); err != nil {
		t.Fatal(err)
	}

	// Checkpoint: the snapshot becomes the baseline, the WAL keeps only an
	// empty segment past its watermark.
	if err := CheckpointDir(s2, snap, log2); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("checkpoint left segments %v (err %v), want one", segs, err)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != int64(len(wal.Magic)) {
		t.Fatalf("post-checkpoint segment is not header-only: %v, %v", fi, err)
	}

	s3, log3, info3, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if info3.Applied != 0 {
		t.Fatalf("post-checkpoint recover replayed %d records", info3.Applied)
	}
	if n, _ := s3.NumTriples("m"); n != 2 {
		t.Fatalf("post-checkpoint store has %d triples", n)
	}
	assertInvariants(t, s3)
}

// TestSingleFileStoreMigratesToDir pins the migration from the retired
// single-file log with data: testdata/single-file-store was written by
// rdfload -wal (see its README), and a log moved to
// <dir>/wal-000001.log is a one-segment WAL directory that RecoverDir
// reads. The fixture's checkpointed store does not migrate: its snapshot
// is of the retired gob format, refused with ErrSnapshotVersion before
// the log is touched.
func TestSingleFileStoreMigratesToDir(t *testing.T) {
	fixture := filepath.Join("testdata", "single-file-store")
	moved := func(t *testing.T, log string) string {
		t.Helper()
		img, err := os.ReadFile(filepath.Join(fixture, log))
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "store.d")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-000001.log"), img, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("log only", func(t *testing.T) {
		st, d, info, err := RecoverDir("", moved(t, "solo.wal"), wal.DirOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		if info.Applied == 0 || info.Truncated || info.Retired != 0 {
			t.Fatalf("recovery %+v, want a clean replay", info)
		}
		assertInvariants(t, st)
		if n, err := st.NumTriples("m"); err != nil || n != 8 {
			t.Fatalf("%d triples (err %v), want 8", n, err)
		}
		if n, err := st.ReifiedCount("m"); err != nil || n != 1 {
			t.Fatalf("%d reified statements (err %v), want 1", n, err)
		}
	})
	t.Run("snapshot + log", func(t *testing.T) {
		st, d, _, err := RecoverDir(filepath.Join(fixture, "store.snap"), moved(t, "store.wal"), wal.DirOptions{})
		if !errors.Is(err, ErrSnapshotVersion) || st != nil || d != nil {
			t.Fatalf("gob-era snapshot + log: store %v, dir %v, error %v; want ErrSnapshotVersion", st != nil, d != nil, err)
		}
	})
}

// SaveFile over an existing snapshot must never destroy the old one
// before the new one is fully durable: a failed write leaves the
// previous snapshot intact.
func TestSaveFilePreservesOldSnapshotOnFailure(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.snap")
	s := newStoreWithModel(t, "m")
	a := govAliases()
	if _, err := s.NewTripleS("m", "gov:s", "gov:p", "gov:o", a); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(snap, 0); err != nil {
		t.Fatal(err)
	}
	// Force the staging write to fail: make the tmp path a directory.
	if err := os.Mkdir(snap+tmpSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	s.NewTripleS("m", "gov:s", "gov:p", "gov:o2", a)
	if err := s.SaveFile(snap, 0); err == nil {
		t.Fatal("SaveFile succeeded with unwritable tmp path")
	}
	os.Remove(snap + tmpSuffix)
	loaded, _, err := LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := loaded.NumTriples("m"); n != 1 {
		t.Fatalf("old snapshot damaged by failed SaveFile: %d triples", n)
	}
}

// TestRecoverDirRefusesTrimmedDirBeforeReplay: a directory checkpointed
// to a snapshot kept elsewhere, whose surviving segment deletes a link
// the snapshot holds, is refused with ErrSnapshotMissing when opened
// without that snapshot — decided from the listing, before the delete is
// replayed onto a store that never had the link — and no file changes.
func TestRecoverDirRefusesTrimmedDirBeforeReplay(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	a := govAliases()
	s, log, _, err := RecoverDir("", walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetDurability(log)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewTripleS("m", "gov:s", "gov:p", "gov:o", a); err != nil {
		t.Fatal(err)
	}
	if err := CheckpointDir(s, filepath.Join(dir, "elsewhere.snap"), log); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteTriple("m", "gov:s", "gov:p", "gov:o", a); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	listing := func() map[string]string {
		files := map[string]string{}
		entries, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(walDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := listing()

	_, _, _, err = RecoverDir("", walDir, wal.DirOptions{})
	if !errors.Is(err, ErrSnapshotMissing) {
		t.Fatalf("RecoverDir without the snapshot: err = %v, want ErrSnapshotMissing", err)
	}
	after := listing()
	if len(after) != len(before) {
		t.Fatalf("refused recovery changed the directory: %d files, had %d", len(after), len(before))
	}
	for name, b := range before {
		if after[name] != b {
			t.Fatalf("refused recovery changed %s", name)
		}
	}
}
