package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/wal"
)

// countingFile counts the writes and syncs a Dir issues to its segment.
type countingFile struct {
	wal.File
	mu            *sync.Mutex
	writes, syncs *int
}

func (f countingFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	*f.writes++
	f.mu.Unlock()
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	f.mu.Lock()
	*f.syncs++
	f.mu.Unlock()
	return f.File.Sync()
}

// TestOneWritePerCommit: a transaction reaches the log in one write(2)
// and one fsync, however many records it emits — a 512-triple batch
// emits over a thousand.
func TestOneWritePerCommit(t *testing.T) {
	var mu sync.Mutex
	var writes, syncs int
	d, _, err := wal.OpenDir(t.TempDir(), 0, wal.DirOptions{Wrap: func(f wal.File) wal.File {
		return countingFile{File: f, mu: &mu, writes: &writes, syncs: &syncs}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New()
	s.SetDurability(d)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchTriple, 512)
	for i := range batch {
		batch[i] = BatchTriple{
			Subject:   rdfterm.NewURI(fmt.Sprintf("http://s/%d", i)),
			Predicate: rdfterm.NewURI("http://p"),
			Object:    rdfterm.NewLiteral(fmt.Sprint("o", i)),
		}
	}
	mu.Lock()
	writes, syncs = 0, 0
	mu.Unlock()
	res, err := s.InsertBatchCtx(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewLinks != len(batch) {
		t.Fatalf("batch stored %d links, want %d", res.NewLinks, len(batch))
	}
	mu.Lock()
	defer mu.Unlock()
	if writes != 1 || syncs != 1 {
		t.Fatalf("512-triple batch: %d writes and %d syncs, want 1 and 1", writes, syncs)
	}
}

// TestCheckpointAfterFailedTransaction: a batch that fails after applying
// some of its records leaves them in memory, so a checkpoint's snapshot
// holds them. Their buffered frames must land below the checkpoint's
// watermark, with the snapshot's state: written above it, recovery would
// replay them onto a snapshot that already has them.
func TestCheckpointAfterFailedTransaction(t *testing.T) {
	dir := t.TempDir()
	snap, walDir := filepath.Join(dir, "store.snap"), filepath.Join(dir, "wal")
	s, d, _, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetDurability(d)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	uri := rdfterm.NewURI
	values := s.NumValues()
	// Entry 0 interns three new terms; entry 1's literal predicate then
	// fails the batch.
	if _, err := s.InsertBatchCtx(context.Background(), "m", []BatchTriple{
		{Subject: uri("http://a"), Predicate: uri("http://p"), Object: uri("http://b")},
		{Subject: uri("http://a"), Predicate: rdfterm.NewLiteral("notauri"), Object: uri("http://b")},
	}); err == nil {
		t.Fatal("batch with a literal predicate succeeded")
	}
	if s.NumValues() == values {
		t.Fatal("the failed batch applied nothing; the test needs a partly applied transaction")
	}
	if err := CheckpointDir(s, snap, d); err != nil {
		t.Fatal(err)
	}
	// A commit after the checkpoint writes whatever is still buffered.
	if _, err := s.NewTripleS("m", "http://c", "http://p", "http://a", nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec := recoverLog(t, snap, walDir)
	if !bytes.Equal(fingerprint(t, rec), fingerprint(t, s)) {
		t.Fatal("recovered store differs from the live store")
	}
}

// A term too large for one WAL record is refused before its mutation is
// applied or logged: were it logged, the frame would exceed
// wal.MaxRecordLen and recovery would drop it, and every commit after
// it, as a torn tail.
func TestOversizedTermRefused(t *testing.T) {
	dir := t.TempDir()
	snap, walDir := filepath.Join(dir, "store.snap"), filepath.Join(dir, "wal")
	s, d, _, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetDurability(d)
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	uri := rdfterm.NewURI
	huge := rdfterm.NewLiteral(strings.Repeat("x", wal.MaxRecordLen))
	if _, err := s.InsertTerms("m", uri("http://a"), uri("http://p"), huge); !errors.Is(err, ErrTermTooLarge) {
		t.Fatalf("inserting a %d-byte literal = %v, want ErrTermTooLarge", wal.MaxRecordLen, err)
	}
	if _, err := s.InsertTerms("m", uri("http://a"), uri("http://p"), rdfterm.NewLiteral("small")); err != nil {
		t.Fatalf("the insert after the refusal: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, d2, info, err := RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Truncated {
		t.Fatalf("recovery found a torn tail: %v", info.TailErr)
	}
	if n, err := rec.NumTriples("m"); err != nil || n != 1 {
		t.Fatalf("recovered %d triples, %v; want the 1 acknowledged", n, err)
	}
	assertInvariants(t, rec)
}
