package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/rdfterm"
)

// seedLargeModel bulk-loads n filler triples into model m.
func seedLargeModel(t testing.TB, s *Store, m string, n int) {
	t.Helper()
	const chunk = 10000
	for base := 0; base < n; base += chunk {
		end := base + chunk
		if end > n {
			end = n
		}
		batch := make([]BatchTriple, 0, end-base)
		for i := base; i < end; i++ {
			batch = append(batch, BatchTriple{
				Subject:   rdfterm.NewURI(fmt.Sprintf("http://x#s%d", i%512)),
				Predicate: rdfterm.NewURI(fmt.Sprintf("http://x#p%d", i%16)),
				Object:    rdfterm.NewURI(fmt.Sprintf("http://x#o%d", i)),
			})
		}
		if _, err := s.InsertBatchCtx(context.Background(), m, batch); err != nil {
			t.Fatal(err)
		}
	}
}

// A cancelled context aborts a full-scan Find over a 100k-triple model
// promptly — and the read lock is released, so writers proceed.
func TestFindCtxCancelReleasesPromptly(t *testing.T) {
	s := newStoreWithModel(t, "big")
	seedLargeModel(t, s, "big", 100000)

	// Already-cancelled context: immediate error, no scanning.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.FindCtx(pre, "big", Pattern{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindCtx with cancelled ctx = %v", err)
	}

	// Cancel mid-scan: the scan must notice within 100ms.
	ctx, cancel2 := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := s.FindCtx(ctx, "big", Pattern{})
		done <- err
	}()
	<-started
	cancel2()
	cancelledAt := time.Now()
	select {
	case err := <-done:
		// The scan may legitimately have finished before the cancel won
		// the race; only a cancellation slower than 100ms is a failure.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("FindCtx returned unexpected error: %v", err)
		}
		if d := time.Since(cancelledAt); d > 100*time.Millisecond {
			t.Fatalf("FindCtx returned %v after cancellation (budget 100ms)", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FindCtx did not return after cancellation")
	}

	// The read lock must be free: a write completes immediately.
	writeDone := make(chan error, 1)
	go func() {
		_, err := s.NewTripleS("big", "x:post", "x:p", "x:post", govAliases().With(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"}))
		writeDone <- err
	}()
	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("write blocked after cancelled Find: read lock leaked")
	}
}

func TestExportModelCtxCancel(t *testing.T) {
	s := newStoreWithModel(t, "m")
	seedLargeModel(t, s, "m", 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.ExportModelCtx(ctx, "m", discard{}, ExportOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExportModelCtx with cancelled ctx = %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
