package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/wal"
)

// TestConcurrentReadersWriterStress hammers one store with writers
// mutating through every logged path (insert, repeated insert, delete,
// reify, assertions, blank nodes) while reader goroutines exercise every
// read path — Find, export, invariant checking, network traversal,
// snapshotting — the whole time. Run under -race this proves the RWMutex
// discipline: readers never observe a torn mutation.
//
// The WAL is attached throughout, so it doubles as a serialization
// check: after the dust settles, replaying the log must rebuild a store
// identical to the live one.
func TestConcurrentReadersWriterStress(t *testing.T) {
	s, log := walStore(t)
	a := rdfterm.Default().With(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"})

	const models = 3
	for m := 0; m < models; m++ {
		if _, err := s.CreateRDFModel(fmt.Sprintf("m%d", m), "", ""); err != nil {
			t.Fatal(err)
		}
	}

	iters := 120
	if testing.Short() {
		iters = 40
	}

	var stop atomic.Bool
	errCh := make(chan error, 16)
	var writers, readers sync.WaitGroup

	// Writers: one per model (the lock serializes them), cycling through
	// every mutation kind.
	for m := 0; m < models; m++ {
		writers.Add(1)
		go func(m int) {
			defer writers.Done()
			model := fmt.Sprintf("m%d", m)
			for i := 0; i < iters && !stop.Load(); i++ {
				sub := fmt.Sprintf("x:s%d", i%17)
				obj := fmt.Sprintf("x:o%d", i%29)
				ts, err := s.NewTripleS(model, sub, "x:p", obj, a)
				if err != nil {
					errCh <- fmt.Errorf("writer %d insert: %w", m, err)
					return
				}
				switch i % 7 {
				case 2:
					if _, err := s.Reify(model, ts.TID); err != nil {
						errCh <- fmt.Errorf("writer %d reify: %w", m, err)
						return
					}
				case 3:
					if _, err := s.NewTripleS(model, "_:b", "x:p", obj, a); err != nil {
						errCh <- fmt.Errorf("writer %d blank: %w", m, err)
						return
					}
				case 4:
					if _, err := s.AssertAboutTriple(model, "x:asserter", "x:says", ts.TID, a); err != nil {
						errCh <- fmt.Errorf("writer %d assert: %w", m, err)
						return
					}
				case 5:
					// Delete decrements the repeated-insert cost or removes
					// the link entirely; both are legal here.
					if err := s.DeleteTriple(model, sub, "x:p", obj, a); err != nil {
						errCh <- fmt.Errorf("writer %d delete: %w", m, err)
						return
					}
				}
			}
		}(m)
	}

	// Readers: every read path, until the writers are done.
	reader := func(id int, step func(i int) error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !stop.Load(); i++ {
				if err := step(i); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", id, err)
					return
				}
			}
		}()
	}
	reader(0, func(i int) error {
		_, err := s.Find(fmt.Sprintf("m%d", i%models), Pattern{})
		return err
	})
	reader(1, func(i int) error {
		s.TotalTriples()
		s.NumValues()
		s.NumNodes()
		if _, err := s.ModelNames(); err != nil {
			return err
		}
		_, err := s.NumTriples(fmt.Sprintf("m%d", i%models))
		return err
	})
	reader(2, func(i int) error {
		if _, _, err := s.IsTriple("m0", "x:s1", "x:p", "x:o1", a); err != nil {
			return err
		}
		if i%4 != 0 {
			return nil
		}
		return s.ExportModel(fmt.Sprintf("m%d", i%models), io.Discard, ExportOptions{})
	})
	reader(3, func(i int) error {
		// Full invariant sweeps hold the read lock for a while; mix them
		// with cheap reads so this reader doesn't dominate the lock.
		if i%8 != 0 {
			s.TotalTriples()
			return nil
		}
		if errs := s.CheckInvariants(); len(errs) > 0 {
			return fmt.Errorf("mid-flight invariants: %v", errs[0])
		}
		return nil
	})
	reader(4, func(i int) error {
		n, err := s.Network()
		if err != nil {
			return err
		}
		hops := 0
		n.Nodes(func(node int64) bool {
			n.OutLinks(node, func(_, _ int64, _ float64) bool { return true })
			hops++
			return hops < 64 // bounded walk; the node set keeps growing
		})
		return nil
	})
	reader(5, func(i int) error {
		// Snapshotting is a read too (the checkpoint image is taken under
		// the read lock).
		if i%4 != 0 {
			s.NumNodes()
			return nil
		}
		return s.Save(io.Discard)
	})

	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	assertInvariants(t, s)

	// The log written under concurrency must replay to the same store.
	rec := recoverLog(t, "", log.Path())
	if got, want := fingerprint(t, rec), fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("WAL written under concurrent load does not replay to the live store")
	}
	if got, want := rec.TotalTriples(), s.TotalTriples(); got != want {
		t.Fatalf("recovered %d triples, live has %d", got, want)
	}
}

// TestDegradedReadsWhileWritesRejected proves the core property the
// supervisor's Degraded mode is built on: when the durability sink is
// broken, mutations are rejected with the typed ErrDurability while
// concurrent readers keep serving consistent results the whole time.
func TestDegradedReadsWhileWritesRejected(t *testing.T) {
	var fl *wal.FlakyFile
	log, _, err := wal.OpenDir(t.TempDir(), 0, wal.DirOptions{Wrap: func(f wal.File) wal.File {
		fl = wal.NewFlaky(f)
		return fl
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s := New()
	s.SetDurability(log)
	a := rdfterm.Default().With(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"})
	if _, err := s.CreateRDFModel("m", "", ""); err != nil {
		t.Fatal(err)
	}
	const seeded = 50
	for i := 0; i < seeded; i++ {
		if _, err := s.NewTripleS("m", fmt.Sprintf("x:s%d", i), "x:p", fmt.Sprintf("x:o%d", i), a); err != nil {
			t.Fatal(err)
		}
	}

	// Break the sink permanently: the store is now effectively read-only.
	fl.FailWrites(1 << 30)

	var stop atomic.Bool
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rows, err := s.Find("m", Pattern{})
				if err != nil {
					errCh <- fmt.Errorf("read while degraded: %w", err)
					return
				}
				if len(rows) != seeded {
					errCh <- fmt.Errorf("read while degraded saw %d rows, want %d", len(rows), seeded)
					return
				}
				for _, row := range rows {
					if _, err := row.GetTriple(); err != nil {
						errCh <- fmt.Errorf("corrupt row while degraded: %w", err)
						return
					}
				}
			}
		}()
	}

	// Writers hammer the broken sink: every attempt must come back as a
	// typed durability error, and none may leak a partial row into what
	// the readers see (the count check above would catch it).
	for i := 0; i < 25; i++ {
		_, err := s.NewTripleS("m", fmt.Sprintf("x:new%d", i), "x:p", "x:o", a)
		if err == nil {
			t.Fatal("mutation against broken WAL succeeded")
		}
		if !errors.Is(err, ErrDurability) {
			t.Fatalf("mutation error %v does not wrap ErrDurability", err)
		}
	}

	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if errs := s.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated after degraded churn: %v", errs[0])
	}
}

// TestAppendToContainerConcurrent: an append counts the container's
// members and inserts the next one in one transaction, so N goroutines
// appending to one rdf:Seq at once take exactly the indices 1..N — no
// two read the same count and store the same rdf:_n.
func TestAppendToContainerConcurrent(t *testing.T) {
	const n = 64
	s := newStoreWithModel(t, "m")
	seq, err := s.CreateContainer("m", SeqContainer)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.AppendToContainer("m", seq, rdfterm.NewLiteral(fmt.Sprint("member ", i)))
		}(i)
	}
	wg.Wait()
	seen := make(map[int]int, n)
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("append %d: %v", i, errs[i])
		}
		seen[got[i]]++
	}
	for idx := 1; idx <= n; idx++ {
		if seen[idx] != 1 {
			t.Errorf("rdf:_%d was handed out %d times, want once", idx, seen[idx])
		}
	}
	members, err := s.ContainerMembers("m", seq)
	if err != nil || len(members) != n {
		t.Fatalf("container has %d members (%v), want %d", len(members), err, n)
	}
	assertInvariants(t, s)
}
