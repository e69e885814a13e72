package supervise

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestChaosCycle drives concurrent writers and readers through injected
// WAL faults while a watcher checks the store's invariants every 5 ms,
// and asserts:
//
//   - the full Healthy → Degraded → Recovering → Healthy cycle is
//     observed (at least once; typically several times),
//   - readers never see a corrupt result, in any health state,
//   - CheckInvariants never reports a violation during the run,
//   - every acknowledged commit survives to a post-mortem recovery from
//     the on-disk image alone.
func TestChaosCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	dir := t.TempDir()
	fo := &flakyOpener{}
	rec := &recorder{}
	sv, err := Open(Config{
		SnapshotPath: filepath.Join(dir, "store.snap"),
		WALDir:       filepath.Join(dir, "wal"),
		OpenDir:      fo.open,
		OnTransition: rec.note,
		Backoff:      Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("chaos", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		readers  = 2
		duration = 1500 * time.Millisecond
	)
	var (
		acked   sync.Map // subject URI -> true, only for acknowledged commits
		ackedN  atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		readErr atomic.Value // first corrupt-read description, if any
	)

	// Writers: insert unique triples through the supervisor; record a
	// subject as acked only when Mutate returned nil.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				subj := fmt.Sprintf("x:w%d_%d", w, i)
				err := insert(sv, "chaos", subj, "x:p", fmt.Sprintf("x:o%d", i))
				if err == nil {
					acked.Store("http://x#"+strings.TrimPrefix(subj, "x:"), true)
					ackedN.Add(1)
					continue
				}
				// Rejections must carry a typed reason, never panic or
				// silently half-apply. Brief pause before retrying.
				if !errors.Is(err, ErrDegraded) && !errors.Is(err, core.ErrDurability) {
					readErr.CompareAndSwap(nil, fmt.Sprintf("writer %d: untyped rejection: %v", w, err))
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}

	// Readers: full-model scans must succeed in every health state, and
	// every row must resolve to a well-formed triple in the chaos model.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := sv.Find(context.Background(), "chaos", core.Pattern{})
				if err != nil {
					readErr.CompareAndSwap(nil, fmt.Sprintf("reader %d: Find failed: %v", r, err))
					return
				}
				for _, row := range rows {
					tr, err := row.GetTriple()
					if err != nil {
						readErr.CompareAndSwap(nil, fmt.Sprintf("reader %d: corrupt row: %v", r, err))
						return
					}
					if !strings.HasPrefix(tr.Subject.Value, "http://x#") || tr.Property.Value == "" || tr.Object.Value == "" {
						readErr.CompareAndSwap(nil, fmt.Sprintf("reader %d: malformed triple %v", r, tr))
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(r)
	}

	checks := watchInvariants(sv, stop, &wg, &readErr)

	// Chaos: while the store is healthy, periodically trip the current
	// WAL segment so in-flight appends or syncs fail.
	wg.Add(1)
	faults := 0
	go func() {
		defer wg.Done()
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if sv.State() != Healthy {
				continue
			}
			if fl := fo.current(); fl != nil {
				fl.FailWrites(1 + faults%3)
				faults++
			}
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if faults == 0 {
		t.Fatal("chaos goroutine never injected a fault")
	}
	if checks.Load() == 0 {
		t.Fatal("the invariant watcher never ran")
	}
	t.Logf("chaos: %d faults injected, %d commits acknowledged, %d recoveries, %d invariant checks",
		faults, ackedN.Load(), sv.Health().Recoveries, checks.Load())

	// The full health cycle was exercised.
	for _, edge := range [][2]State{{Healthy, Degraded}, {Degraded, Recovering}, {Recovering, Healthy}} {
		if !rec.hasEdge(edge[0], edge[1]) {
			t.Fatalf("transition %v→%v never observed; transitions: %+v", edge[0], edge[1], rec.transitions())
		}
	}
	if ackedN.Load() == 0 {
		t.Fatal("no commit was ever acknowledged")
	}

	// Settle: let the final recovery land, then make everything durable
	// and shut down.
	waitState(t, sv, Healthy, 5*time.Second)
	if err := sv.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-mortem: recover from the on-disk image alone. Every
	// acknowledged commit must be present and invariants must hold.
	st, d, _, err := core.RecoverDir(filepath.Join(dir, "store.snap"), filepath.Join(dir, "wal"), wal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if errs := st.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("recovered store violates invariants: %v", errs[0])
	}
	rows, err := st.Find(context.Background(), "chaos", core.Pattern{})
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[string]bool, len(rows))
	for _, row := range rows {
		subj, err := row.GetSubject()
		if err != nil {
			t.Fatalf("recovered row unreadable: %v", err)
		}
		present[subj] = true
	}
	lost := 0
	acked.Range(func(k, _ interface{}) bool {
		if !present[k.(string)] {
			lost++
			if lost <= 5 {
				t.Errorf("acknowledged commit lost after recovery: %s", k)
			}
		}
		return true
	})
	if lost > 0 {
		t.Fatalf("%d acknowledged commit(s) lost (of %d)", lost, ackedN.Load())
	}
}

// watchInvariants runs the store's CheckInvariants every 5 ms until stop
// closes, records the first violation in bad, and returns the count of
// checks run.
func watchInvariants(sv *Supervisor, stop <-chan struct{}, wg *sync.WaitGroup, bad *atomic.Value) *atomic.Int64 {
	var checks atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			checks.Add(1)
			if errs := sv.Store().CheckInvariants(); len(errs) > 0 {
				bad.CompareAndSwap(nil, fmt.Sprintf("invariant violation during chaos: %v (and %d more)", errs[0], len(errs)-1))
				return
			}
		}
	}()
	return &checks
}
