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

// Disk-pressure suite: the segmented WAL's budget + the supervisor's
// DegradedDisk state + automatic checkpointing, end to end.

// openDiskSupervisor opens a supervisor over a segmented WAL in a fresh
// temp dir.
func openDiskSupervisor(t *testing.T, mutate func(*Config)) (*Supervisor, *recorder, string) {
	t.Helper()
	dir := t.TempDir()
	rec := &recorder{}
	cfg := Config{
		SnapshotPath: filepath.Join(dir, "store.snap"),
		WALDir:       filepath.Join(dir, "wal"),
		Segment:      wal.DirOptions{SegmentBytes: 256},
		OnTransition: rec.note,
		Backoff:      Backoff{Initial: time.Millisecond, Max: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.1},
		Seed:         7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	return sv, rec, dir
}

// TestHardBudgetDegradesAndSelfHeals: exhausting the hard byte budget
// moves the store to DegradedDisk with typed ErrDiskFull rejections, and
// the recovery loop's re-baseline (which checkpoints and retires
// segments) brings it back to Healthy with no operator involvement.
func TestHardBudgetDegradesAndSelfHeals(t *testing.T) {
	sv, rec, _ := openDiskSupervisor(t, func(cfg *Config) {
		cfg.Segment.Budget = wal.Budget{HardBytes: 2 << 10}
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Insert until the budget rejects.
	var tripped error
	for i := 0; i < 10_000 && tripped == nil; i++ {
		if err := insert(sv, "m", fmt.Sprintf("x:s%d", i), "x:p", fmt.Sprintf("x:o%d", i)); err != nil {
			tripped = err
		}
	}
	if tripped == nil {
		t.Fatal("hard budget never rejected a mutation")
	}
	if !errors.Is(tripped, core.ErrDurability) && !errors.Is(tripped, ErrDegraded) {
		t.Fatalf("budget rejection is untyped: %v", tripped)
	}

	// While degraded, the gate rejects with ErrDiskFull (which also
	// matches the generic ErrDegraded for old callers) — unless recovery
	// already healed the store, which is the point of the exercise.
	if sv.State() == DegradedDisk {
		err := insert(sv, "m", "x:blocked", "x:p", "x:o")
		if err != nil && !errors.Is(err, ErrDiskFull) {
			t.Fatalf("gate rejection during DegradedDisk = %v, want ErrDiskFull", err)
		}
	}

	// Self-healing: the re-baseline checkpoint frees the segments.
	waitState(t, sv, Healthy, 5*time.Second)
	if !rec.hasEdge(Healthy, DegradedDisk) {
		t.Fatalf("Healthy→Degraded(disk) never observed: %+v", rec.transitions())
	}
	if !rec.hasEdge(Recovering, Healthy) {
		t.Fatalf("recovery back to Healthy never observed: %+v", rec.transitions())
	}
	// And the store is writable again.
	if err := insert(sv, "m", "x:after", "x:p", "x:o"); err != nil {
		t.Fatalf("insert after self-heal: %v", err)
	}
}

// TestDiskRecoveryNeverReachesFailed: disk-pressure episodes are exempt
// from the recovery attempt budget — with a tiny MaxAttempts and a hard
// budget too small to ever checkpoint under, the supervisor keeps
// retrying in DegradedDisk rather than going terminal.
func TestDiskRecoveryNeverReachesFailed(t *testing.T) {
	block := make(chan struct{}) // closed when the test frees space
	var armed atomic.Bool        // false during the initial Open
	sv, _, _ := openDiskSupervisor(t, func(cfg *Config) {
		cfg.Backoff.MaxAttempts = 2
		cfg.Segment.Budget = wal.Budget{HardBytes: 1 << 10}
		// Make every re-baseline fail like a still-full disk until freed.
		real := wal.OpenDirFunc
		cfg.OpenDir = func(dir string, fromSeq int64, opts wal.DirOptions, fn wal.RecordFunc) (*wal.Dir, wal.DirScanResult, error) {
			select {
			case <-block:
				return real(dir, fromSeq, opts, fn)
			default:
			}
			if armed.Load() {
				return nil, wal.DirScanResult{}, fmt.Errorf("reopen: %w", wal.ErrNoSpace)
			}
			return real(dir, fromSeq, opts, fn)
		}
	})
	armed.Store(true)
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var tripped bool
	for i := 0; i < 10_000 && !tripped; i++ {
		if err := insert(sv, "m", fmt.Sprintf("x:s%d", i), "x:p", "x:o"); err != nil {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("hard budget never tripped")
	}

	// Give the loop time to blow past MaxAttempts; it must stay in the
	// DegradedDisk/Recovering orbit, never Failed.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if st := sv.State(); st == Failed {
			t.Fatalf("disk episode reached terminal Failed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Free the space: the very next attempt heals.
	close(block)
	waitState(t, sv, Healthy, 5*time.Second)
}

// TestAutoCheckpointSoftWatermark: crossing the soft watermark triggers
// an immediate supervisor checkpoint that retires segments before the
// hard limit is ever hit — the store stays Healthy throughout.
func TestAutoCheckpointSoftWatermark(t *testing.T) {
	sv, rec, _ := openDiskSupervisor(t, func(cfg *Config) {
		cfg.Segment.Budget = wal.Budget{SoftBytes: 1 << 10, HardBytes: 64 << 10}
		cfg.Checkpoint = CheckpointPolicy{Poll: time.Millisecond}
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := insert(sv, "m", fmt.Sprintf("x:s%d", i), "x:p", fmt.Sprintf("x:o%d", i)); err != nil {
			t.Fatalf("insert %d rejected (%v); the soft watermark should have checkpointed first", i, err)
		}
	}
	// The checkpoint loop runs async: wait for it to bring the WAL back
	// under the soft watermark. (Residual dirty mutations below the
	// watermark are fine — with no Interval/WALBytes policy they wait for
	// the next soft crossing.)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sv.mu.Lock()
		size := int64(0)
		if sv.dir != nil {
			size = sv.dir.Size()
		}
		ckpt := !sv.lastCkpt.IsZero()
		sv.mu.Unlock()
		if ckpt && size < 1<<10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-checkpoint never brought the WAL under the watermark (size %d)", size)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, tr := range rec.transitions() {
		if tr.To == DegradedDisk {
			t.Fatalf("soft-watermark flow degraded the store: %+v", tr)
		}
	}
}

// TestAutoCheckpointInterval: the age trigger checkpoints on its own,
// with no disk budget configured.
func TestAutoCheckpointInterval(t *testing.T) {
	sv, _, _, dir := openTestSupervisor(t, func(cfg *Config) {
		cfg.Checkpoint = CheckpointPolicy{Interval: 5 * time.Millisecond, Poll: time.Millisecond}
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// The snapshot lands on disk (rename) before the loop zeroes the
	// dirty counter under sv.mu, so wait for both — seeing the file
	// alone races with the counter reset.
	deadline := time.Now().Add(5 * time.Second)
	var snapped bool
	for {
		if !snapped {
			_, _, err := core.LoadFile(filepath.Join(dir, "store.snap"))
			snapped = err == nil
		}
		if snapped {
			sv.mu.Lock()
			dirty := sv.dirty
			sv.mu.Unlock()
			if dirty == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			if !snapped {
				t.Fatal("interval trigger never wrote a snapshot")
			}
			t.Fatal("dirty counter never reset after auto-checkpoint")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosDiskENOSPC is the acceptance chaos run: concurrent writers
// and readers against a segmented WAL whose files randomly fail with
// injected ENOSPC (some torn mid-write), with the soft watermark driving
// automatic checkpoints. Asserts:
//
//   - the DegradedDisk cycle is observed and always heals back to
//     Healthy (never Failed),
//   - every writer rejection is typed (ErrDegraded family or
//     core.ErrDurability) — a raw ENOSPC never escapes untyped,
//   - readers never see a corrupt result,
//   - post-mortem recovery from disk alone holds every acked commit.
func TestChaosDiskENOSPC(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	dir := t.TempDir()
	rec := &recorder{}

	// Track every segment file ever created so chaos can arm the latest.
	// Segment n draws from seed 99+n: one shared seed would replay the
	// same first draws in every short-lived segment.
	var fmu sync.Mutex
	var flakies []*wal.FlakyFile
	disarmed := false // set once the chaos phase ends
	wrapSeg := func(f wal.File) wal.File {
		fl := wal.NewFlaky(f)
		fl.SetPartialWriteFraction(0.5) // half the ENOSPCs tear mid-frame
		fmu.Lock()
		if !disarmed {
			fl.SetNoSpaceRate(0.02, 99+int64(len(flakies)))
		}
		flakies = append(flakies, fl)
		fmu.Unlock()
		return fl
	}

	sv, err := Open(Config{
		SnapshotPath: filepath.Join(dir, "store.snap"),
		WALDir:       filepath.Join(dir, "wal"),
		Segment: wal.DirOptions{
			SegmentBytes: 512,
			Budget:       wal.Budget{SoftBytes: 4 << 10, HardBytes: 64 << 10},
			Wrap:         wrapSeg,
		},
		Checkpoint:    CheckpointPolicy{Poll: time.Millisecond},
		OnTransition:  rec.note,
		ScrubInterval: 5 * time.Millisecond,
		ScrubSlice:    64,
		Backoff:       Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
		Seed:          42,
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
		acked   sync.Map
		ackedN  atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		chaoErr atomic.Value
	)
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
				if !errors.Is(err, ErrDegraded) && !errors.Is(err, core.ErrDurability) {
					chaoErr.CompareAndSwap(nil, fmt.Sprintf("writer %d: untyped rejection: %v", w, err))
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}
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
					chaoErr.CompareAndSwap(nil, fmt.Sprintf("reader %d: Find failed: %v", r, err))
					return
				}
				for _, row := range rows {
					tr, err := row.GetTriple()
					if err != nil {
						chaoErr.CompareAndSwap(nil, fmt.Sprintf("reader %d: corrupt row: %v", r, err))
						return
					}
					if !strings.HasPrefix(tr.Subject.Value, "http://x#") {
						chaoErr.CompareAndSwap(nil, fmt.Sprintf("reader %d: malformed triple %v", r, tr))
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(r)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	// The chaos phase is over: no file injects from here on, so the
	// settle checkpoint below can only fail on a real fault.
	fmu.Lock()
	disarmed = true
	for i, fl := range flakies {
		fl.SetNoSpaceRate(0, 99+int64(i))
	}
	fmu.Unlock()
	if msg := chaoErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	fmu.Lock()
	injected := 0
	for _, fl := range flakies {
		injected += fl.InjectedNoSpace()
	}
	segsSeen := len(flakies)
	fmu.Unlock()
	if injected == 0 {
		t.Fatal("no ENOSPC was ever injected; raise the rate or duration")
	}
	if ackedN.Load() == 0 {
		t.Fatal("no commit was ever acknowledged")
	}
	for _, tr := range rec.transitions() {
		if tr.To == Failed {
			t.Fatalf("disk chaos reached terminal Failed: %+v", tr)
		}
	}
	t.Logf("disk chaos: %d ENOSPC injections across %d segment files, %d commits acked, %d recoveries",
		injected, segsSeen, ackedN.Load(), sv.Health().Recoveries)

	// Settle and shut down cleanly.
	waitState(t, sv, Healthy, 10*time.Second)
	if err := sv.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-mortem from disk alone (plain files, no injection).
	st, d, _, err := core.RecoverDir(filepath.Join(dir, "store.snap"), filepath.Join(dir, "wal"),
		wal.DirOptions{SegmentBytes: 512})
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
