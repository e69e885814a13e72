package supervise

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdfterm"
	"repro/internal/wal"
)

func testAliases() *rdfterm.AliasSet {
	return rdfterm.Default().With(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"})
}

// flakyOpener is an OpenDir hook that wraps every segment file the WAL
// opens or rotates into in a FlakyFile and keeps a handle to the current
// one so tests can inject faults mid-run. It can also refuse opens
// entirely (failOpens), to make recovery attempts themselves fail.
type flakyOpener struct {
	mu        sync.Mutex
	cur       *wal.FlakyFile
	failOpens int
	opens     int
}

func (fo *flakyOpener) open(dir string, fromSeq int64, opts wal.DirOptions, fn wal.RecordFunc) (*wal.Dir, wal.DirScanResult, error) {
	fo.mu.Lock()
	fo.opens++
	if fo.failOpens > 0 {
		fo.failOpens--
		fo.mu.Unlock()
		return nil, wal.DirScanResult{}, fmt.Errorf("%w: injected open refusal", wal.ErrInjected)
	}
	fo.mu.Unlock()
	opts.Wrap = func(f wal.File) wal.File {
		fl := wal.NewFlaky(f)
		fo.mu.Lock()
		fo.cur = fl
		fo.mu.Unlock()
		return fl
	}
	return wal.OpenDirFunc(dir, fromSeq, opts, fn)
}

func (fo *flakyOpener) current() *wal.FlakyFile {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.cur
}

func (fo *flakyOpener) refuseNext(n int) {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	fo.failOpens = n
}

// recorder captures the transition sequence.
type recorder struct {
	mu  sync.Mutex
	seq []Transition
}

func (r *recorder) note(tr Transition) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = append(r.seq, tr)
}

func (r *recorder) transitions() []Transition {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Transition(nil), r.seq...)
}

// hasEdge reports whether the sequence contains a From→To transition.
func (r *recorder) hasEdge(from, to State) bool {
	for _, tr := range r.transitions() {
		if tr.From == from && tr.To == to {
			return true
		}
	}
	return false
}

func waitState(t *testing.T, sv *Supervisor, want State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if sv.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("state = %v after %v, want %v (health: %+v)", sv.State(), within, want, sv.Health())
}

func insert(sv *Supervisor, model, s, p, o string) error {
	return sv.Mutate(func(st *core.Store) error {
		_, err := st.NewTripleS(model, s, p, o, testAliases())
		return err
	})
}

func openTestSupervisor(t *testing.T, mutate func(*Config)) (*Supervisor, *flakyOpener, *recorder, string) {
	t.Helper()
	dir := t.TempDir()
	fo := &flakyOpener{}
	rec := &recorder{}
	cfg := Config{
		SnapshotPath: filepath.Join(dir, "store.snap"),
		WALDir:       filepath.Join(dir, "wal"),
		OpenDir:      fo.open,
		OnTransition: rec.note,
		Backoff:      Backoff{Initial: time.Millisecond, Max: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.1},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	return sv, fo, rec, dir
}

func TestLifecycleAndRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath: filepath.Join(dir, "store.snap"),
		WALDir:       filepath.Join(dir, "wal"),
	}
	sv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sv.State() != Healthy {
		t.Fatalf("fresh supervisor state = %v", sv.State())
	}
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := insert(sv, "m", "x:s", "x:p", "x:o"); err != nil {
		t.Fatal(err)
	}
	if err := sv.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := insert(sv, "m", "x:s2", "x:p", "x:o2"); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sv.Mutate(func(*core.Store) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Mutate after Close = %v", err)
	}

	// Restart: snapshot + WAL tail both survive.
	sv2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sv2.Close()
	got, err := sv2.Find(context.Background(), "m", core.Pattern{})
	if err != nil || len(got) != 2 {
		t.Fatalf("after restart Find = %d triples, %v", len(got), err)
	}
}

func TestDurabilityFaultDegradesThenRecovers(t *testing.T) {
	sv, fo, rec, _ := openTestSupervisor(t, nil)
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := insert(sv, "m", "x:pre", "x:p", "x:pre"); err != nil {
		t.Fatal(err)
	}

	// Break the sink: the next append fails, the mutation is rejected,
	// and the supervisor degrades.
	fo.current().FailWrites(1)
	err := insert(sv, "m", "x:broken", "x:p", "x:broken")
	if err == nil {
		t.Fatal("mutation against broken WAL succeeded")
	}
	if !errors.Is(err, core.ErrDurability) {
		t.Fatalf("mutation error %v does not wrap core.ErrDurability", err)
	}

	// Degraded: mutations rejected with the typed sentinel, reads serve.
	// Recovery may already have healed the store (the fault was
	// transient); only assert the read path and the transition record.
	if err := insert(sv, "m", "x:while", "x:p", "x:degraded"); err != nil {
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("mutation while degraded = %v, want ErrDegraded", err)
		}
	}
	if got, err := sv.Find(context.Background(), "m", core.Pattern{}); err != nil || len(got) == 0 {
		t.Fatalf("read while degraded = %d rows, %v", len(got), err)
	}

	// The transient fault heals on the next attempt: reopen succeeds.
	waitState(t, sv, Healthy, 2*time.Second)
	for _, edge := range [][2]State{{Healthy, Degraded}, {Degraded, Recovering}, {Recovering, Healthy}} {
		if !rec.hasEdge(edge[0], edge[1]) {
			t.Fatalf("transition %v→%v missing from %+v", edge[0], edge[1], rec.transitions())
		}
	}
	if sv.Health().Recoveries == 0 {
		t.Fatal("recovery not counted")
	}

	// Fully functional again.
	if err := insert(sv, "m", "x:post", "x:p", "x:post"); err != nil {
		t.Fatal(err)
	}
}

// A store opened with a WAL directory alone keeps its snapshot inside
// that directory, so recovery from a durability fault has somewhere to
// re-baseline into, and a restart finds what it wrote.
func TestWALDirOnlyStoreRecoversFromCommitFault(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	sv, fo, _, _ := openTestSupervisor(t, func(cfg *Config) {
		cfg.SnapshotPath, cfg.WALDir = "", walDir
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fo.current().FailWrites(1)
	if err := insert(sv, "m", "x:broken", "x:p", "x:broken"); !errors.Is(err, core.ErrDurability) {
		t.Fatalf("mutation against a broken WAL = %v", err)
	}
	waitState(t, sv, Healthy, 2*time.Second)
	if err := insert(sv, "m", "x:post", "x:p", "x:post"); err != nil {
		t.Fatal(err)
	}
	before, err := sv.Find(context.Background(), "m", core.Pattern{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "snapshot")); err != nil {
		t.Fatalf("re-baselining left no snapshot in the WAL directory: %v", err)
	}
	sv2, err := Open(Config{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer sv2.Close()
	if got, err := sv2.Find(context.Background(), "m", core.Pattern{}); err != nil || len(got) != len(before) {
		t.Fatalf("after restart Find = %d triples, %v; before it, %d", len(got), err, len(before))
	}
}

func TestRecoveryBackoffThenFailedTerminal(t *testing.T) {
	sv, fo, rec, _ := openTestSupervisor(t, func(cfg *Config) {
		cfg.Backoff.MaxAttempts = 3
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := insert(sv, "m", "x:s", "x:p", "x:o"); err != nil {
		t.Fatal(err)
	}

	// Break the sink AND refuse every reopen: recovery exhausts its
	// attempt budget and the supervisor fails terminally.
	fo.refuseNext(1000)
	fo.current().FailWrites(1000)
	if err := insert(sv, "m", "x:s2", "x:p", "x:o2"); err == nil {
		t.Fatal("mutation against broken WAL succeeded")
	}
	waitState(t, sv, Failed, 2*time.Second)
	if !rec.hasEdge(Recovering, Failed) {
		t.Fatalf("no Recovering→Failed edge in %+v", rec.transitions())
	}

	// Terminal: mutations report ErrFailed, reads still serve.
	if err := insert(sv, "m", "x:s3", "x:p", "x:o3"); !errors.Is(err, ErrFailed) {
		t.Fatalf("mutation while failed = %v, want ErrFailed", err)
	}
	if got, err := sv.Find(context.Background(), "m", core.Pattern{}); err != nil || len(got) == 0 {
		t.Fatalf("read while failed = %d rows, %v", len(got), err)
	}

	// Failed is sticky even if the sink heals.
	fo.refuseNext(0)
	time.Sleep(20 * time.Millisecond)
	if sv.State() != Failed {
		t.Fatalf("state left Failed: %v", sv.State())
	}
}

func TestScrubberEscalatesAndRecoveryRebuildsFromDisk(t *testing.T) {
	// The injected scrubber reports a fabricated violation once; the
	// injected verifier condemns the current in-memory store, forcing the
	// rebuild-from-disk path, and passes the rebuilt store.
	var (
		mu        sync.Mutex
		badReport bool
		condemned *core.Store
	)
	sv, _, rec, _ := openTestSupervisor(t, func(cfg *Config) {
		cfg.ScrubInterval = 2 * time.Millisecond
		cfg.Scrub = func(ctx context.Context, st *core.Store, slice int) (core.ScrubReport, error) {
			mu.Lock()
			defer mu.Unlock()
			rep, err := st.ScrubPass(ctx, slice)
			if badReport {
				badReport = false
				condemned = st
				rep.Violations = append(rep.Violations, errors.New("fabricated: node 7 unused by any link"))
			}
			return rep, err
		}
		cfg.Verify = func(st *core.Store) []error {
			mu.Lock()
			defer mu.Unlock()
			if st == condemned {
				return []error{errors.New("fabricated: still corrupt")}
			}
			return st.CheckInvariants()
		}
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := insert(sv, "m", "x:s", "x:p", "x:o"); err != nil {
		t.Fatal(err)
	}
	// Make the durable image current, then condemn memory.
	if err := sv.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := sv.Store()
	mu.Lock()
	badReport = true
	mu.Unlock()

	waitState(t, sv, Healthy, 2*time.Second)
	// Wait until the scrub-triggered degradation has happened AND healed.
	deadline := time.Now().Add(2 * time.Second)
	for !rec.hasEdge(Healthy, Degraded) || sv.State() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("scrub escalation/recovery incomplete: %+v", rec.transitions())
		}
		time.Sleep(time.Millisecond)
	}
	var scrubErr *ScrubError
	foundScrubReason := false
	for _, tr := range rec.transitions() {
		if tr.To == Degraded && errors.As(tr.Reason, &scrubErr) {
			foundScrubReason = true
		}
	}
	if !foundScrubReason {
		t.Fatalf("no Degraded transition carries a *ScrubError: %+v", rec.transitions())
	}

	// The store was rebuilt from disk: new pointer, same data.
	after := sv.Store()
	if after == before {
		t.Fatal("store pointer unchanged; rebuild-from-disk did not run")
	}
	got, err := sv.Find(context.Background(), "m", core.Pattern{})
	if err != nil || len(got) != 1 {
		t.Fatalf("rebuilt store Find = %d rows, %v", len(got), err)
	}
	if err := insert(sv, "m", "x:s2", "x:p", "x:o2"); err != nil {
		t.Fatal(err)
	}
	if sv.Health().Scrubs == 0 {
		t.Fatal("completed scrubs not counted")
	}
}

// A transient failure of a recovery attempt must not change how the
// fault is classified: if the scrubber condemned memory, every attempt
// has to keep treating disk as the authority. The buggy alternative —
// classifying from the latest attempt error — would flip to the
// durability path after one refused WAL reopen and checkpoint the
// condemned in-memory image over the good snapshot.
func TestCorruptionRecoverySurvivesTransientAttemptFailure(t *testing.T) {
	var (
		mu        sync.Mutex
		badReport bool
		condemned *core.Store
	)
	sv, fo, rec, _ := openTestSupervisor(t, func(cfg *Config) {
		cfg.ScrubInterval = 2 * time.Millisecond
		cfg.Scrub = func(ctx context.Context, st *core.Store, slice int) (core.ScrubReport, error) {
			mu.Lock()
			defer mu.Unlock()
			rep, err := st.ScrubPass(ctx, slice)
			if badReport {
				badReport = false
				condemned = st
				rep.Violations = append(rep.Violations, errors.New("fabricated: node 7 unused by any link"))
			}
			return rep, err
		}
		cfg.Verify = func(st *core.Store) []error {
			mu.Lock()
			defer mu.Unlock()
			if st == condemned {
				return []error{errors.New("fabricated: still corrupt")}
			}
			return st.CheckInvariants()
		}
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := insert(sv, "m", "x:s", "x:p", "x:o"); err != nil {
		t.Fatal(err)
	}
	if err := sv.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := sv.Store()

	// Condemn memory AND make the first recovery attempt fail on the WAL
	// reopen, so recovery needs at least two attempts.
	mu.Lock()
	badReport = true
	mu.Unlock()
	fo.refuseNext(1)

	// Wait for the scrub-triggered degradation to happen AND heal.
	deadline := time.Now().Add(2 * time.Second)
	for !rec.hasEdge(Healthy, Degraded) || sv.State() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("scrub escalation/recovery incomplete: %+v", rec.transitions())
		}
		time.Sleep(time.Millisecond)
	}
	// Disk must have stayed the authority across the failed attempt: the
	// store was rebuilt from snapshot+WAL (new pointer), not re-baselined
	// from the condemned memory image (same pointer).
	after := sv.Store()
	if after == before {
		t.Fatal("store pointer unchanged: failed attempt reclassified corruption as a durability fault and re-baselined condemned memory")
	}
	got, err := sv.Find(context.Background(), "m", core.Pattern{})
	if err != nil || len(got) != 1 {
		t.Fatalf("rebuilt store Find = %d rows, %v", len(got), err)
	}
}

// A background sweep that fails outright (not a cancellation) means the
// store could not be verified; the supervisor must escalate instead of
// silently skipping the sweep.
func TestScrubErrorEscalates(t *testing.T) {
	injected := errors.New("injected: scrub I/O failure")
	var (
		mu        sync.Mutex
		scrubFail bool
	)
	sv, _, rec, _ := openTestSupervisor(t, func(cfg *Config) {
		cfg.ScrubInterval = 2 * time.Millisecond
		cfg.Scrub = func(ctx context.Context, st *core.Store, slice int) (core.ScrubReport, error) {
			mu.Lock()
			defer mu.Unlock()
			if scrubFail {
				scrubFail = false
				return core.ScrubReport{}, injected
			}
			return st.ScrubPass(ctx, slice)
		}
	})
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := insert(sv, "m", "x:s", "x:p", "x:o"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	scrubFail = true
	mu.Unlock()

	// The failed sweep degrades the store with the sweep error as cause;
	// memory is fine, so rebaseline recovery heals it.
	deadline := time.Now().Add(2 * time.Second)
	for !rec.hasEdge(Healthy, Degraded) || sv.State() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("scrub-error escalation/recovery incomplete: %+v", rec.transitions())
		}
		time.Sleep(time.Millisecond)
	}
	found := false
	for _, tr := range rec.transitions() {
		if tr.To == Degraded && errors.Is(tr.Reason, injected) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Degraded transition wraps the injected scrub error: %+v", rec.transitions())
	}
	if err := insert(sv, "m", "x:s2", "x:p", "x:o2"); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTimeout: a deadline on the ctx passed to Find and FindModels
// bounds the read; an expired one fails it with DeadlineExceeded.
func TestQueryTimeout(t *testing.T) {
	sv, _, _, _ := openTestSupervisor(t, nil)
	if err := sv.Mutate(func(st *core.Store) error {
		_, err := st.CreateRDFModel("m", "", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	batch := make([]core.BatchTriple, 2000)
	for i := range batch {
		batch[i] = core.BatchTriple{
			Subject:   rdfterm.NewURI(fmt.Sprintf("http://x#s%d", i)),
			Predicate: rdfterm.NewURI("http://x#p"),
			Object:    rdfterm.NewURI(fmt.Sprintf("http://x#o%d", i)),
		}
	}
	if _, err := sv.InsertBatch("m", batch); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := sv.Find(ctx, "m", core.Pattern{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Find under 1ns deadline = %v, want DeadlineExceeded", err)
	}
	if _, err := sv.FindModels(ctx, []string{"m"}, core.Pattern{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FindModels under 1ns deadline = %v, want DeadlineExceeded", err)
	}
	if got, err := sv.Find(context.Background(), "m", core.Pattern{}); err != nil || len(got) != len(batch) {
		t.Fatalf("Find without a deadline = %d rows, %v; want %d", len(got), err, len(batch))
	}
}
