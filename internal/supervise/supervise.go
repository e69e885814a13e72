// Package supervise wraps a core.Store in a health-state machine so a
// deployment survives its durability layer misbehaving. The paper's
// store inherits Oracle's operational posture — the database stays up
// and queryable even when parts of it fail — and this package reproduces
// that posture for the reimplementation:
//
//	Healthy ──fault──▶ Degraded ──retry──▶ Recovering ──ok──▶ Healthy
//	                      ▲                    │
//	                      └────attempt failed──┘ (capped backoff + jitter)
//	                                           │
//	                                           └──attempts exhausted──▶ Failed (terminal)
//
// A WAL append/sync error or a failed checkpoint moves the store to
// Degraded: mutations are rejected with ErrDegraded while reads keep
// serving from the in-memory image (which is ahead of the broken log and
// authoritative). A background recovery loop retries with exponential
// backoff — reopen the WAL, checkpoint the current memory image
// atomically, retire the old segments — until the sink heals or the
// attempt budget runs out (Failed, terminal; reads still served).
//
// A background scrubber periodically sweeps the store's invariants and
// per-model statistics in bounded slices (core.ScrubPass), escalating
// genuine violations to Degraded with a structured ScrubError; recovery
// for corruption re-verifies and, if the damage is real, rebuilds the
// store from the on-disk snapshot + WAL.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// State is a supervisor health state.
type State int32

const (
	// Healthy serves reads and writes.
	Healthy State = iota
	// Degraded serves reads only; mutations fail with ErrDegraded while
	// the recovery loop works in the background.
	Degraded
	// Recovering is Degraded with a recovery attempt actively running.
	Recovering
	// Failed is terminal: the attempt budget is exhausted. Reads still
	// serve; mutations fail with ErrFailed until the process restarts.
	Failed
	// DegradedDisk is Degraded caused by disk pressure: the WAL's byte
	// budget is exhausted or the filesystem returned ENOSPC/short-write.
	// Mutations fail with ErrDiskFull (which also matches ErrDegraded);
	// reads keep serving. Unlike other faults it never escalates to
	// Failed — the recovery loop retries indefinitely, so freeing space
	// (an automatic checkpoint, an operator deleting files) brings the
	// store back to Healthy without a restart.
	DegradedDisk
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "Healthy"
	case Degraded:
		return "Degraded"
	case Recovering:
		return "Recovering"
	case Failed:
		return "Failed"
	case DegradedDisk:
		return "Degraded(disk)"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Sentinel errors for the mutation gate. Both wrap the underlying cause,
// so errors.Is(err, ErrDegraded) selects the gate and the full chain
// explains the fault.
var (
	ErrDegraded = errors.New("supervise: store degraded (read-only)")
	ErrFailed   = errors.New("supervise: store failed (recovery exhausted)")
	ErrClosed   = errors.New("supervise: supervisor closed")
)

// ErrDiskFull is the DegradedDisk gate's sentinel. It wraps ErrDegraded,
// so callers that only know the generic read-only state keep working,
// while disk-aware layers (the HTTP server's 507 mapping) match it
// first. A raw ENOSPC never reaches a client: the gate rejects with
// this sentinel before the store is touched.
var ErrDiskFull = fmt.Errorf("%w: disk pressure", ErrDegraded)

// Backoff shapes the recovery retry schedule.
type Backoff struct {
	// Initial is the delay before the second attempt (default 50ms; the
	// first attempt runs immediately).
	Initial time.Duration
	// Max caps the delay between attempts (default 5s).
	Max time.Duration
	// Multiplier grows the delay each failed attempt (default 2).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2) so
	// a fleet of stores does not retry in lockstep.
	Jitter float64
	// MaxAttempts bounds recovery attempts per fault; 0 retries forever.
	// Exhausting the budget moves the supervisor to Failed.
	MaxAttempts int
}

// Transition describes one state change, for observability hooks.
type Transition struct {
	From, To State
	// Reason is the fault driving the transition (nil for →Healthy).
	Reason error
	// RootCause is the fault that started the current Degraded episode —
	// stable across retry attempts, unlike Reason, which is rewritten
	// with each failed attempt's error. On the →Healthy transition it is
	// the fault that was just recovered from.
	RootCause error
	// Attempt numbers the recovery attempt (0 outside recovery).
	Attempt int
}

// CheckpointPolicy drives the supervisor's automatic checkpoints — the
// retention mechanism that keeps the WAL's disk footprint bounded
// without operator involvement. The zero value disables the
// policy loop (manual Checkpoint still works); the soft disk watermark
// (Config.Segment.Budget.SoftBytes) additionally triggers an immediate
// checkpoint regardless of these thresholds.
type CheckpointPolicy struct {
	// Interval checkpoints whenever at least this much time has passed
	// since the last checkpoint and mutations have landed since. 0
	// disables the age trigger.
	Interval time.Duration
	// WALBytes checkpoints whenever the WAL's on-disk size reaches this
	// many bytes. 0 disables the size trigger.
	WALBytes int64
	// Poll is how often the policy is evaluated (default 1s).
	Poll time.Duration
}

// Config configures Open.
type Config struct {
	// SnapshotPath and WALDir locate the durable state (WALDir is
	// required): a snapshot written atomically at each checkpoint
	// (core.SaveFile: tmp + fsync + rename) and a directory of rotating
	// WAL segments with checkpoint-driven retention and an optional disk
	// budget (see wal.Dir).
	SnapshotPath string
	WALDir       string
	// Segment configures the WAL (rotation size, disk budget,
	// fault-injection wrap). The supervisor chains its own checkpoint
	// trigger onto Segment.OnSoft.
	Segment wal.DirOptions
	// Checkpoint shapes the automatic checkpoint policy (zero disables).
	// Requires SnapshotPath.
	Checkpoint CheckpointPolicy
	// OpenDir opens/creates the WAL, handing its records to fn as it
	// reads them (default wal.OpenDirFunc). Tests substitute openers that
	// refuse or fault-wrap here.
	OpenDir func(dir string, fromSeq int64, opts wal.DirOptions, fn wal.RecordFunc) (*wal.Dir, wal.DirScanResult, error)
	// OnRecover, when set, observes the startup recovery's outcome —
	// CLIs surface torn-tail repairs to stderr from here.
	OnRecover func(core.RecoverInfo)
	// ScrubInterval is the pause between background invariant sweeps;
	// 0 disables the scrubber.
	ScrubInterval time.Duration
	// ScrubSlice bounds how many links one scrub slice audits under the
	// read lock (0 = core's default).
	ScrubSlice int
	// QueryTimeout bounds each read served through the supervisor's
	// query methods (0 = unbounded).
	QueryTimeout time.Duration
	// Backoff shapes recovery retries; zero fields take defaults.
	Backoff Backoff
	// OnTransition, when set, observes every state change (called outside
	// the supervisor's locks, from supervisor goroutines).
	OnTransition func(Transition)
	// Scrub overrides the background sweep (default core.Store.ScrubPass).
	// Tests inject fabricated violation reports here.
	Scrub func(ctx context.Context, st *core.Store, slice int) (core.ScrubReport, error)
	// Verify overrides the invariant check recovery re-verifies a
	// suspect store with (default core.Store.CheckInvariants).
	Verify func(st *core.Store) []error
	// Seed seeds the backoff jitter. 0 (the default) seeds from the
	// clock so a fleet of stores does not retry in lockstep; tests that
	// need a deterministic schedule set it explicitly.
	Seed int64
	// Obs, when set, receives the supervisor's metric series and routes
	// every transition and scrub notification into the registry's event
	// log with structured fields (see NewMetrics).
	Obs *obs.Registry
	// Tracer, when set, records background root spans for recovery
	// attempts, scrub passes, and automatic checkpoints (see
	// internal/trace). Recovery spans are force-retained — a recovery is
	// rare enough that losing one to sampling would be a debugging hole.
	// Nil disables with zero overhead.
	Tracer *trace.Tracer
}

// Supervisor wraps a store with the health-state machine. Reads go to
// Store() or the query helpers in any state; mutations must go through
// Mutate so the gate and the fault detector see them.
type Supervisor struct {
	cfg Config

	// opMu serializes mutations against recovery and checkpointing:
	// mutations hold it shared for the duration of the store call, the
	// recovery loop and Checkpoint hold it exclusively, so the WAL is
	// never swapped or rotated under an in-flight mutation. It guards
	// an execution window, not data — the data guard is mu below.
	opMu sync.RWMutex

	mu         sync.Mutex
	state      State            //repro:guarded-by mu
	reason     error            //repro:guarded-by mu
	rootCause  error            //repro:guarded-by mu
	store      *core.Store      //repro:guarded-by mu
	dir        *wal.Dir         //repro:guarded-by mu
	closed     bool             //repro:guarded-by mu
	recoveries int              //repro:guarded-by mu
	scrubs     int              //repro:guarded-by mu
	lastScrub  core.ScrubReport //repro:guarded-by mu
	dirty      int64            //repro:guarded-by mu
	lastCkpt   time.Time        //repro:guarded-by mu

	wake      chan struct{}
	ckptWake  chan struct{} // soft-watermark → immediate checkpoint
	stop      chan struct{}
	wg        sync.WaitGroup
	scrubCtx  context.Context
	scrubStop context.CancelFunc
	rng       *rand.Rand // recovery-loop goroutine only

	// met and walMet are set once in Open (attach-before-share) and read
	// by the notification funnel; nil when Config.Obs is unset.
	met    *Metrics
	walMet *wal.Metrics
}

// Open recovers the store from SnapshotPath + WALDir (the snapshot may
// be absent — a fresh baseline is created), attaches the WAL, and starts
// the supervisor's background loops.
func Open(cfg Config) (*Supervisor, error) {
	if cfg.WALDir == "" {
		return nil, errors.New("supervise: open: WALDir is required")
	}
	if cfg.OpenDir == nil {
		cfg.OpenDir = wal.OpenDirFunc
	}
	if cfg.Backoff.Initial <= 0 {
		cfg.Backoff.Initial = 50 * time.Millisecond
	}
	if cfg.Backoff.Max <= 0 {
		cfg.Backoff.Max = 5 * time.Second
	}
	if cfg.Backoff.Multiplier < 1 {
		cfg.Backoff.Multiplier = 2
	}
	if cfg.Backoff.Jitter < 0 || cfg.Backoff.Jitter >= 1 {
		cfg.Backoff.Jitter = 0.2
	}
	if cfg.Scrub == nil {
		cfg.Scrub = func(ctx context.Context, st *core.Store, slice int) (core.ScrubReport, error) {
			return st.ScrubPass(ctx, slice)
		}
	}
	if cfg.Verify == nil {
		cfg.Verify = func(st *core.Store) []error { return st.CheckInvariants() }
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}

	ctx, cancel := context.WithCancel(context.Background())
	sv := &Supervisor{
		cfg:       cfg,
		state:     Healthy,
		wake:      make(chan struct{}, 1),
		ckptWake:  make(chan struct{}, 1),
		stop:      make(chan struct{}),
		scrubCtx:  ctx,
		scrubStop: cancel,
		rng:       rand.New(rand.NewSource(seed)),
		met:       NewMetrics(cfg.Obs),
		walMet:    wal.NewMetrics(cfg.Obs),
		lastCkpt:  time.Now(),
	}
	// Chain the supervisor's immediate-checkpoint trigger onto the WAL's
	// soft watermark (preserving any user callback). The chained callback
	// only pokes a buffered channel, so it is safe to fire from inside a
	// commit, under the store's write lock.
	userSoft := cfg.Segment.OnSoft
	sv.cfg.Segment.OnSoft = func(total int64) {
		if userSoft != nil {
			userSoft(total)
		}
		select {
		case sv.ckptWake <- struct{}{}:
		default:
		}
	}

	st, dir, info, err := core.RecoverDirWith(cfg.SnapshotPath, cfg.WALDir, sv.cfg.Segment, cfg.OpenDir)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("supervise: open: %w", err)
	}
	dir.SetMetrics(sv.walMet)
	st.SetDurability(dir)
	sv.store, sv.dir = st, dir
	if info.Truncated {
		sv.walMet.OnTornTail(cfg.WALDir, info.ValidBytes, info.TailErr)
	}
	if cfg.OnRecover != nil {
		cfg.OnRecover(info)
	}
	sv.met.markHealthy()
	sv.wg.Add(1)
	go sv.recoverLoop()
	if cfg.ScrubInterval > 0 {
		sv.wg.Add(1)
		go sv.scrubLoop()
	}
	if sv.checkpointLoopEnabled() {
		sv.wg.Add(1)
		go sv.checkpointLoop()
	}
	return sv, nil
}

// checkpointLoopEnabled reports whether the automatic checkpoint loop
// has anything to do: a policy trigger or a soft disk watermark, plus a
// snapshot path to checkpoint into.
func (sv *Supervisor) checkpointLoopEnabled() bool {
	if sv.cfg.SnapshotPath == "" {
		return false
	}
	p := sv.cfg.Checkpoint
	return p.Interval > 0 || p.WALBytes > 0 || sv.cfg.Segment.Budget.SoftBytes > 0
}

// State returns the current health state.
func (sv *Supervisor) State() State {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.state
}

// Err returns the fault behind the current non-Healthy state (nil when
// Healthy).
func (sv *Supervisor) Err() error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.reason
}

// Health is a snapshot of the supervisor's condition.
type Health struct {
	State State
	// Reason is the active fault (nil when Healthy).
	Reason error
	// Recoveries counts completed Degraded→Healthy cycles.
	Recoveries int
	// Scrubs counts completed background sweeps; LastScrub is the most
	// recent report.
	Scrubs    int
	LastScrub core.ScrubReport
}

// Health returns a snapshot of the supervisor's condition.
func (sv *Supervisor) Health() Health {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return Health{
		State:      sv.state,
		Reason:     sv.reason,
		Recoveries: sv.recoveries,
		Scrubs:     sv.scrubs,
		LastScrub:  sv.lastScrub,
	}
}

// Store returns the current store for direct reads. The pointer may be
// replaced by corruption recovery; long-lived readers should re-fetch it
// rather than cache it. Mutating through this pointer bypasses the
// health gate and the fault detector — use Mutate.
func (sv *Supervisor) Store() *core.Store {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.store
}

// gate admits one mutation: the supervisor must be open and Healthy.
// The returned error wraps the active fault under the matching sentinel.
func (sv *Supervisor) gate() (*core.Store, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	switch {
	case sv.closed:
		return nil, ErrClosed
	case sv.state == Failed:
		return nil, fmt.Errorf("%w: %w", ErrFailed, sv.reason)
	case sv.state == DegradedDisk:
		if sv.reason != nil {
			return nil, fmt.Errorf("%w: %w", ErrDiskFull, sv.reason)
		}
		return nil, ErrDiskFull
	case sv.state != Healthy:
		if sv.reason != nil {
			return nil, fmt.Errorf("%w: %w", ErrDegraded, sv.reason)
		}
		return nil, ErrDegraded
	}
	return sv.store, nil
}

// Mutate runs one mutation against the store. In any state but Healthy
// the mutation is rejected (ErrDegraded/ErrFailed/ErrClosed) without
// touching the store. A mutation that fails against the durability sink
// (core.ErrDurability in the chain) trips the supervisor to Degraded —
// the caller's error reports the rejected operation; the recovery loop
// handles the sink.
func (sv *Supervisor) Mutate(fn func(*core.Store) error) error {
	sv.opMu.RLock()
	defer sv.opMu.RUnlock()
	st, err := sv.gate()
	if err != nil {
		return err
	}
	if err := fn(st); err != nil {
		if errors.Is(err, core.ErrDurability) {
			sv.degrade(err)
		}
		return err
	}
	sv.noteMutation()
	return nil
}

// noteMutation counts a successful mutation for the checkpoint policy's
// "anything new since the last checkpoint?" test.
func (sv *Supervisor) noteMutation() {
	sv.mu.Lock()
	sv.dirty++
	sv.mu.Unlock()
}

// InsertBatch is Mutate(core.Store.InsertBatchCtx) with the result threaded out.
func (sv *Supervisor) InsertBatch(model string, batch []core.BatchTriple) (core.BatchResult, error) {
	var res core.BatchResult
	err := sv.Mutate(func(st *core.Store) error {
		var err error
		res, err = st.InsertBatchCtx(context.Background(), model, batch)
		return err
	})
	return res, err
}

// readCtx applies the configured query timeout.
func (sv *Supervisor) readCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if sv.cfg.QueryTimeout > 0 {
		return context.WithTimeout(ctx, sv.cfg.QueryTimeout)
	}
	return ctx, func() {}
}

// Find serves a pattern query in any health state (Degraded and Failed
// stores keep reading), bounded by the configured query timeout.
func (sv *Supervisor) Find(ctx context.Context, model string, pat core.Pattern) ([]core.TripleS, error) {
	ctx, cancel := sv.readCtx(ctx)
	defer cancel()
	return sv.Store().Find(ctx, model, pat)
}

// FindModels is Find over several models under one consistent snapshot.
func (sv *Supervisor) FindModels(ctx context.Context, models []string, pat core.Pattern) ([]core.TripleS, error) {
	ctx, cancel := sv.readCtx(ctx)
	defer cancel()
	return sv.Store().FindModelsCtx(ctx, models, pat)
}

// Checkpoint snapshots the current state atomically and reclaims WAL
// space (rotate + watermark + segment retention, core.CheckpointDir),
// excluding mutations for the duration. A
// failed checkpoint trips the supervisor to Degraded — or to
// DegradedDisk when the failure is disk exhaustion — while the previous
// snapshot stays intact (SaveFile never overwrites in place). Its phases
// are recorded on the span carried by ctx (see internal/trace) — the
// automatic checkpoint loop passes a "supervise.checkpoint" root span
// through here.
func (sv *Supervisor) Checkpoint(ctx context.Context) error {
	sv.opMu.Lock()
	defer sv.opMu.Unlock()
	st, err := sv.gate()
	if err != nil {
		return err
	}
	sv.mu.Lock()
	dir := sv.dir
	sv.mu.Unlock()
	if err := core.CheckpointDirCtx(ctx, st, sv.cfg.SnapshotPath, dir); err != nil {
		err = fmt.Errorf("supervise: checkpoint: %w", err)
		sv.degrade(err)
		return err
	}
	sv.noteCheckpoint()
	return nil
}

// noteCheckpoint resets the checkpoint policy's triggers.
func (sv *Supervisor) noteCheckpoint() {
	sv.mu.Lock()
	sv.dirty = 0
	sv.lastCkpt = time.Now()
	sv.mu.Unlock()
}

// Close stops the background loops and closes the WAL. Safe to call
// twice; mutations after Close fail with ErrClosed.
func (sv *Supervisor) Close() error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil
	}
	sv.closed = true
	sv.mu.Unlock()
	sv.scrubStop()
	close(sv.stop)
	sv.wg.Wait()
	// Exclude in-flight operations: a Mutate/Checkpoint that passed the
	// gate before closed was set may still be appending; closing the log
	// under it would turn a durable write into a spurious write-on-closed
	// error. The background loops are already drained (wg.Wait above), so
	// nothing else can hold opMu for long.
	sv.opMu.Lock()
	defer sv.opMu.Unlock()
	sv.mu.Lock()
	dir := sv.dir
	sv.dir = nil
	sv.mu.Unlock()
	if dir != nil {
		if err := dir.Close(); err != nil {
			return fmt.Errorf("supervise: close: %w", err)
		}
	}
	return nil
}

// degrade records a fault and wakes the recovery loop. No-op unless the
// supervisor is currently Healthy: an already-degraded store keeps its
// first fault as the root cause, and Failed is terminal. Disk-space
// faults (wal.IsNoSpace anywhere in the chain) land in DegradedDisk,
// whose recovery never gives up.
func (sv *Supervisor) degrade(cause error) {
	to := Degraded
	if wal.IsNoSpace(cause) {
		to = DegradedDisk
	}
	sv.mu.Lock()
	if sv.closed || sv.state != Healthy {
		sv.mu.Unlock()
		return
	}
	sv.state = to
	sv.reason = cause
	// rootCause is the fault that started this Degraded episode. Unlike
	// reason it is never overwritten by per-attempt retry errors, so the
	// recovery loop's fault classification (corruption vs durability vs
	// disk) stays stable across failed attempts.
	sv.rootCause = cause
	sv.mu.Unlock()
	sv.notify(Transition{From: Healthy, To: to, Reason: cause, RootCause: cause})
	select {
	case sv.wake <- struct{}{}:
	default:
	}
}

// transition moves the state machine during recovery. Failed is terminal
// and the machine freezes once closed.
func (sv *Supervisor) transition(to State, reason error, attempt int) {
	sv.mu.Lock()
	if sv.closed || sv.state == Failed || sv.state == to {
		sv.mu.Unlock()
		return
	}
	from := sv.state
	sv.state = to
	if reason != nil {
		sv.reason = reason
	}
	// Capture before the →Healthy clear so the recovery transition still
	// names the fault it recovered from.
	rootCause := sv.rootCause
	if to == Healthy {
		sv.reason = nil
		sv.rootCause = nil
		sv.recoveries++
	}
	sv.mu.Unlock()
	sv.notify(Transition{From: from, To: to, Reason: reason, RootCause: rootCause, Attempt: attempt})
}

// notify delivers a transition to every observability sink: the obs
// registry (state gauge, transition counters, structured event) and the
// configured callback.
func (sv *Supervisor) notify(tr Transition) {
	sv.met.onTransition(tr)
	if sv.cfg.OnTransition != nil {
		sv.cfg.OnTransition(tr)
	}
}

// stopped reports whether Close has begun.
func (sv *Supervisor) stopped() bool {
	select {
	case <-sv.stop:
		return true
	default:
		return false
	}
}
