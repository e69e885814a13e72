package supervise

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Recovery. After a durability fault the in-memory store is AHEAD of the
// broken log and authoritative: every acknowledged mutation is in memory,
// so recovery is NOT a replay — it is re-establishing a durable baseline
// for what memory already holds. Each attempt reopens the WAL directory,
// checkpoints the current memory image atomically (core.CheckpointDir:
// rotate, snapshot with watermark, retire the segments below it). One
// acknowledged-durability wart is inherent here: a mutation whose WAL
// commit failed was rejected to its caller but was applied in memory
// (the store refuses every later write until re-baselined, so it is the
// only one); re-baselining persists it. That errs on the side of keeping
// data (at-least-once), never losing acknowledged commits.

// recoverLoop waits for a fault and drives the retry schedule.
func (sv *Supervisor) recoverLoop() {
	defer sv.wg.Done()
	for {
		select {
		case <-sv.stop:
			return
		case <-sv.wake:
		}
		sv.runRecovery()
	}
}

// runRecovery retries recovery with capped exponential backoff and
// jitter until it succeeds, the attempt budget runs out (→Failed), or
// the supervisor closes. Disk-pressure episodes are exempt from the
// attempt budget: running out of space is an environmental condition
// that clears when space is freed (an automatic checkpoint, an operator
// deleting files), so the loop keeps retrying at the capped cadence and
// the store returns to Healthy on its own — never Failed.
func (sv *Supervisor) runRecovery() {
	b := sv.cfg.Backoff
	delay := b.Initial
	sv.mu.Lock()
	rootCause := sv.rootCause
	sv.mu.Unlock()
	for attempt := 1; ; attempt++ {
		if sv.stopped() {
			return
		}
		sv.transition(Recovering, nil, attempt)
		// Each attempt is a force-retained background root span:
		// recoveries are rare and always worth a postmortem, so they
		// never compete with request traces for the sampler's budget.
		sp := sv.cfg.Tracer.StartRoot("supervise.recovery")
		sp.Force()
		sp.SetInt("attempt", int64(attempt))
		err := sv.attemptRecovery(trace.WithSpan(context.Background(), sp))
		sp.SetError(err)
		sp.End()
		if err == nil {
			sv.transition(Healthy, nil, attempt)
			return
		}
		disk := wal.IsNoSpace(err) || wal.IsNoSpace(rootCause)
		if !disk && b.MaxAttempts > 0 && attempt >= b.MaxAttempts {
			sv.transition(Failed, fmt.Errorf("supervise: recovery attempt %d/%d: %w", attempt, b.MaxAttempts, err), attempt)
			return
		}
		to := Degraded
		if disk {
			to = DegradedDisk
		}
		sv.transition(to, fmt.Errorf("supervise: recovery attempt %d: %w", attempt, err), attempt)
		select {
		case <-sv.stop:
			return
		case <-time.After(sv.jitter(delay)):
		}
		delay = time.Duration(float64(delay) * b.Multiplier)
		if delay > b.Max {
			delay = b.Max
		}
	}
}

// jitter randomizes a delay by ±Backoff.Jitter. Recovery-loop goroutine
// only (sv.rng is not locked).
func (sv *Supervisor) jitter(d time.Duration) time.Duration {
	j := sv.cfg.Backoff.Jitter
	if j <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + j*(2*sv.rng.Float64()-1)))
}

// attemptRecovery runs one recovery attempt with mutations excluded: it
// re-establishes durability for the authoritative in-memory image —
// close the broken log, reopen the WAL, checkpoint memory, and reclaim
// the old log's space (rotate + watermark + segment retention, which is
// also what frees disk in a DegradedDisk episode).
func (sv *Supervisor) attemptRecovery(ctx context.Context) error {
	sv.opMu.Lock()
	defer sv.opMu.Unlock()
	// Close the failed log, tolerating errors (the sink is already known
	// broken) and repeated attempts (sv.dir nils out).
	sv.mu.Lock()
	oldDir := sv.dir
	sv.dir = nil
	sv.mu.Unlock()
	if oldDir != nil {
		oldDir.Close()
	}
	dir, _, err := sv.cfg.OpenDir(sv.cfg.WALDir, 0, sv.cfg.Segment, nil)
	if err != nil {
		return fmt.Errorf("reopening WAL dir: %w", err)
	}
	dir.SetMetrics(sv.walMet)
	if err := core.CheckpointDirCtx(ctx, sv.store, sv.cfg.SnapshotPath, dir); err != nil {
		dir.Close()
		return fmt.Errorf("re-baselining: %w", err)
	}
	sv.store.SetDurability(dir)
	sv.mu.Lock()
	sv.dir = dir
	sv.mu.Unlock()
	sv.noteCheckpoint()
	return nil
}
