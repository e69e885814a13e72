package supervise

import (
	"context"
	"errors"
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
// append failed was rejected to its caller but may have partially applied
// in memory; re-baselining persists it. That errs on the side of keeping
// data (at-least-once), never losing acknowledged commits.
//
// Corruption recovery (scrubber violations) is different: memory is the
// suspect, disk is the authority. The attempt re-verifies memory and, if
// the damage is confirmed, rebuilds the store from snapshot + WAL replay
// and swaps it in — acknowledged mutations are in the WAL, so the rebuilt
// image contains them.

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

// attemptRecovery runs one recovery attempt with mutations excluded.
// Fault classification reads rootCause, not reason: reason is rewritten
// with each failed attempt's error, and classifying from it would let a
// transient attempt failure (e.g. a refused WAL reopen) flip a
// corruption fault into a durability fault on the next attempt —
// rebaseline() would then checkpoint the known-corrupt memory image
// over the good snapshot.
func (sv *Supervisor) attemptRecovery(ctx context.Context) error {
	sv.opMu.Lock()
	defer sv.opMu.Unlock()
	sv.mu.Lock()
	st, oldDir, rootCause := sv.store, sv.dir, sv.rootCause
	sv.mu.Unlock()

	var scrubErr *ScrubError
	if errors.As(rootCause, &scrubErr) {
		return sv.recoverFromCorruption(st, oldDir)
	}
	return sv.rebaseline(ctx, st, oldDir)
}

// rebaseline re-establishes durability for the authoritative in-memory
// image: close the broken log, reopen the WAL, checkpoint memory, and
// reclaim the old log's space (rotate + watermark + segment retention —
// which is also what frees disk in a DegradedDisk episode). Called with
// opMu held exclusively.
func (sv *Supervisor) rebaseline(ctx context.Context, st *core.Store, oldDir *wal.Dir) error {
	sv.closeOldDir(oldDir)
	dir, _, err := sv.cfg.OpenDir(sv.cfg.WALDir, 0, sv.cfg.Segment, nil)
	if err != nil {
		return fmt.Errorf("reopening WAL dir: %w", err)
	}
	dir.SetMetrics(sv.walMet)
	if err := core.CheckpointDirCtx(ctx, st, sv.cfg.SnapshotPath, dir); err != nil {
		dir.Close()
		return fmt.Errorf("re-baselining: %w", err)
	}
	st.SetDurability(dir)
	sv.mu.Lock()
	sv.dir = dir
	sv.mu.Unlock()
	sv.noteCheckpoint()
	return nil
}

// recoverFromCorruption handles a scrubber-confirmed invariant failure:
// re-verify memory (the scrub may predate a fix), and rebuild from disk
// when the damage is real. Called with opMu held exclusively.
func (sv *Supervisor) recoverFromCorruption(st *core.Store, oldDir *wal.Dir) error {
	if len(sv.cfg.Verify(st)) == 0 {
		// Memory verifies clean now; keep it and its log.
		return nil
	}
	sv.closeOldDir(oldDir)
	fresh, dir, _, err := core.RecoverDirWith(sv.cfg.SnapshotPath, sv.cfg.WALDir, sv.cfg.Segment, sv.cfg.OpenDir)
	if err != nil {
		return fmt.Errorf("rebuilding from disk: %w", err)
	}
	if errs := sv.cfg.Verify(fresh); len(errs) > 0 {
		dir.Close()
		return fmt.Errorf("disk image fails verification too: %w", errs[0])
	}
	dir.SetMetrics(sv.walMet)
	fresh.SetDurability(dir)
	sv.mu.Lock()
	sv.store, sv.dir = fresh, dir
	sv.mu.Unlock()
	return nil
}

// closeOldDir detaches and closes the failed log, tolerating errors (the
// sink is already known broken) and repeated attempts (sv.dir nils out).
func (sv *Supervisor) closeOldDir(oldDir *wal.Dir) {
	if oldDir == nil {
		return
	}
	oldDir.Close()
	sv.mu.Lock()
	if sv.dir == oldDir {
		sv.dir = nil
	}
	sv.mu.Unlock()
}

// ScrubError is the structured report a failing background sweep
// escalates with: the full ScrubReport rides along for diagnostics.
type ScrubError struct {
	Report core.ScrubReport
}

// Error summarizes the violations.
func (e *ScrubError) Error() string {
	n := len(e.Report.Violations)
	msg := fmt.Sprintf("supervise: scrub found %d invariant violation(s) across %d links", n, e.Report.Links)
	if n > 0 {
		msg += ": " + e.Report.Violations[0].Error()
		if n > 1 {
			msg += fmt.Sprintf(" (and %d more)", n-1)
		}
	}
	return msg
}

// scrubLoop periodically sweeps invariants and statistics in bounded
// slices, escalating violations.
func (sv *Supervisor) scrubLoop() {
	defer sv.wg.Done()
	t := time.NewTicker(sv.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-sv.stop:
			return
		case <-t.C:
		}
		if sv.State() != Healthy {
			continue // recovery owns the store right now
		}
		t0 := sv.met.startTimer()
		sp := sv.cfg.Tracer.StartRoot("supervise.scrub")
		rep, err := sv.cfg.Scrub(trace.WithSpan(sv.scrubCtx, sp), sv.Store(), sv.cfg.ScrubSlice)
		sp.SetInt("links", int64(rep.Links))
		sp.SetInt("violations", int64(len(rep.Violations)))
		if err != nil {
			sp.SetError(err)
			sp.End()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				continue // sweep cancelled at shutdown
			}
			// A sweep that failed for any other reason (an injected Scrub
			// hook hitting real I/O trouble, say) means the store could
			// not be verified — escalate rather than silently retrying.
			sv.met.onScrubError(err)
			sv.degrade(fmt.Errorf("supervise: scrub failed: %w", err))
			continue
		}
		if len(rep.Violations) > 0 {
			// A violating sweep is a corruption postmortem in the making:
			// force-retain it alongside the recovery spans it triggers.
			sp.Force()
			sp.SetError(&ScrubError{Report: rep})
		}
		sp.End()
		sv.met.onScrub(t0, rep)
		sv.noteScrub(rep)
		if len(rep.Violations) > 0 {
			sv.degrade(&ScrubError{Report: rep})
		}
	}
}

// noteScrub records a completed sweep for Health.
func (sv *Supervisor) noteScrub(rep core.ScrubReport) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.scrubs++
	sv.lastScrub = rep
}
