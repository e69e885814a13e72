package supervise

import (
	"context"
	"time"

	"repro/internal/trace"
)

// Automatic checkpointing. The policy loop turns the manual-only
// Checkpoint into the WAL's retention engine: without it an
// rdfserve left running would grow its log without bound and the disk
// budget would only ever be hit, never relieved. Two trigger classes:
//
//   - Policy (CheckpointPolicy): every Poll the loop asks "has Interval
//     elapsed since the last checkpoint?" or "has the WAL grown past
//     WALBytes?" — either with at least one mutation since the last
//     checkpoint — and checkpoints when so.
//   - Pressure (Segment.Budget.SoftBytes): the Dir's soft-watermark
//     callback pokes ckptWake and the loop checkpoints immediately,
//     ahead of the poll cadence, so retention lands before the hard
//     budget starts rejecting appends.
//
// The loop only acts while Healthy: in any other state the recovery loop
// owns the log, and its re-baseline is itself a checkpoint (in a
// Degraded(disk) episode, the one that reclaims space).

// defaultCheckpointPoll is the policy evaluation cadence when
// CheckpointPolicy.Poll is unset.
const defaultCheckpointPoll = time.Second

// checkpointLoop evaluates the checkpoint policy until Close.
func (sv *Supervisor) checkpointLoop() {
	defer sv.wg.Done()
	poll := sv.cfg.Checkpoint.Poll
	if poll <= 0 {
		poll = defaultCheckpointPoll
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		urgent := false
		select {
		case <-sv.stop:
			return
		case <-t.C:
		case <-sv.ckptWake:
			urgent = true
		}
		if sv.State() != Healthy {
			continue // recovery owns the store (and, for disk, the space)
		}
		if !sv.checkpointDue(urgent) {
			continue
		}
		t0 := sv.met.startTimer()
		sp := sv.cfg.Tracer.StartRoot("supervise.checkpoint")
		if urgent {
			sp.SetAttr("trigger", "soft-watermark")
		} else {
			sp.SetAttr("trigger", "policy")
		}
		err := sv.Checkpoint(trace.WithSpan(context.Background(), sp))
		sp.SetError(err)
		sp.End()
		if err != nil {
			// Checkpoint already degraded the supervisor; the recovery
			// loop takes over from here.
			sv.met.onAutoCheckpointError(urgent, err)
			continue
		}
		sv.met.onAutoCheckpoint(urgent, t0)
	}
}

// checkpointDue decides whether to checkpoint now. urgent (the soft
// disk watermark fired) bypasses the policy thresholds but still
// requires something new to persist — a checkpoint with no mutations
// since the last one cannot shrink the log further.
func (sv *Supervisor) checkpointDue(urgent bool) bool {
	sv.mu.Lock()
	dirty, last, dir := sv.dirty, sv.lastCkpt, sv.dir
	sv.mu.Unlock()
	if dirty == 0 {
		return false
	}
	if urgent {
		return true
	}
	p := sv.cfg.Checkpoint
	if p.Interval > 0 && time.Since(last) >= p.Interval {
		return true
	}
	return p.WALBytes > 0 && dir != nil && dir.Size() >= p.WALBytes
}
