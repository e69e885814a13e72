package supervise

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// Observability. Every supervisor notification — health transitions,
// recovery attempts, automatic checkpoints — flows through one funnel
// into the obs registry: a state gauge and counters
// for dashboards, plus structured events in the registry's ring so
// tests and /events can assert on exactly what happened and why. The
// OnTransition callback remains for programmatic consumers; the event
// log is the durable-within-process record.

// Metrics instruments a Supervisor against an obs registry. nil
// disables instrumentation (the hooks are nil-receiver no-ops).
type Metrics struct {
	state            *obs.Gauge
	transitions      *obs.Counter
	degraded         *obs.Counter
	recoveryAttempts *obs.Counter
	recoveries       *obs.Counter
	autoCheckpoints  *obs.Counter
	ckptDur          *obs.Histogram
	events           *obs.EventLog
}

// NewMetrics registers the supervisor metric families on reg. Returns
// nil when reg is nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		state:            reg.Gauge("supervise_state", "current health state (0 Healthy, 1 Degraded, 2 Recovering, 3 Failed, 4 Degraded(disk))"),
		transitions:      reg.Counter("supervise_transitions_total", "health-state transitions"),
		degraded:         reg.Counter("supervise_degraded_total", "faults that tripped the store into Degraded"),
		recoveryAttempts: reg.Counter("supervise_recovery_attempts_total", "recovery attempts started"),
		recoveries:       reg.Counter("supervise_recoveries_total", "completed Degraded->Healthy cycles"),
		autoCheckpoints:  reg.Counter("supervise_auto_checkpoints_total", "checkpoints taken by the automatic policy loop"),
		ckptDur:          reg.Histogram("supervise_checkpoint_seconds", "automatic checkpoint duration", obs.DurationBuckets),
		events:           reg.Events(),
	}
}

// startTimer returns now, or the zero time when metrics are disabled.
func (m *Metrics) startTimer() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// onTransition updates the state series and emits the structured
// transition event (fields: from, to, state, reason, rootCause,
// attempt).
func (m *Metrics) onTransition(tr Transition) {
	if m == nil {
		return
	}
	m.state.Set(int64(tr.To))
	m.transitions.Inc()
	switch tr.To {
	case Degraded, DegradedDisk:
		m.degraded.Inc()
	case Recovering:
		m.recoveryAttempts.Inc()
	case Healthy:
		m.recoveries.Inc()
	}
	fields := map[string]string{
		"from":    tr.From.String(),
		"to":      tr.To.String(),
		"state":   tr.To.String(),
		"attempt": strconv.Itoa(tr.Attempt),
	}
	if tr.Reason != nil {
		fields["reason"] = tr.Reason.Error()
	}
	if tr.RootCause != nil {
		fields["rootCause"] = tr.RootCause.Error()
	}
	m.events.Emit("supervise", "transition", fields)
}

// markHealthy initializes the state gauge at Open, before any
// transition fires.
func (m *Metrics) markHealthy() {
	if m == nil {
		return
	}
	m.state.Set(int64(Healthy))
}

// onAutoCheckpoint records a policy-driven checkpoint. urgent marks
// soft-watermark (disk pressure) triggers vs routine interval/size ones.
func (m *Metrics) onAutoCheckpoint(urgent bool, t0 time.Time) {
	if m == nil {
		return
	}
	m.autoCheckpoints.Inc()
	m.ckptDur.ObserveSince(t0)
	m.events.Emit("supervise", "auto_checkpoint", map[string]string{
		"trigger": ckptTrigger(urgent),
	})
}

// onAutoCheckpointError records a policy-driven checkpoint that failed
// (and degraded the supervisor).
func (m *Metrics) onAutoCheckpointError(urgent bool, err error) {
	if m == nil {
		return
	}
	m.events.Emit("supervise", "auto_checkpoint_error", map[string]string{
		"trigger": ckptTrigger(urgent),
		"error":   err.Error(),
	})
}

func ckptTrigger(urgent bool) string {
	if urgent {
		return "soft_watermark"
	}
	return "policy"
}

// Healthz adapts the supervisor's health snapshot to the admin
// endpoint's payload: anything but Healthy answers 503, with the
// active fault as the reason and the recovery count as detail.
func (sv *Supervisor) Healthz() obs.Health {
	h := sv.Health()
	out := obs.Health{
		Healthy: h.State == Healthy,
		State:   h.State.String(),
		Detail:  map[string]any{"recoveries": h.Recoveries},
	}
	if h.Reason != nil {
		out.Reason = h.Reason.Error()
	}
	return out
}
