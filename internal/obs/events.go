package obs

import (
	"sort"
	"sync"
	"time"
)

// Event is one discrete structured occurrence: a health transition, an
// automatic checkpoint, a torn WAL tail. Fields are flat string pairs so tests
// can assert on them and /events can render them without reflection.
type Event struct {
	// Seq is a monotone sequence number (1-based) over the log's lifetime;
	// gaps after eviction tell a consumer how much it missed.
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	// Scope is the emitting subsystem ("supervise", "wal", "server").
	Scope string `json:"scope"`
	// Name identifies the occurrence within the scope ("transition",
	// "torn_tail", ...).
	Name   string            `json:"name"`
	Fields map[string]string `json:"fields,omitempty"`
}

// EventLog is a fixed-capacity ring of recent events. Appends are
// mutex-guarded — events are discrete occurrences (transitions,
// checkpoints), not per-operation records, so the lock is uncontended by
// construction. A nil EventLog is a valid no-op sink.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next int64 // next Seq to assign; ring[(next-1) % cap] is the newest
}

// NewEventLog creates a ring holding the most recent capacity events
// (minimum 1).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]Event, 0, capacity)}
}

// Emit appends an event stamped with the current time. fields may be
// nil; the map is stored as given, so callers must not mutate it after.
func (l *EventLog) Emit(scope, name string, fields map[string]string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := Event{Seq: l.next + 1, Time: time.Now(), Scope: scope, Name: name, Fields: fields}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.next%int64(cap(l.ring))] = ev
	}
	l.next++
}

// Snapshot returns the retained events oldest-first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Event(nil), l.ring...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}
