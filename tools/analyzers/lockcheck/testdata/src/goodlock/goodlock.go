// Package goodlock exercises the patterns lockcheck must accept: defer
// unlocks, manual unlock on every path, *Locked helpers, constructors on
// unshared locals, goroutines that lock for themselves, multi-level
// receiver chains, and callbacks of a transaction wrapper that runs them
// under the lock. The analyzer must stay silent on this package.
package goodlock

import "sync"

type Table struct{ n int }

func (t *Table) Insert(v int) { t.n++ }
func (t *Table) Len() int     { return t.n }

type Store struct {
	mu  sync.RWMutex
	tab *Table //repro:guarded-by mu
	seq int64  //repro:guarded-by mu
}

// New touches guarded fields on a local the caller cannot see yet.
func New() *Store {
	s := &Store{tab: &Table{}}
	s.seq = 1
	return s
}

// Len uses the canonical RLock + defer shape.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tab.Len()
}

// Insert pairs the lock manually but unlocks on every return path.
func (s *Store) Insert(v int) bool {
	s.mu.Lock()
	if v < 0 {
		s.mu.Unlock()
		return false
	}
	s.insertLocked(v)
	s.mu.Unlock()
	return true
}

// insertLocked documents the caller-holds-the-lock contract by name.
func (s *Store) insertLocked(v int) {
	s.tab.Insert(v)
	s.seq++
}

// Snapshot reads several guarded fields inside one critical section.
func (s *Store) Snapshot() (int, int64) {
	s.mu.RLock()
	n := s.tab.Len()
	seq := s.seq
	s.mu.RUnlock()
	return n, seq
}

// Refresh spawns a goroutine that acquires the lock for itself.
func (s *Store) Refresh() {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.tab.Insert(0)
	}()
}

// Use calls a locking method from an unlocked context.
func Use(s *Store) {
	s.Insert(4)
}

// Collect snapshots under a manually paired lock; the early return
// inside the scan callback leaves the closure, not Collect, so it does
// not leak the lock Collect owns.
func (s *Store) Collect(limit int) []int {
	s.mu.RLock()
	var out []int
	walk(s.tab.Len(), func(v int) bool {
		if v >= limit {
			return false
		}
		out = append(out, v)
		return true
	})
	s.mu.RUnlock()
	return out
}

func walk(n int, fn func(int) bool) {
	for i := 0; i < n; i++ {
		if !fn(i) {
			return
		}
	}
}

type Network struct{ store *Store }

// Grow reaches the guarded field through a two-level chain; the lock
// state is tracked per rendered base, so n.store.mu covers n.store.tab.
func (n *Network) Grow(v int) {
	n.store.mu.Lock()
	defer n.store.mu.Unlock()
	n.store.tab.Insert(v)
}

// Probe is a nil-safe instrument in the shape of the obs package:
// methods are nil-receiver no-ops so a disabled probe costs one branch.
type Probe struct{ n int64 }

func (p *Probe) start() int64 {
	if p == nil {
		return 0
	}
	return 1
}

func (p *Probe) observe(t0 int64) {
	if p == nil {
		return
	}
	p.n += t0
}

// Ring is an event buffer in the shape of the obs event log: the ring
// and cursor are guarded, appends go through a *Locked helper.
type Ring struct {
	mu   sync.Mutex
	buf  []int //repro:guarded-by mu
	next int   //repro:guarded-by mu
	// met is deliberately unannotated: lock-wait timing reads it before
	// mu is acquired, so attach-before-share is the synchronization.
	met *Probe
}

// Emit times the lock acquisition itself: the probe read and the timer
// start must precede the Lock, which is exactly why met carries no
// guarded-by annotation.
func (r *Ring) Emit(v int) {
	t0 := r.met.start()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.met.observe(t0)
	r.emitLocked(v)
}

func (r *Ring) emitLocked(v int) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next%len(r.buf)] = v
	r.next++
}

// write is a transaction wrapper: it runs fn with the lock held.
func (s *Store) write(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn()
}

// Put touches guarded state inside the wrapper's callback, which runs
// under the lock write takes.
func (s *Store) Put(v int) error {
	return s.write(func() error {
		s.tab.Insert(v)
		s.seq++
		return nil
	})
}
