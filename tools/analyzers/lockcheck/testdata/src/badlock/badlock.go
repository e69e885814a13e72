// Package badlock holds one violation of each lockcheck rule; the
// // want comments are the analyzer's expected findings.
package badlock

import "sync"

type Table struct{ n int }

func (t *Table) Insert(v int) { t.n++ }
func (t *Table) Len() int     { return t.n }

type Store struct {
	mu  sync.RWMutex
	tab *Table //repro:guarded-by mu
	seq int64  //repro:guarded-by mu
}

// Exported method reading guarded state with no lock at all.
func (s *Store) Count() int {
	return s.tab.Len() // want `exported Count accesses guarded field s\.tab without holding s\.mu`
}

// Unexported helper doing the same should either lock or rename.
func (s *Store) bump() {
	s.seq++ // want `unexported bump accesses guarded field s\.seq without acquiring s\.mu`
}

// A *Locked helper must not acquire the lock it documents as held.
func (s *Store) addLocked(v int) {
	s.mu.Lock() // want `addLocked Locks s\.mu, but \*Locked helpers run with the lock already held`
	s.tab.Insert(v)
	s.mu.Unlock() // want `addLocked Unlocks s\.mu, but \*Locked helpers run with the lock already held`
}

// ...nor call a public method that acquires it.
func (s *Store) refreshLocked() {
	s.Reload() // want `refreshLocked calls Reload, which acquires the lock the \*Locked contract says is already held`
}

func (s *Store) Reload() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab.Insert(0)
}

func (s *Store) insertLocked(v int) { s.tab.Insert(v) }

// Calling a *Locked helper requires the lock at the call site.
func (s *Store) Add(v int) {
	s.insertLocked(v) // want `Add calls insertLocked without holding s\.mu`
}

// Calling a locking method while already holding the lock self-deadlocks.
func (s *Store) Reindex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Reload() // want `Reindex calls Reload while holding s\.mu`
}

// The early return leaks the write lock.
func (s *Store) Risky(v int) bool {
	s.mu.Lock()
	if v < 0 {
		return false // want `Risky returns while holding s\.mu with no deferred unlock`
	}
	s.tab.Insert(v)
	s.mu.Unlock()
	return true
}

// RWMutex is not reentrant; a second Lock blocks forever.
func (s *Store) Twice() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want `Twice Locks s\.mu twice; RWMutex is not reentrant`
}

// A deferred acquire runs at return, after the work it meant to guard.
func (s *Store) DeferAcquire() {
	defer s.mu.Lock() // want `DeferAcquire defers a Lock of s\.mu; deferred acquires run at return and deadlock`
}

// A goroutine outlives the spawner's critical section, so the lock held
// at the go statement does not cover the closure body.
func (s *Store) Async() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.tab.Insert(1) // want `exported Async accesses guarded field s\.tab without holding s\.mu`
	}()
}

// write is a transaction wrapper: it runs fn with the lock held.
func (s *Store) write(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Nested calls a locking method inside the wrapper's callback.
func (s *Store) Nested() {
	s.write(func() {
		s.Reload() // want `Nested calls Reload while holding s\.mu`
	})
}

// early runs fn before it takes the lock, so fn gets no lock from it.
func (s *Store) early(fn func()) {
	fn()
	s.mu.Lock()
	defer s.mu.Unlock()
}

// Early relies on a lock early does not hold while fn runs.
func (s *Store) Early() {
	s.early(func() {
		s.seq++ // want `exported Early accesses guarded field s\.seq without holding s\.mu`
	})
}
