// Package badapply names its WAL applier, then mutates guarded state
// outside it: inline in a mutator, and in a helper the applier shares
// with a mutator.
package badapply

import "sync"

type Table struct{ rows []int }

func (t *Table) Insert(v int) { t.rows = append(t.rows, v) }
func (t *Table) Delete(i int) {}

type Store struct {
	mu  sync.Mutex
	tab *Table //repro:guarded-by mu
	log []int
}

func (s *Store) logRecord(op int) error { s.log = append(s.log, op); return nil }
func (s *Store) logCommit() error       { return nil }

// applyLocked is the package's applier.
//
//repro:wal-applier
func (s *Store) applyLocked(op int) {
	s.tab.Insert(op)
	s.trimLocked(op)
}

func (s *Store) emitLocked(op int) error {
	s.applyLocked(op)
	return s.logRecord(op)
}

func (s *Store) write(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fn(); err != nil {
		return err
	}
	return s.logCommit()
}

// Insert goes through the applier.
func (s *Store) Insert(v int) error {
	return s.write(func() error { return s.emitLocked(v) })
}

// Bump logs a record but changes the table itself, so replay and the
// live path are two implementations of one change.
func (s *Store) Bump(v int) error { // want `Bump mutates guarded state \(s\.tab\.Insert\) outside the WAL applier`
	return s.write(func() error {
		if err := s.logRecord(v); err != nil {
			return err
		}
		s.tab.Insert(v)
		return nil
	})
}

// trimLocked is the applier's helper, but Trim calls it too.
func (s *Store) trimLocked(v int) { // want `trimLocked mutates guarded state \(s\.tab\.Delete\) outside the WAL applier`
	s.tab.Delete(v)
}

// Trim reaches the applier's helper without a record.
func (s *Store) Trim(v int) error {
	return s.write(func() error {
		if err := s.logRecord(-v); err != nil {
			return err
		}
		s.trimLocked(v)
		return nil
	})
}
