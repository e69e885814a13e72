// Package goodapply names its WAL applier and keeps every guarded-table
// mutation behind it: live mutations build records and hand them to the
// applier, and replay and a snapshot loader run their records through it.
package goodapply

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

// applyLocked is the only code that changes tab.
//
//repro:wal-applier
func (s *Store) applyLocked(op int) {
	if op < 0 {
		s.tab.Delete(-op)
		return
	}
	s.insertRowLocked(op)
}

// insertRowLocked is reachable only from the applier.
func (s *Store) insertRowLocked(v int) { s.tab.Insert(v) }

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

// Insert decides and emits; the applier mutates.
func (s *Store) Insert(v int) error {
	return s.write(func() error { return s.emitLocked(v) })
}

// Remove is a second mutator through the same commit point.
func (s *Store) Remove(i int) error {
	return s.write(func() error { return s.emitLocked(-i) })
}

// Replay runs logged records through the applier without re-logging.
//
//repro:vet-ignore walcheck replay applies records already present in the WAL; re-logging would duplicate them on the next recovery
func (s *Store) Replay(ops []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		s.applyLocked(op)
	}
}

// Load builds a fresh store from a snapshot's rows, as the records that
// made them.
func Load(rows []int) *Store {
	s := &Store{tab: &Table{}}
	for _, v := range rows {
		s.applyLocked(v)
	}
	return s
}
