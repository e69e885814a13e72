// Package badwal holds one violation of each walcheck rule.
package badwal

import "sync"

type Table struct{ rows []int }

func (t *Table) Insert(v int) { t.rows = append(t.rows, v) }
func (t *Table) Delete(i int) {}
func (t *Table) Len() int     { return len(t.rows) }

func (t *Table) InsertOrGet(v int) bool { t.Insert(v); return true }

type Store struct {
	mu  sync.Mutex
	tab *Table //repro:guarded-by mu
	wal []string
}

func (s *Store) logRecord(op string) error { s.wal = append(s.wal, op); return nil }
func (s *Store) logCommit() error          { s.wal = append(s.wal, "commit"); return nil }

// Insert mutates the guarded table and never touches the WAL.
func (s *Store) Insert(v int) { // want `exported Insert mutates guarded state \(s\.tab\.Insert\) but never calls logRecord`
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab.Insert(v)
}

// Remove writes the record but never seals the transaction.
func (s *Store) Remove(i int) error { // want `exported Remove mutates guarded state \(s\.tab\.Delete\) without a logCommit on any path`
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.logRecord("remove"); err != nil {
		return err
	}
	s.tab.Delete(i)
	return nil
}

// Merge hides the unlogged mutation behind an intra-package helper.
func (s *Store) Merge(v int) { // want `exported Merge mutates guarded state \(s\.tab\.Insert\) but never calls logRecord`
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked(v)
}

func (s *Store) mergeLocked(v int) { s.tab.Insert(v) }

// Reset logs both sides but throws the logRecord error away twice.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logRecord("reset")           // want `result of logRecord is discarded`
	_ = s.logRecord("reset-again") // want `result of logRecord is discarded`
	s.tab.Delete(0)
	return s.logCommit() // want `logCommit has 2 call sites in package badwal; seal every mutation at one commit point`
}

// Upsert hides its mutation in InsertOrGet, which changes the table as
// surely as Insert does, and never touches the WAL.
func (s *Store) Upsert(v int) bool { // want `exported Upsert mutates guarded state \(s\.tab\.InsertOrGet\) but never calls logRecord`
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.InsertOrGet(v)
}

// Sync seals the WAL at a second commit point beside Reset's.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logCommit() // want `logCommit has 2 call sites in package badwal; seal every mutation at one commit point`
}
