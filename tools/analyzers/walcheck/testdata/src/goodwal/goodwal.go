// Package goodwal exercises the durable-mutation shapes walcheck must
// accept: record and mutation inside a transaction wrapper that seals
// them at the one commit point, logging delegated to a helper, read-only
// exported methods, and a justified replay exemption.
package goodwal

import "sync"

type Table struct{ rows []int }

func (t *Table) Insert(v int) { t.rows = append(t.rows, v) }
func (t *Table) Delete(i int) {}
func (t *Table) Len() int     { return len(t.rows) }

type Store struct {
	mu  sync.Mutex
	tab *Table //repro:guarded-by mu
	wal []string
}

func (s *Store) logRecord(op string) error { s.wal = append(s.wal, op); return nil }
func (s *Store) logCommit() error          { s.wal = append(s.wal, "commit"); return nil }

// write runs fn under the lock and seals what it logged: the package's
// one commit point.
func (s *Store) write(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fn(); err != nil {
		return err
	}
	return s.logCommit()
}

// Insert follows the contract inside the wrapper: record, mutate, and
// the wrapper commits.
func (s *Store) Insert(v int) error {
	return s.write(func() error {
		if err := s.logRecord("insert"); err != nil {
			return err
		}
		s.tab.Insert(v)
		return nil
	})
}

// Remove delegates the mutation and the logging to a helper; the
// transitive walk must find them there, and the commit in write.
func (s *Store) Remove(i int) error {
	return s.write(func() error { return s.removeLocked(i) })
}

func (s *Store) removeLocked(i int) error {
	if err := s.logRecord("remove"); err != nil {
		return err
	}
	s.tab.Delete(i)
	return nil
}

// Len reads guarded state without mutating; no WAL obligation.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Len()
}

// Replay re-applies operations that are already durable in the WAL;
// logging them again would duplicate every record on the next recovery.
//
//repro:vet-ignore walcheck replay applies records already present in the WAL; re-logging would duplicate them on the next recovery
func (s *Store) Replay(ops []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range ops {
		s.tab.Insert(v)
	}
}
