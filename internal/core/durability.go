package core

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// ErrDurability marks a mutation error caused by the durability sink
// (WAL append or commit failure) rather than by the mutation itself. At
// that point the in-memory store is ahead of the log: the mutation was
// not acknowledged, but its in-memory effects may persist and will be
// captured by the next checkpoint. From then on the store refuses every
// mutation with ErrDurability, before running it, until SetDurability
// attaches a log again. Supervisors match this sentinel with errors.Is
// to transition the store into degraded (read-only) mode.
var ErrDurability = errors.New("core: durability sink failed")

// Durability receives the store's logical mutations as WAL records. The
// paper's Oracle deployment gets redo logging from the engine; here the
// hook is pluggable so the pure in-memory configuration (d == nil) pays
// nothing. *wal.Dir is the implementation.
//
// Append is called under the store's write lock with each record the
// store has just applied (emitLocked) — any prefix of the record stream
// is a consistent store state. It may only buffer the record (*wal.Dir
// frames it in memory). Commit is called once per successful public
// mutation, at the store's one commit point (write), and should make the
// appended records durable: *wal.Dir writes the transaction's frames in
// one write and fsyncs, so a failed write or budget rejection surfaces
// at Commit, after the whole transaction was applied in memory. Records
// appended by a mutation that failed before its commit stay with the
// sink and reach the log with the next write (a Commit, a checkpoint's
// Rotate, Close).
type Durability interface {
	Append(r wal.Record) error
	Commit() error
}

// SetDurability attaches (or, with nil, detaches) a durability sink and
// lifts the refusal a failed commit left behind. Attach before sharing
// the store across goroutines; records are emitted only for mutations
// after the attach, so pair it with an empty log and a fresh/recovered
// store, or checkpoint first.
func (s *Store) SetDurability(d Durability) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dur = d
	s.durErr = nil
}

// write runs one public mutation as one transaction: it takes the write
// lock (timing the wait), runs fn, which changes the store only through
// emitLocked, refreshes the core_triples gauge and, if fn succeeded,
// seals fn's records at the store's one commit point. Once the sink has
// failed, write is fail-stop: it refuses every mutation before running
// it, so the in-memory state readers see stops moving with the log.
func (s *Store) write(fn func() error) error {
	t0 := s.met.startTimer()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.onWriteLockAcquired(t0)
	if s.durErr != nil {
		return fmt.Errorf("core: refusing writes after a failed commit: %w", s.durErr)
	}
	err := fn()
	s.met.setTriples(s.links.Len())
	if err == nil {
		err = s.logCommit()
	}
	if errors.Is(err, ErrDurability) {
		s.durErr = err
	}
	return err
}

// emitLocked applies one mutation record, then logs it: the only way a
// live mutation changes the central schema, so replay (applyLocked
// alone) rebuilds exactly what it built. Caller holds s.mu for writing.
func (s *Store) emitLocked(r *wal.Record) error {
	if err := s.applyLocked(r); err != nil {
		return err
	}
	return s.logRecord(*r)
}

// logRecord forwards one mutation record to the durability sink. Caller
// holds s.mu. An append failure is returned to the mutating caller: the
// in-memory state is ahead of the log at that point, and the process
// should treat the store as no longer durable.
func (s *Store) logRecord(r wal.Record) error {
	if s.dur == nil {
		return nil
	}
	if err := s.dur.Append(r); err != nil {
		return fmt.Errorf("%w: logging %s: %w", ErrDurability, r.Type, err)
	}
	return nil
}

// logCommit marks the end of a public mutation (the commit point). write
// is its only caller.
func (s *Store) logCommit() error {
	if s.dur == nil {
		return nil
	}
	if err := s.dur.Commit(); err != nil {
		return fmt.Errorf("%w: committing WAL: %w", ErrDurability, err)
	}
	return nil
}
