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
// captured by the next checkpoint. Supervisors match this sentinel with
// errors.Is to transition the store into degraded (read-only) mode.
var ErrDurability = errors.New("core: durability sink failed")

// Durability receives the store's logical mutations as WAL records. The
// paper's Oracle deployment gets redo logging from the engine; here the
// hook is pluggable so the pure in-memory configuration (d == nil) pays
// nothing. *wal.Dir (or a wal.GroupLog over one) is the implementation.
//
// Append is called under the store's write lock, once per logical
// mutation, in commit order — any prefix of the record stream is a
// consistent store state. Commit is called at the end of each successful
// public mutation and should make the appended records durable (fsync).
type Durability interface {
	Append(r wal.Record) error
	Commit() error
}

// SetDurability attaches (or, with nil, detaches) a durability sink.
// Attach before sharing the store across goroutines; records are emitted
// only for mutations after the attach, so pair it with an empty log and a
// fresh/recovered store, or checkpoint first.
func (s *Store) SetDurability(d Durability) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dur = d
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

// logCommit marks the end of a public mutation (the commit point).
func (s *Store) logCommit() error {
	if s.dur == nil {
		return nil
	}
	if err := s.dur.Commit(); err != nil {
		return fmt.Errorf("%w: committing WAL: %w", ErrDurability, err)
	}
	return nil
}

// valueRecord builds the TypeInternValue record for a term assigned vid.
func valueRecord(vid int64, text, valueType, literalType, language string) wal.Record {
	return wal.Record{
		Type:        wal.TypeInternValue,
		ValueID:     vid,
		Text:        text,
		ValueType:   valueType,
		LiteralType: literalType,
		Language:    language,
	}
}
