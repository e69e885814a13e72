package core

import (
	"fmt"
	"time"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/wal"
)

// Crash recovery: a store's durable state is a snapshot (checkpoint)
// plus the WAL records appended since. RecoverDir (checkpoint.go)
// rebuilds the store by loading the snapshot (or starting fresh) and
// replaying the log's verified prefix; a torn or corrupted tail is
// reported, not fatal, because the prefix before it is a consistent
// commit boundary.

// RecoverInfo summarizes a recovery.
type RecoverInfo struct {
	// Applied is the number of WAL records replayed.
	Applied int
	// ValidBytes is the verified WAL prefix length (see wal.ScanResult).
	ValidBytes int64
	// Truncated reports that a damaged tail was discarded.
	Truncated bool
	// TailErr describes the damage when Truncated is set.
	TailErr error
	// Segments is the number of retained WAL segments.
	Segments int
	// Retired is the number of segments below the snapshot's watermark
	// deleted at open — an interrupted checkpoint's retention, finished.
	Retired int
	// Snapshot is the snapshot file the recovery started from, "" when
	// it started from an empty store.
	Snapshot string
	// Restore, Scan and Replay say where a restart's time went: loading
	// the snapshot, reading and verifying the WAL, applying its records.
	Restore, Scan, Replay time.Duration
}

// Replay applies WAL records to the store in order. Records carry the
// IDs assigned before the crash, so sequences are advanced past them, and
// the applier every live mutation goes through too rebuilds the tables and
// their derived state. Replay does not re-log: attach a durability sink
// after recovery.
//
//repro:vet-ignore walcheck replay applies records already durable in the WAL; re-logging them would duplicate every record on the next recovery
func (s *Store) Replay(records []wal.Record) error {
	_, err := s.replayStream(0, func(apply wal.RecordFunc) (wal.ScanResult, error) {
		for i := range records {
			if err := apply(&records[i]); err != nil {
				return wal.ScanResult{}, err
			}
		}
		return wal.ScanResult{}, nil
	})
	return err
}

// replayStream runs scan — a WAL reader that hands every record to the
// apply function it is given, as it reads it — under one hold of the write
// lock, so a log is replayed without ever being held in memory (a record
// is only read during its apply call, wal.RecordFunc's contract), and
// summarizes the recovery; restore is the time the snapshot load before it
// took.
func (s *Store) replayStream(restore time.Duration, scan func(apply wal.RecordFunc) (wal.ScanResult, error)) (RecoverInfo, error) {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	res, err := scan(func(r *wal.Record) error {
		if err := s.applyLocked(r); err != nil {
			return fmt.Errorf("core: replaying WAL record %d (%s): %w", n, r.Type, err)
		}
		n++
		return nil
	})
	if err != nil {
		return RecoverInfo{}, err
	}
	s.met.onReplay(n, t0)
	s.met.setTriples(s.links.Len())
	return RecoverInfo{
		Applied:    n,
		ValidBytes: res.ValidBytes,
		Truncated:  res.Truncated,
		TailErr:    res.TailErr,
		Restore:    restore,
		Scan:       res.ScanTime,
		Replay:     time.Since(t0) - res.ScanTime,
	}, nil
}

// applyLocked applies one logical mutation record. It is the only code
// that writes rdf_model$, rdf_value$, rdf_link$ and rdf_blank_node$, and
// it keeps their derived state (rdf_node$, indexes, model views) in step:
// replay, snapshot loading (Load, through replayStream too) and every live
// mutation (emitLocked) come through here. Caller holds s.mu.
//
//repro:wal-applier
func (s *Store) applyLocked(r *wal.Record) error {
	switch r.Type {
	case wal.TypeCreateModel:
		if err := s.addModelLocked(r.ModelID, r.Name, r.TableName, r.ColumnName); err != nil {
			return err
		}
		s.modelSeq.AdvanceTo(r.ModelID + 1)
		return nil

	case wal.TypeDropModel:
		return s.dropModelLocked(r.ModelID, r.Name)

	case wal.TypeInternValue:
		if err := s.insertValueRowLocked(r.ValueID, termFromRecord(r)); err != nil {
			return err
		}
		s.valueSeq.AdvanceTo(r.ValueID + 1)
		return nil

	case wal.TypeInsertLink:
		reif := "N"
		if r.Reif {
			reif = "Y"
		}
		// One descent of the SMPO index both checks and inserts.
		rid, created, err := s.links.InsertOrGet(s.linkSMPO, reldb.Row{
			reldb.Int(r.LinkID), reldb.Int(r.StartID), reldb.Int(r.PropID),
			reldb.Int(r.EndID), reldb.Int(r.CanonID), reldb.String_(r.LinkType),
			reldb.Int(r.Cost), reldb.String_(r.Context), reldb.String_(reif),
			reldb.Int(r.ModelID),
		})
		if err != nil {
			return err
		}
		if !created {
			// Name the stored link in r for a live insert's COST bump.
			if err := s.links.Read(rid, func(c reldb.Cells) { r.LinkID = c.Int(lcLinkID) }); err != nil {
				return err
			}
			return errLinkStored
		}
		s.linkSeq.AdvanceTo(r.LinkID + 1)
		// Subjects and objects are NDM nodes, stored once (§4).
		if err := s.internNodeLocked(r.StartID); err != nil {
			return err
		}
		return s.internNodeLocked(r.EndID)

	case wal.TypeUpdateLink:
		rid, ok := s.linkPK.LookupInts(r.LinkID)
		if !ok {
			return fmt.Errorf("%w: LINK_ID %d", ErrNoSuchTriple, r.LinkID)
		}
		if err := s.links.UpdateColumn(rid, "COST", reldb.Int(r.Cost)); err != nil {
			return err
		}
		return s.links.UpdateColumn(rid, "CONTEXT", reldb.String_(r.Context))

	case wal.TypeDeleteLink:
		rid, ok := s.linkPK.LookupInts(r.LinkID)
		if !ok {
			return fmt.Errorf("%w: LINK_ID %d", ErrNoSuchTriple, r.LinkID)
		}
		row, err := s.links.Get(rid)
		if err != nil {
			return err
		}
		if err := s.links.Delete(rid); err != nil {
			return err
		}
		s.removeNodeIfOrphanLocked(row[lcStartNodeID].Int64())
		s.removeNodeIfOrphanLocked(row[lcEndNodeID].Int64())
		return nil

	case wal.TypeBlankNode:
		_, err := s.blanks.Insert(reldb.Row{
			reldb.Int(r.ModelID), reldb.String_(r.Name), reldb.Int(r.ValueID),
		})
		return err

	case wal.TypeSeqAdvance:
		switch r.Seq {
		case wal.SeqValue:
			s.valueSeq.AdvanceTo(r.SeqValue)
		case wal.SeqLink:
			s.linkSeq.AdvanceTo(r.SeqValue)
		case wal.SeqModel:
			s.modelSeq.AdvanceTo(r.SeqValue)
		case wal.SeqBlank:
			s.blankSeq.AdvanceTo(r.SeqValue)
		default:
			return fmt.Errorf("core: unknown sequence %d in WAL", r.Seq)
		}
		return nil

	default:
		// TypeSnapshotEnd too: it closes a snapshot (Load reads it) and
		// mutates nothing.
		return fmt.Errorf("core: WAL record type %d is not a mutation", r.Type)
	}
}

// errLinkStored refuses a TypeInsertLink whose triple is already stored,
// naming the stored link in the record's LinkID: an error on replay, a
// COST bump for a live insert (repeatLinkLocked).
var errLinkStored = fmt.Errorf("%w: the triple is already in rdf_link$", reldb.ErrUniqueViolation)

// termFromRecord rebuilds the interned term from a TypeInternValue
// record (the inverse of the record built in internValueLocked).
func termFromRecord(r *wal.Record) rdfterm.Term {
	switch r.ValueType {
	case rdfterm.VTUri:
		return rdfterm.NewURI(r.Text)
	case rdfterm.VTBlank:
		return rdfterm.NewBlank(r.Text)
	default:
		return rdfterm.Term{
			Kind:     rdfterm.Literal,
			Value:    r.Text,
			Datatype: r.LiteralType,
			Language: r.Language,
		}
	}
}
