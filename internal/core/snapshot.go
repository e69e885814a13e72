package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/wal"
)

// Typed snapshot errors, so tools can distinguish "wrong format version"
// from "damaged file" and print actionable messages.
var (
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = errors.New("core: unsupported snapshot version")
	// ErrSnapshotCorrupt reports a snapshot that fails to decode or whose
	// decoded content cannot be rebuilt into a consistent store.
	ErrSnapshotCorrupt = errors.New("core: snapshot corrupt")
)

// Snapshot persistence: a snapshot is the central schema's logical
// content (catalog, values, links, blank-node mappings, sequence
// positions) written as the WAL records that would rebuild it, in
// internal/wal's segment format, and closed by one wal.TypeSnapshotEnd
// record carrying the WAL watermark. Load replays it through the loop
// and applier WAL recovery uses, rebuilding every index and the rdf_node$
// table, which are derived state. A snapshot is a point-in-time image
// taken under the store lock and is the WAL's checkpoint format: durable
// state = snapshot + the records appended since it was taken (see
// recover.go), and taking one lets the log be truncated.

// gobEra is bytes 4–14 of every snapshot the encoding/gob format wrote:
// the type definition of its top-level struct. Such files are refused
// with ErrSnapshotVersion rather than read by a second decoder.
const gobEra = "\x01\x01\x08snapshot"

// Save writes a snapshot of the whole store recording walSeq as its WAL
// watermark: the snapshot asserts it contains every mutation from
// segments below walSeq (0 when there is no WAL directory). It takes the
// read lock, so concurrent readers proceed while the rows are streamed
// out; no image of the store is built.
func (s *Store) Save(w io.Writer, walSeq int64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(wal.Magic)
	var frame []byte
	var err error
	// emit frames r and writes it out; after the first error it only
	// reports false, which stops the table scan in progress.
	emit := func(r *wal.Record) bool {
		if err != nil {
			return false
		}
		frame = wal.AppendFrame(frame[:0], r)
		// Never publish a frame Load would refuse (8: the frame header).
		if payload := len(frame) - 8; payload > wal.MaxRecordLen {
			err = fmt.Errorf("core: snapshot: a %s record of %d bytes exceeds wal.MaxRecordLen", r.Type, payload)
			return false
		}
		_, err = bw.Write(frame)
		return err == nil
	}
	s.models.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		rec := wal.Record{Type: wal.TypeCreateModel, ModelID: r[mcModelID].Int64(), Name: r[mcModelName].Str()}
		if !r[mcTableName].IsNull() {
			rec.TableName = r[mcTableName].Str()
		}
		if !r[mcColumnName].IsNull() {
			rec.ColumnName = r[mcColumnName].Str()
		}
		return emit(&rec)
	})
	// The strings alias the tables' arenas until the frame copies them.
	s.values.ScanCells(func(c reldb.Cells) bool {
		text := c.Str(vcValueName)
		if !c.IsNull(vcLongValue) {
			text = c.Str(vcLongValue)
		}
		return emit(&wal.Record{
			Type: wal.TypeInternValue, ValueID: c.Int(vcValueID), Text: text,
			ValueType: c.Str(vcValueType), LiteralType: c.Str(vcLiteralType), Language: c.Str(vcLanguageType),
		})
	})
	s.links.ScanCells(func(c reldb.Cells) bool {
		return emit(&wal.Record{
			Type: wal.TypeInsertLink, LinkID: c.Int(lcLinkID), ModelID: c.Int(lcModelID),
			StartID: c.Int(lcStartNodeID), PropID: c.Int(lcPValueID), EndID: c.Int(lcEndNodeID),
			CanonID: c.Int(lcCanonEndNodeID), LinkType: c.Str(lcLinkType), Cost: c.Int(lcCost),
			Context: c.Str(lcContext), Reif: c.Str(lcReifLink) == "Y",
		})
	})
	s.blanks.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		return emit(&wal.Record{Type: wal.TypeBlankNode, ModelID: r[0].Int64(), Name: r[1].Str(), ValueID: r[2].Int64()})
	})
	emit(&wal.Record{Type: wal.TypeSeqAdvance, Seq: wal.SeqValue, SeqValue: s.valueSeq.Current()})
	emit(&wal.Record{Type: wal.TypeSeqAdvance, Seq: wal.SeqLink, SeqValue: s.linkSeq.Current()})
	emit(&wal.Record{Type: wal.TypeSeqAdvance, Seq: wal.SeqModel, SeqValue: s.modelSeq.Current()})
	emit(&wal.Record{Type: wal.TypeSeqAdvance, Seq: wal.SeqBlank, SeqValue: s.blankSeq.Current()})
	if emit(&wal.Record{Type: wal.TypeSnapshotEnd, SeqValue: walSeq}) {
		err = bw.Flush()
	}
	return err
}

// Load reads a snapshot into a fresh store and returns it with the
// snapshot's WAL watermark. The records are replayed by the loop and the
// applier WAL recovery uses; any failure — a file that is not a
// snapshot, a damaged or cut frame, a missing end record or a record
// after it, a record loadCheck or the applier refuses — is
// ErrSnapshotCorrupt, except
// a snapshot of the retired gob format, which is ErrSnapshotVersion. On
// error no store is returned.
func Load(r io.Reader) (*Store, int64, error) {
	br := bufio.NewReaderSize(r, 16)
	if head, _ := br.Peek(4 + len(gobEra)); len(head) == 4+len(gobEra) && string(head[4:]) == gobEra {
		return nil, 0, fmt.Errorf("%w: an encoding/gob snapshot", ErrSnapshotVersion)
	}
	s := New()
	var walSeq int64
	check := loadCheck{linkTypes: map[int64]string{}}
	ended := false
	info, err := s.replayStream(0, func(apply wal.RecordFunc) (wal.ScanResult, error) {
		return wal.ScanFunc(br, func(rec *wal.Record) error {
			switch {
			case ended:
				return fmt.Errorf("a %s record after the end record", rec.Type)
			case rec.Type == wal.TypeSnapshotEnd:
				ended, walSeq = true, rec.SeqValue
				return nil
			}
			if err := check.checkLocked(s, rec); err != nil {
				return err
			}
			return apply(rec)
		})
	})
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	case info.Truncated:
		return nil, 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, info.TailErr)
	case !ended:
		return nil, 0, fmt.Errorf("%w: no end record after %d records", ErrSnapshotCorrupt, info.Applied)
	}
	return s, walSeq, nil
}

// loadCheck holds a snapshot's records to what Save writes, so a store
// Load returns passes CheckInvariants. Save writes only the record types
// below, every model and value ahead of the rows that name them, and only
// rows that met the invariants when they were stored; a record failing
// the check comes from frames forged, cut out of a snapshot or spliced
// into it from another, each of which still verifies. The per-link
// invariants 1, 3, 5 and 6 and the blank-mapping invariant 7 are checked
// here; the applier refuses a second (MODEL,S,P,CANON) or a second row
// for one term (4 and 8) and derives rdf_node$ (2).
type loadCheck struct {
	// linkTypes is each predicate's LINK_TYPE: predicates are few and
	// links many, so each is read from rdf_value$ once.
	linkTypes map[int64]string
	// linked, model and subject: a link has passed, and the last one's
	// MODEL_ID and START_NODE_ID.
	linked         bool
	model, subject int64
}

// checkLocked refuses r when a snapshot cannot hold it. Caller holds s.mu.
func (l *loadCheck) checkLocked(s *Store, r *wal.Record) error {
	switch r.Type {
	case wal.TypeCreateModel, wal.TypeInternValue, wal.TypeSeqAdvance:
	case wal.TypeInsertLink:
		// Links are stored subject by subject, so most share their model
		// and subject with the link before them, which passed; the
		// predicate is resolved once, for its LINK_TYPE; and the
		// canonical object is most often the object itself. None of
		// those is probed again.
		prev := l.linked
		if !(prev && r.ModelID == l.model) && !s.modelPK.ContainsInts(r.ModelID) {
			return fmt.Errorf("link %d names MODEL_ID %d, not in rdf_model$", r.LinkID, r.ModelID)
		}
		if !(prev && r.StartID == l.subject) && !s.valuePK.ContainsInts(r.StartID) || !s.valuePK.ContainsInts(r.EndID) ||
			r.CanonID != r.EndID && !s.valuePK.ContainsInts(r.CanonID) {
			return fmt.Errorf("link %d names a VALUE_ID not in rdf_value$ (S %d, O %d, canonical O %d)", r.LinkID, r.StartID, r.EndID, r.CanonID)
		}
		if r.Cost < 1 || r.Context != ContextDirect && r.Context != ContextIndirect {
			return fmt.Errorf("link %d has COST %d and CONTEXT %q", r.LinkID, r.Cost, r.Context)
		}
		want, ok := l.linkTypes[r.PropID]
		if !ok {
			prop, err := s.getValueLocked(r.PropID)
			if err != nil {
				return fmt.Errorf("link %d names VALUE_ID %d, not in rdf_value$: %v", r.LinkID, r.PropID, err)
			}
			want = rdfterm.LinkType(prop.Value)
			l.linkTypes[r.PropID] = want
		}
		if r.LinkType != want {
			return fmt.Errorf("link %d has LINK_TYPE %q, its predicate implies %q", r.LinkID, r.LinkType, want)
		}
		l.linked, l.model, l.subject = true, r.ModelID, r.StartID
	case wal.TypeBlankNode:
		if t, err := s.getValueLocked(r.ValueID); err != nil || t.Kind != rdfterm.Blank {
			return fmt.Errorf("blank mapping %q names VALUE_ID %d, not a blank node in rdf_value$", r.Name, r.ValueID)
		}
	default:
		return fmt.Errorf("a %s record, which no snapshot holds", r.Type)
	}
	return nil
}
