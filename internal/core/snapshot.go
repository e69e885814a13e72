package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/reldb"
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

// Snapshot persistence: Save serializes the central schema's logical
// content (catalog, values, links, blank-node mappings, sequence
// positions) with encoding/gob; Load rebuilds a store — including all
// indexes and the rdf_node$ table, which are derived state — from a
// snapshot. This gives the otherwise memory-resident engine a
// stop/restart story for the CLI tools. It is not a WAL — a snapshot is
// a point-in-time image taken under the store lock — but it is the WAL's
// checkpoint format: durable state = snapshot + the internal/wal records
// appended since the snapshot was taken (see recover.go), and taking a
// snapshot lets the log be truncated.

// snapshotVersion guards format evolution.
const snapshotVersion = 1

type snapshot struct {
	Version int
	Models  []snapModel
	Values  []snapValue
	Links   []snapLink
	Blanks  []snapBlank
	// Next sequence values.
	ValueSeq, LinkSeq, ModelSeq, BlankSeq int64
	// WALSeq is the segmented-WAL watermark: the snapshot contains every
	// mutation from segments numbered below it, so recovery replays only
	// segments >= WALSeq and may delete the rest. 0 (the value decoded
	// from snapshots written before the field existed — gob tolerates the
	// addition, so no version bump) means "replay everything".
	WALSeq int64
}

type snapModel struct {
	ID                int64
	Name              string
	TableName, Column string
}

type snapValue struct {
	ID          int64
	Name        string
	Type        string
	LiteralType string
	Language    string
	LongValue   string
	HasLong     bool
}

type snapLink struct {
	ID, Start, P, End, Canon int64
	LinkType                 string
	Cost                     int64
	Context                  string
	Reif                     bool
	Model                    int64
}

type snapBlank struct {
	Model    int64
	OrigName string
	ValueID  int64
}

// Save writes a snapshot of the whole store. It takes the read lock, so
// concurrent readers proceed while the checkpoint image is taken.
func (s *Store) Save(w io.Writer) error {
	return s.SaveAt(w, 0)
}

// SaveAt is Save recording walSeq as the segmented-WAL watermark: the
// snapshot asserts it contains every mutation from segments below
// walSeq. Single-file checkpoints pass 0.
func (s *Store) SaveAt(w io.Writer, walSeq int64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := snapshot{
		Version:  snapshotVersion,
		WALSeq:   walSeq,
		ValueSeq: s.valueSeq.Current(),
		LinkSeq:  s.linkSeq.Current(),
		ModelSeq: s.modelSeq.Current(),
		BlankSeq: s.blankSeq.Current(),
	}
	s.models.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		m := snapModel{ID: r[mcModelID].Int64(), Name: r[mcModelName].Str()}
		if !r[mcTableName].IsNull() {
			m.TableName = r[mcTableName].Str()
		}
		if !r[mcColumnName].IsNull() {
			m.Column = r[mcColumnName].Str()
		}
		snap.Models = append(snap.Models, m)
		return true
	})
	// The strings alias the tables' arenas: the image costs the encoder's
	// buffer, not a second copy of the text.
	snap.Values = make([]snapValue, 0, s.values.Len())
	s.values.ScanCells(func(c reldb.Cells) bool {
		snap.Values = append(snap.Values, snapValue{
			ID:          c.Int(vcValueID),
			Name:        c.Str(vcValueName),
			Type:        c.Str(vcValueType),
			LiteralType: c.Str(vcLiteralType),
			Language:    c.Str(vcLanguageType),
			LongValue:   c.Str(vcLongValue),
			HasLong:     !c.IsNull(vcLongValue),
		})
		return true
	})
	snap.Links = make([]snapLink, 0, s.links.Len())
	s.links.ScanCells(func(c reldb.Cells) bool {
		snap.Links = append(snap.Links, snapLink{
			ID:       c.Int(lcLinkID),
			Start:    c.Int(lcStartNodeID),
			P:        c.Int(lcPValueID),
			End:      c.Int(lcEndNodeID),
			Canon:    c.Int(lcCanonEndNodeID),
			LinkType: c.Str(lcLinkType),
			Cost:     c.Int(lcCost),
			Context:  c.Str(lcContext),
			Reif:     c.Str(lcReifLink) == "Y",
			Model:    c.Int(lcModelID),
		})
		return true
	})
	s.blanks.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		snap.Blanks = append(snap.Blanks, snapBlank{
			Model:    r[0].Int64(),
			OrigName: r[1].Str(),
			ValueID:  r[2].Int64(),
		})
		return true
	})
	return gob.NewEncoder(w).Encode(snap)
}

// Load reads a snapshot into a fresh store. Model views and all indexes
// are rebuilt; rdf_node$ is re-derived from the live links.
func Load(r io.Reader) (*Store, error) {
	s, _, err := LoadAt(r)
	return s, err
}

// LoadAt is Load returning also the snapshot's segmented-WAL watermark
// (0 for single-file snapshots and snapshots predating the field).
func LoadAt(r io.Reader) (*Store, int64, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, 0, fmt.Errorf("%w: reading stream: %v", ErrSnapshotCorrupt, err)
	}
	if snap.Version != snapshotVersion {
		return nil, 0, fmt.Errorf("%w: got version %d, want %d", ErrSnapshotVersion, snap.Version, snapshotVersion)
	}
	s := New()
	s.mu.Lock()
	defer s.mu.Unlock()

	// Rebuild errors below mean the decoded content violates the schema
	// (duplicate IDs, bad rows): the stream decoded but is not a valid
	// snapshot, so classify as corruption.
	corrupt := func(section string, err error) error {
		return fmt.Errorf("%w: rebuilding %s: %v", ErrSnapshotCorrupt, section, err)
	}
	for _, m := range snap.Models {
		tn, cn := reldb.Null(), reldb.Null()
		if m.TableName != "" {
			tn = reldb.String_(m.TableName)
		}
		if m.Column != "" {
			cn = reldb.String_(m.Column)
		}
		if _, err := s.models.Insert(reldb.Row{reldb.Int(m.ID), reldb.String_(m.Name), tn, cn}); err != nil {
			return nil, 0, corrupt("rdf_model$", err)
		}
		mid := m.ID
		if _, err := s.db.CreateView("rdfm_"+strings.ToLower(m.Name), s.links, func(row reldb.Row) bool {
			return row[lcModelID].Int64() == mid
		}); err != nil {
			return nil, 0, corrupt("model views", err)
		}
	}
	for _, v := range snap.Values {
		lit, lang, long := reldb.Null(), reldb.Null(), reldb.Null()
		if v.LiteralType != "" {
			lit = reldb.String_(v.LiteralType)
		}
		if v.Language != "" {
			lang = reldb.String_(v.Language)
		}
		if v.HasLong {
			long = reldb.String_(v.LongValue)
		}
		row := reldb.Row{reldb.Int(v.ID), reldb.String_(v.Name), reldb.String_(v.Type), lit, lang, long}
		if err := s.addValueRowLocked(row); err != nil {
			return nil, 0, corrupt("rdf_value$", err)
		}
	}
	for _, l := range snap.Links {
		reif := "N"
		if l.Reif {
			reif = "Y"
		}
		row := reldb.Row{
			reldb.Int(l.ID), reldb.Int(l.Start), reldb.Int(l.P), reldb.Int(l.End),
			reldb.Int(l.Canon), reldb.String_(l.LinkType), reldb.Int(l.Cost),
			reldb.String_(l.Context), reldb.String_(reif), reldb.Int(l.Model),
		}
		if _, err := s.links.Insert(row); err != nil {
			return nil, 0, corrupt("rdf_link$", err)
		}
		if err := s.internNodeLocked(l.Start); err != nil {
			return nil, 0, corrupt("rdf_node$", err)
		}
		if err := s.internNodeLocked(l.End); err != nil {
			return nil, 0, corrupt("rdf_node$", err)
		}
	}
	for _, b := range snap.Blanks {
		if _, err := s.blanks.Insert(reldb.Row{reldb.Int(b.Model), reldb.String_(b.OrigName), reldb.Int(b.ValueID)}); err != nil {
			return nil, 0, corrupt("rdf_blank_node$", err)
		}
	}
	// Restore sequence positions (New() starts them at the paper's bases;
	// advance to the snapshot's positions).
	s.valueSeq.AdvanceTo(snap.ValueSeq)
	s.linkSeq.AdvanceTo(snap.LinkSeq)
	s.modelSeq.AdvanceTo(snap.ModelSeq)
	s.blankSeq.AdvanceTo(snap.BlankSeq)
	return s, snap.WALSeq, nil
}
