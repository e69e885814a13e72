package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdfterm"
	"repro/internal/wal"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := newStoreWithModel(t, "cia", "dhs")
	a := govAliases()
	base, _ := s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a) // COST=2
	s.NewTripleS("dhs", "_:b1", "gov:p", `"25"^^xsd:int`, a)
	long := strings.Repeat("L", rdfterm.LongLiteralThreshold+10)
	s.InsertTerms("cia", rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), rdfterm.NewLiteral(long))
	s.AssertAboutTriple("cia", "gov:MI5", "gov:source", base.TID, a)
	s.AssertImplied("cia", "gov:Interpol", "gov:source", "gov:a", "gov:b2", "gov:c", a)

	var buf bytes.Buffer
	if err := s.Save(&buf, 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same counts.
	for _, m := range []string{"cia", "dhs"} {
		n1, _ := s.NumTriples(m)
		n2, _ := loaded.NumTriples(m)
		if n1 != n2 {
			t.Fatalf("model %s: %d != %d triples after reload", m, n1, n2)
		}
	}
	if s.NumValues() != loaded.NumValues() {
		t.Fatalf("values %d != %d", s.NumValues(), loaded.NumValues())
	}
	if s.NumNodes() != loaded.NumNodes() {
		t.Fatalf("nodes %d != %d", s.NumNodes(), loaded.NumNodes())
	}
	// Same IDs: the reloaded store resolves the original TripleS.
	re := loaded.ReconstructTripleS(base.TID, base.MID, base.SID, base.PID, base.OID)
	sub, err := re.GetSubject()
	if err != nil || sub != "http://www.us.gov#files" {
		t.Fatalf("reloaded GetSubject = %q, %v", sub, err)
	}
	// COST, CONTEXT, reification survive.
	info, err := loaded.LinkInfo(base.TID)
	if err != nil || info.Cost != 2 {
		t.Fatalf("reloaded COST = %d, %v", info.Cost, err)
	}
	if ok, _ := loaded.IsReifiedByID("cia", base.TID); !ok {
		t.Fatal("reification lost in snapshot")
	}
	implied, okT, _ := loaded.IsTriple("cia", "gov:a", "gov:b2", "gov:c", a)
	if !okT {
		t.Fatal("implied triple lost")
	}
	info, _ = loaded.LinkInfo(implied.TID)
	if info.Context != ContextIndirect {
		t.Fatalf("implied CONTEXT = %s", info.Context)
	}
	// Blank mappings survive: reusing _:b1 in dhs maps to the same node.
	before, _, _ := s.IsTriple("dhs", "_:b1", "gov:p", `"25"^^xsd:int`, a)
	after, okB, _ := loaded.IsTriple("dhs", "_:b1", "gov:p", `"25"^^xsd:int`, a)
	if !okB || after.SID != before.SID {
		t.Fatalf("blank mapping lost: %v vs %v", after, before)
	}
	// Long literal text survives.
	if _, ok, _ := loaded.IsTripleTerms("cia",
		rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), rdfterm.NewLiteral(long)); !ok {
		t.Fatal("long literal lost")
	}
	// Model views were rebuilt.
	v, err := loaded.ModelView("cia")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := loaded.NumTriples("cia")
	if v.Len() != want {
		t.Fatalf("view rows = %d, want %d", v.Len(), want)
	}
	// Sequences continue past snapshot values: a new insert gets fresh IDs.
	ts, err := loaded.NewTripleS("cia", "gov:new", "gov:p", "gov:o", a)
	if err != nil {
		t.Fatal(err)
	}
	if ts.TID <= base.TID {
		t.Fatalf("new LINK_ID %d not past snapshot max", ts.TID)
	}
	// Invariants hold on the reloaded store.
	for _, err := range loaded.CheckInvariants() {
		t.Error(err)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := New()
	var buf bytes.Buffer
	if err := s.Save(&buf, 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalTriples() != 0 || loaded.NumValues() != 0 {
		t.Fatal("empty store reloaded non-empty")
	}
	// Fresh model IDs continue from the paper's base.
	id, err := loaded.CreateRDFModel("m", "", "")
	if err != nil || id != 7 {
		t.Fatalf("first model ID after reload = %d, %v", id, err)
	}
}

func TestLoadGarbage(t *testing.T) {
	_, _, err := Load(strings.NewReader("not a gob stream"))
	if err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage error %v is not ErrSnapshotCorrupt", err)
	}
}

// frameStream is a snapshot image holding exactly recs.
func frameStream(recs ...wal.Record) []byte {
	img := []byte(wal.Magic)
	for i := range recs {
		img = wal.AppendFrame(img, &recs[i])
	}
	return img
}

// TestLoadTypedErrors pins the sentinel classification: callers (the CLI
// tools in particular) branch on errors.Is to print actionable messages.
func TestLoadTypedErrors(t *testing.T) {
	end := wal.Record{Type: wal.TypeSnapshotEnd}
	t.Run("version mismatch", func(t *testing.T) {
		// A snapshot of the retired encoding/gob format (testdata/gob-era).
		_, _, err := LoadFile(filepath.Join("testdata", "gob-era", "store.snap"))
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("gob-era error %v is not ErrSnapshotVersion", err)
		}
		if errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("version mismatch misclassified as corruption: %v", err)
		}
	})
	t.Run("truncated stream", func(t *testing.T) {
		s := newStoreWithModel(t, "m")
		if _, err := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", govAliases()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf, 0); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncated-stream error %v is not ErrSnapshotCorrupt", err)
		}
	})
	t.Run("inconsistent content", func(t *testing.T) {
		// Decodes fine but cannot be rebuilt: duplicate model IDs.
		_, _, err := Load(bytes.NewReader(frameStream(
			wal.Record{Type: wal.TypeCreateModel, ModelID: 7, Name: "a"},
			wal.Record{Type: wal.TypeCreateModel, ModelID: 7, Name: "b"},
			end,
		)))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("duplicate-ID error %v is not ErrSnapshotCorrupt", err)
		}
	})
	t.Run("one term, two value rows", func(t *testing.T) {
		// Distinct VALUE_IDs, so rdf_value_pk accepts both: only the term
		// dictionary can refuse the second.
		_, _, err := Load(bytes.NewReader(frameStream(
			wal.Record{Type: wal.TypeInternValue, ValueID: 1068, Text: "http://a", ValueType: rdfterm.VTUri},
			wal.Record{Type: wal.TypeInternValue, ValueID: 1069, Text: "http://a", ValueType: rdfterm.VTUri},
			end,
		)))
		if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "already in rdf_value$") {
			t.Fatalf("duplicate-term error %v is not ErrSnapshotCorrupt naming the term", err)
		}
	})
}

// TestLoadRefusesIncompleteOrDamaged cuts a small snapshot at every byte
// offset (every frame boundary among them) and flips every bit of its
// first and last frames: each image must be ErrSnapshotCorrupt and give
// no store. Records the end record does not close, or that follow it,
// and frames whose rows name what no earlier frame delivered, likewise.
func TestLoadRefusesIncompleteOrDamaged(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	if _, err := s.NewTripleS("m", "_:b1", "gov:p", `"25"^^xsd:int`, a); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf, 3); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	refused := func(t *testing.T, what string, bad []byte) {
		t.Helper()
		st, _, err := Load(bytes.NewReader(bad))
		if !errors.Is(err, ErrSnapshotCorrupt) || st != nil {
			t.Fatalf("%s: store %v, error %v; want no store and ErrSnapshotCorrupt", what, st != nil, err)
		}
	}
	if st, walSeq, err := Load(bytes.NewReader(img)); err != nil || st == nil || walSeq != 3 {
		t.Fatalf("intact image: store %v, watermark %d, %v", st != nil, walSeq, err)
	}
	for cut := 0; cut < len(img); cut++ {
		refused(t, fmt.Sprintf("cut at %d of %d", cut, len(img)), img[:cut])
	}
	// Frame boundaries, read from the length prefixes.
	bounds := []int{len(wal.Magic)}
	for off := bounds[0]; off < len(img); {
		off += 8 + int(binary.LittleEndian.Uint32(img[off:]))
		bounds = append(bounds, off)
	}
	if n := len(bounds); bounds[n-1] != len(img) || n < 4 {
		t.Fatalf("frame boundaries %v do not end the %d-byte image", bounds, len(img))
	}
	last := len(bounds) - 2
	for _, frame := range [][2]int{{bounds[0], bounds[1]}, {bounds[last], bounds[last+1]}} {
		for bit := frame[0] * 8; bit < frame[1]*8; bit++ {
			bad := bytes.Clone(img)
			bad[bit/8] ^= 1 << (bit % 8)
			refused(t, fmt.Sprintf("bit %d flipped", bit), bad)
		}
	}
	end := wal.Record{Type: wal.TypeSnapshotEnd}
	refused(t, "record after the end record", append(bytes.Clone(img),
		wal.AppendFrame(nil, &wal.Record{Type: wal.TypeCreateModel, ModelID: 8, Name: "late"})...))
	refused(t, "two end records", append(bytes.Clone(img), wal.AppendFrame(nil, &end)...))
	refused(t, "a WAL segment's mutations without an end record",
		frameStream(wal.Record{Type: wal.TypeCreateModel, ModelID: 7, Name: "m"}))
	model := wal.Record{Type: wal.TypeCreateModel, ModelID: 7, Name: "m"}
	uri := func(id int64) wal.Record {
		return wal.Record{Type: wal.TypeInternValue, ValueID: id, Text: fmt.Sprint("http://v", id), ValueType: rdfterm.VTUri}
	}
	link := func(o int64) wal.Record {
		return wal.Record{Type: wal.TypeInsertLink, LinkID: 1, ModelID: 7, StartID: 1, PropID: 2, EndID: o, CanonID: o,
			LinkType: "STANDARD", Cost: 1, Context: ContextDirect}
	}
	refused(t, "a link before its values", frameStream(model, link(3), uri(1), uri(2), uri(3), end))
	refused(t, "a link past the values", frameStream(model, uri(1), uri(2), link(3), end))
	refused(t, "a link into a gap in the values", frameStream(model, uri(1), uri(2), uri(4), link(3), end))
	if _, _, err := Load(bytes.NewReader(frameStream(model, uri(1), uri(2), uri(4), link(4), end))); err != nil {
		t.Fatalf("a link across a gap in the values: %v", err)
	}
	second := link(1)
	second.LinkID, second.StartID = 2, 9
	refused(t, "a second link from a missing subject", frameStream(model, uri(1), uri(2), link(2), second, end))
	second.StartID, second.ModelID = 1, 8
	refused(t, "a second link in a missing model", frameStream(model, uri(1), uri(2), link(2), second, end))
	// Rows each frame of which verifies, but which no store writes.
	for what, edit := range map[string]func(*wal.Record){
		"COST 0":              func(r *wal.Record) { r.Cost = 0 },
		"CONTEXT X":           func(r *wal.Record) { r.Context = "X" },
		"the wrong LINK_TYPE": func(r *wal.Record) { r.LinkType = "RDF_TYPE" },
	} {
		bad := link(2)
		edit(&bad)
		refused(t, "a link with "+what, frameStream(model, uri(1), uri(2), bad, end))
	}
	for _, typ := range []wal.Type{wal.TypeUpdateLink, wal.TypeDeleteLink, wal.TypeDropModel} {
		refused(t, fmt.Sprintf("a %s record", typ), frameStream(model, uri(1), uri(2), link(2),
			wal.Record{Type: typ, LinkID: 1, ModelID: 7, Name: "m", Cost: 0, Context: "X"}, end))
	}
	refused(t, "a blank mapping onto a URI", frameStream(model, uri(1),
		wal.Record{Type: wal.TypeBlankNode, ModelID: 7, Name: "b1", ValueID: 1}, end))
}

// TestSaveRefusesOversizedRecord: a value whose record would exceed the
// WAL's frame limit fails the save instead of publishing a snapshot that
// Load would refuse as damaged.
func TestSaveRefusesOversizedRecord(t *testing.T) {
	s := newStoreWithModel(t, "m")
	huge := rdfterm.NewLiteral(strings.Repeat("x", wal.MaxRecordLen))
	if _, err := s.InsertTerms("m", rdfterm.NewURI("http://s"), rdfterm.NewURI("http://p"), huge); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(io.Discard, 0); err == nil || !strings.Contains(err.Error(), "MaxRecordLen") {
		t.Fatalf("Save of a %d-byte literal: %v, want the record limit named", wal.MaxRecordLen, err)
	}
}

// FuzzLoadSnapshot holds Load to its contract on arbitrary bytes: a store
// that passes CheckInvariants from an image whose last record is the end
// record, or ErrSnapshotCorrupt / ErrSnapshotVersion and no store — never
// a panic.
func FuzzLoadSnapshot(f *testing.F) {
	s := New()
	a := govAliases()
	for _, m := range []string{"m", "n"} {
		if _, err := s.CreateRDFModel(m, "", ""); err != nil {
			f.Fatal(err)
		}
	}
	base, err := s.NewTripleS("m", "gov:a", "gov:p", "gov:b", a)
	if err != nil {
		f.Fatal(err)
	}
	s.NewTripleS("n", "_:b1", "gov:q", `"chat"@fr`, a)
	s.AssertAboutTriple("m", "gov:MI5", "gov:source", base.TID, a)
	var buf bytes.Buffer
	if err := s.Save(&buf, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	gobEra, err := os.ReadFile(filepath.Join("testdata", "gob-era", "store.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gobEra[:32])
	f.Add([]byte(wal.Magic + "\x05\x00\x00\x00garbage garbage"))
	f.Add([]byte("not a snapshot at all"))
	f.Fuzz(func(t *testing.T, img []byte) {
		st, _, err := Load(bytes.NewReader(img))
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped error %v", err)
			}
			if st != nil {
				t.Fatalf("a store returned with %v", err)
			}
			return
		}
		var lastType wal.Type
		if _, err := wal.ScanFunc(bytes.NewReader(img), func(r *wal.Record) error {
			lastType = r.Type
			return nil
		}); err != nil || lastType != wal.TypeSnapshotEnd {
			t.Fatalf("loaded an image whose last record is %v (%v)", lastType, err)
		}
		for _, err := range st.CheckInvariants() {
			t.Error(err)
		}
	})
}

// Property: snapshot round-trips preserve counts, the watermark and
// invariants for random operation sequences, and saving the reloaded
// store writes the same bytes.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		a := rdfterm.Default().With(rdfterm.Alias{Prefix: "x", Namespace: "http://x#"})
		for _, m := range []string{"m0", "m1"} {
			if _, err := s.CreateRDFModel(m, "", ""); err != nil {
				return false
			}
		}
		term := func() string { return fmt.Sprintf("x:t%d", rng.Intn(10)) }
		var tids []int64
		for i := 0; i < int(nops)%40+10; i++ {
			m := fmt.Sprintf("m%d", rng.Intn(2))
			switch rng.Intn(4) {
			case 0, 1:
				ts, err := s.NewTripleS(m, term(), term(), term(), a)
				if err != nil {
					return false
				}
				tids = append(tids, ts.TID)
			case 2:
				if len(tids) > 0 {
					_, _ = s.Reify(m, tids[rng.Intn(len(tids))])
				}
			case 3:
				if _, err := s.NewTripleS(m, "_:b"+fmt.Sprint(rng.Intn(3)), term(), term(), a); err != nil {
					return false
				}
			}
		}
		var buf, again bytes.Buffer
		if err := s.Save(&buf, int64(nops)); err != nil {
			return false
		}
		loaded, walSeq, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil || walSeq != int64(nops) {
			return false
		}
		if loaded.TotalTriples() != s.TotalTriples() ||
			loaded.NumValues() != s.NumValues() ||
			loaded.NumNodes() != s.NumNodes() {
			return false
		}
		// Save → Load → Save writes the same bytes.
		if err := loaded.Save(&again, int64(nops)); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			return false
		}
		return len(loaded.CheckInvariants()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
