package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdfterm"
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
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
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
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
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
	_, err := Load(strings.NewReader("not a gob stream"))
	if err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage error %v is not ErrSnapshotCorrupt", err)
	}
}

// TestLoadTypedErrors pins the sentinel classification: callers (the CLI
// tools in particular) branch on errors.Is to print actionable messages.
func TestLoadTypedErrors(t *testing.T) {
	t.Run("version mismatch", func(t *testing.T) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion + 1}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("future-version error %v is not ErrSnapshotVersion", err)
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
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncated-stream error %v is not ErrSnapshotCorrupt", err)
		}
	})
	t.Run("inconsistent content", func(t *testing.T) {
		// Decodes fine but cannot be rebuilt: duplicate model IDs.
		snap := snapshot{
			Version: snapshotVersion,
			Models: []snapModel{
				{ID: 7, Name: "a"},
				{ID: 7, Name: "b"},
			},
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("duplicate-ID error %v is not ErrSnapshotCorrupt", err)
		}
	})
	t.Run("one term, two value rows", func(t *testing.T) {
		// Distinct VALUE_IDs, so rdf_value_pk accepts both: only the term
		// dictionary can refuse the second.
		snap := snapshot{
			Version: snapshotVersion,
			Values: []snapValue{
				{ID: 1068, Name: "http://a", Type: rdfterm.VTUri},
				{ID: 1069, Name: "http://a", Type: rdfterm.VTUri},
			},
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "already in rdf_value$") {
			t.Fatalf("duplicate-term error %v is not ErrSnapshotCorrupt naming the term", err)
		}
	})
}

// Property: snapshot round-trips preserve counts and invariants for random
// operation sequences.
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
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		if loaded.TotalTriples() != s.TotalTriples() ||
			loaded.NumValues() != s.NumValues() ||
			loaded.NumNodes() != s.NumNodes() {
			return false
		}
		return len(loaded.CheckInvariants()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
