package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// dictTerm draws from a small vocabulary of texts crossed with every kind,
// a few datatypes and languages, so that many terms differ from another in
// the kind, the datatype or the language alone, and a few texts are long
// enough to spill into LONG_VALUE.
func dictTerm(rng *rand.Rand) rdfterm.Term {
	text := fmt.Sprintf("http://example.org/term/%d", rng.Intn(400))
	switch rng.Intn(40) {
	case 0:
		text = strings.Repeat("long literal ", 400) + text
	case 1:
		text = ""
	}
	kind := rng.Intn(7)
	if text == "" && kind < 3 {
		kind = 5 // only a literal may be empty
	}
	switch kind {
	case 0:
		return rdfterm.NewURI(text + "x")
	case 1:
		return rdfterm.NewBlank(text)
	case 2:
		return rdfterm.NewBlank("_:" + text) // the label as it is stored
	case 3:
		return rdfterm.NewTypedLiteral(text, []string{rdfterm.XSDInt, rdfterm.XSDString, "http://example.org/dt"}[rng.Intn(3)])
	case 4:
		return rdfterm.NewLangLiteral(text, []string{"en", "EN", "fr"}[rng.Intn(3)])
	default:
		return rdfterm.NewLiteral(text)
	}
}

// TestDictionaryAgainstMap runs the term dictionary against the map it
// replaced, through every doubling up to a few thousand terms: each term
// drawn is looked up in both, interned if new, and at the end every term of
// the map resolves to its VALUE_ID and terms never interned to nothing.
func TestDictionaryAgainstMap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		model := map[rdfterm.Term]int64{}
		sizes := map[int]bool{}
		for step := 0; step < 6000; step++ {
			term := dictTerm(rng)
			want, known := model[term]
			s.mu.Lock()
			got, ok := s.lookupValueIDLocked(term)
			if ok != known || got != want {
				t.Fatalf("seed %d step %d: lookup of %v = (%d, %v), the map says (%d, %v)", seed, step, term, got, ok, want, known)
			}
			id, err := s.internValueLocked(term)
			s.mu.Unlock()
			if err != nil || known && id != want {
				t.Fatalf("seed %d step %d: intern of %v = %d, %v; the map says (%d, %v)", seed, step, term, id, err, want, known)
			}
			model[term] = id
			sizes[len(s.terms.slots)] = true
		}
		if len(sizes) < 8 || s.terms.n != len(model) || s.NumValues() != len(model) {
			t.Fatalf("seed %d: %d terms in the map, %d in the dictionary, %d rows, %d table sizes", seed, len(model), s.terms.n, s.NumValues(), len(sizes))
		}
		for term, want := range model {
			if got, ok := s.lookupValueIDLocked(term); !ok || got != want {
				t.Fatalf("seed %d: %v resolves to (%d, %v), want %d", seed, term, got, ok, want)
			}
			if back, err := s.GetValue(want); err != nil || back != term {
				t.Fatalf("seed %d: VALUE_ID %d reads %v, %v; want %v", seed, want, back, err, term)
			}
			// The same text under another kind, datatype or language is another term.
			for _, other := range []rdfterm.Term{
				{Kind: rdfterm.URI, Value: term.Value}, {Kind: rdfterm.Blank, Value: term.Value}, {Kind: rdfterm.Literal, Value: term.Value},
				{Kind: rdfterm.Literal, Value: term.Value, Datatype: "http://example.org/other"}, {Kind: rdfterm.Literal, Value: term.Value, Language: "de"},
			} {
				if _, known := model[other]; !known {
					if id, ok := s.lookupValueIDLocked(other); ok {
						t.Fatalf("seed %d: %v, never interned, resolves to %d", seed, other, id)
					}
				}
			}
		}
		assertInvariants(t, s) // invariant 8: dictionary == rdf_value$
		// A second row for a term is refused, whatever VALUE_ID it claims.
		for term := range model {
			if err := s.insertValueRowLocked(1<<40, term); !errors.Is(err, reldb.ErrUniqueViolation) {
				t.Fatalf("seed %d: a second row for %v: %v", seed, term, err)
			}
			break
		}
	}
}

// TestDictionaryLookupAllocBudget: resolving a term, interned or not, and
// probing a sequence key (VALUE_ID → row, LINK_ID → row) build nothing.
func TestDictionaryLookupAllocBudget(t *testing.T) {
	s := newStoreWithModel(t, "m")
	var last TripleS
	for i := 0; i < 500; i++ {
		last = mustInsert(t, s, "m", rdfterm.NewURI(fmt.Sprint("http://s/", i)), rdfterm.NewURI("http://p"), rdfterm.NewLangLiteral(fmt.Sprint("v", i), "en"))
	}
	hit, miss := rdfterm.NewLangLiteral("v250", "en"), rdfterm.NewLangLiteral("v250", "de")
	for name, probe := range map[string]func() bool{
		"dictionary hit":  func() bool { _, ok := s.lookupValueIDLocked(hit); return ok },
		"dictionary miss": func() bool { _, ok := s.lookupValueIDLocked(miss); return !ok },
		"rdf_value_pk":    func() bool { _, ok := s.valuePK.LookupInts(last.OID); return ok },
		"rdf_link_pk":     func() bool { _, ok := s.linkPK.LookupInts(last.TID - 100); return ok },
	} {
		if got := testing.AllocsPerRun(200, func() {
			if !probe() {
				t.Fatalf("%s: wrong answer", name)
			}
		}); got > 0 {
			t.Errorf("%s: %.0f allocations, budget 0", name, got)
		}
	}
}

// TestLinkIndexEntryBudget holds the line on what a link costs in indexes:
// three trees on rdf_link$ — 40 + 24 + 24 bytes of entries a row — and no
// tree at all for the two sequence keys.
func TestLinkIndexEntryBudget(t *testing.T) {
	s := New()
	trees, bytes := 0, 0
	for _, ix := range s.links.Indexes() {
		if ix.EntryBytes() > 0 {
			trees++
		}
		bytes += ix.EntryBytes()
	}
	if trees != 3 || bytes > 88 {
		t.Errorf("rdf_link$: %d trees, %d bytes of entries a row; budget 3 and 88", trees, bytes)
	}
	for _, ix := range s.values.Indexes() {
		if ix.EntryBytes() != 0 {
			t.Errorf("rdf_value$: %s stores %d bytes a row, budget 0", ix.Name(), ix.EntryBytes())
		}
	}
	if s.linkPK.EntryBytes() != 0 {
		t.Errorf("rdf_link_pk stores %d bytes a row, budget 0", s.linkPK.EntryBytes())
	}
}
