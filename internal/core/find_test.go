package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdfterm"
)

// TestFindSubjectObjectResidual pins the one access path that still
// needs a per-row filter after the index scan: subject and object bound
// with the predicate unbound. The MSPO prefix stops at (M,S) — it cannot
// skip the P column — so the object must be checked on each row.
func TestFindSubjectObjectResidual(t *testing.T) {
	s := newStoreWithModel(t, "m")
	a := govAliases()
	s.NewTripleS("m", "gov:s1", "gov:p1", "gov:o1", a)
	s.NewTripleS("m", "gov:s1", "gov:p2", "gov:o2", a)
	s.NewTripleS("m", "gov:s1", "gov:p3", "gov:o2", a)
	s.NewTripleS("m", "gov:s2", "gov:p1", "gov:o2", a)

	sub := rdfterm.NewURI("http://www.us.gov#s1")
	o1 := rdfterm.NewURI("http://www.us.gov#o1")
	o2 := rdfterm.NewURI("http://www.us.gov#o2")

	got, err := s.Find(context.Background(), "m", Pattern{Subject: &sub, Object: &o2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("s1/?p/o2 matched %d rows, want 2", len(got))
	}
	got, err = s.Find(context.Background(), "m", Pattern{Subject: &sub, Object: &o1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("s1/?p/o1 matched %d rows, want 1", len(got))
	}

	// Canonical matching must survive the residual path too: a literal
	// constraint written "01"^^xsd:int finds the row stored as 1.
	intT := rdfterm.NewTypedLiteral("1", rdfterm.XSDInt)
	if _, err := s.InsertTerms("m", sub, rdfterm.NewURI("http://www.us.gov#age"), intT); err != nil {
		t.Fatal(err)
	}
	alias := rdfterm.NewTypedLiteral("01", rdfterm.XSDInt)
	got, err = s.Find(context.Background(), "m", Pattern{Subject: &sub, Object: &alias})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("s1/?p/\"01\"^^xsd:int matched %d rows, want 1 (canonical)", len(got))
	}
}

// TestFindModelsUnknownModel: resolution happens up front — an unknown
// model anywhere in the list fails the whole call with no partial result.
func TestFindModelsUnknownModel(t *testing.T) {
	s := newStoreWithModel(t, "cia")
	a := govAliases()
	s.NewTripleS("cia", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
	out, err := s.FindModelsCtx(context.Background(), []string{"cia", "nope"}, Pattern{})
	if !errors.Is(err, ErrNoSuchModel) {
		t.Fatalf("err = %v, want ErrNoSuchModel", err)
	}
	if out != nil {
		t.Fatalf("partial results returned alongside error: %v", out)
	}
}

// TestFindModelsSnapshot: FindModelsCtx holds one read lock for the whole
// multi-model scan. The writer inserts each triple into model a and
// then model b, so in any consistent snapshot count(a) is count(b) or
// count(b)+1. With per-model locking, a writer slipping between the a
// scan and the b scan could make b run ahead. Run with -race.
func TestFindModelsSnapshot(t *testing.T) {
	s := newStoreWithModel(t, "a", "b")
	midA, err := s.GetModelID("a")
	if err != nil {
		t.Fatal(err)
	}
	sub := rdfterm.NewURI("http://s")
	obj := rdfterm.NewURI("http://o")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 300; i++ {
			p := rdfterm.NewURI(fmt.Sprintf("http://p/%d", i))
			if _, err := s.InsertTerms("a", sub, p, obj); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.InsertTerms("b", sub, p, obj); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		out, err := s.FindModelsCtx(context.Background(), []string{"a", "b"}, Pattern{Subject: &sub})
		if err != nil {
			t.Fatal(err)
		}
		na, nb := 0, 0
		for _, ts := range out {
			if ts.MID == midA {
				na++
			} else {
				nb++
			}
		}
		if na != nb && na != nb+1 {
			t.Fatalf("inconsistent snapshot: model a has %d rows, model b has %d", na, nb)
		}
	}
	wg.Wait()
}
