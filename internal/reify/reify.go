// Package reify implements the paper's quad-conversion API (§5): "A Java
// API is provided for reading reification quads and converting them into
// reified statements in Oracle."
//
// The Loader reads an N-Triples stream, recognizes complete reification
// quads
//
//	<R, rdf:type, rdf:Statement>
//	<R, rdf:subject, S>
//	<R, rdf:predicate, P>
//	<R, rdf:object, O>
//
// and folds each into the streamlined representation: the base triple
// <S,P,O> plus a single <DBUri, rdf:type, rdf:Statement> row. Statements
// that mention the quad resource R are rewritten to reference the DBUri.
// Incomplete quads are dropped, reported, or inserted verbatim, per the
// configured policy (the paper's "deleted, output to a file or inserted
// into the database like other triples").
//
// Faithful to §7.3, the loader reads the entire input before inserting
// ("the entire input file must be read before inserting triples into the
// database") — quad members may arrive in any order.
package reify

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/ntriples"
	"repro/internal/rdfterm"
)

// IncompletePolicy selects what happens to incomplete reification quads.
type IncompletePolicy int

// Policies for incomplete quads (§5).
const (
	// DropIncomplete discards the partial quad's triples.
	DropIncomplete IncompletePolicy = iota
	// InsertIncomplete stores the partial quad's triples verbatim.
	InsertIncomplete
	// ReportIncomplete writes the partial quad's triples to Report (and
	// drops them).
	ReportIncomplete
)

// OrigResourceProperty links a DBUri to the original quad resource URI
// when Loader.KeepOriginalURIs is set ("the user also specifies whether
// URIs replaced by the DBUriType should be stored").
const OrigResourceProperty = "urn:oracle:rdf:origResource"

// Loader folds reification quads while bulk-loading into a store model.
type Loader struct {
	Store  *core.Store
	Model  string
	Policy IncompletePolicy
	// Report receives incomplete-quad triples in N-Triples syntax when
	// Policy is ReportIncomplete.
	Report io.Writer
	// KeepOriginalURIs records <DBUri, origResource, R> for every folded
	// quad.
	KeepOriginalURIs bool
	// Workers is the number of parallel N-Triples parse workers Load
	// uses (the internal/load pipeline). 0 or 1 parses serially; < 0
	// uses GOMAXPROCS.
	Workers int
	// BatchSize, when > 1, inserts non-quad triples through
	// Store.InsertBatch in groups of BatchSize — one write-lock
	// acquisition and one WAL commit point per group, instead of one
	// per triple.
	BatchSize int
}

// Stats summarizes one load.
type Stats struct {
	// Read is the number of triples parsed from the input.
	Read int
	// Inserted is the number of base triples stored (excluding reification
	// rows the fold generates).
	Inserted int
	// QuadsFolded is the number of complete reification quads converted to
	// DBUri reifications.
	QuadsFolded int
	// AssertionsRewritten counts statements whose reference to a quad
	// resource was rewritten to the DBUri.
	AssertionsRewritten int
	// Incomplete counts partial quads handled by the policy.
	Incomplete int
}

// quad accumulates the four reification statements of one resource.
type quad struct {
	hasType bool
	sub     *rdfterm.Term
	pred    *rdfterm.Term
	obj     *rdfterm.Term
	extras  []ntriples.Triple // duplicate quad-member statements
}

// baseUse records how the input uses the base triple of a complete quad.
type baseUse uint8

const (
	// baseAsserted: the input also states the base triple directly.
	baseAsserted baseUse = 1 << iota
	// baseFolded: the fold inserted the asserted base triple, and its
	// first direct statement is still to be skipped.
	baseFolded
)

func (q *quad) complete() bool {
	return q.hasType && q.sub != nil && q.pred != nil && q.obj != nil
}

// Load reads all triples from r and loads them into the model. The
// entire input is read before inserting (§7.3: quad members may arrive
// in any order); with Workers set, parsing fans out across the
// internal/load pipeline.
func (l *Loader) Load(r io.Reader) (Stats, error) {
	var stats Stats
	if l.Store == nil || l.Model == "" {
		return stats, fmt.Errorf("reify: Loader needs Store and Model")
	}
	workers := l.Workers
	if workers < 0 {
		workers = 0 // load.Options: 0 → GOMAXPROCS
	} else if workers == 0 {
		workers = 1 // Loader default: serial
	}
	triples, err := load.Parse(r, load.Options{Workers: workers})
	if err != nil {
		return stats, err
	}
	stats.Read = len(triples)
	return l.loadParsed(triples, stats)
}

// LoadTriples loads an already-parsed batch.
func (l *Loader) LoadTriples(triples []ntriples.Triple) (Stats, error) {
	return l.loadParsed(triples, Stats{Read: len(triples)})
}

func (l *Loader) loadParsed(triples []ntriples.Triple, stats Stats) (Stats, error) {
	// Pass 1: gather quad candidates keyed by resource (URI or blank).
	quads := map[rdfterm.Term]*quad{}
	rest := make([]ntriples.Triple, 0, len(triples))
	for _, t := range triples {
		if member, res := quadMember(t); member {
			q := quads[res]
			if q == nil {
				q = &quad{}
				quads[res] = q
			}
			switch t.Predicate.Value {
			case rdfterm.RDFType:
				if q.hasType {
					q.extras = append(q.extras, t)
				}
				q.hasType = true
			case rdfterm.RDFSubject:
				if q.sub != nil {
					q.extras = append(q.extras, t)
				} else {
					o := t.Object
					q.sub = &o
				}
			case rdfterm.RDFPredicate:
				if q.pred != nil {
					q.extras = append(q.extras, t)
				} else {
					o := t.Object
					q.pred = &o
				}
			case rdfterm.RDFObject:
				if q.obj != nil {
					q.extras = append(q.extras, t)
				} else {
					o := t.Object
					q.obj = &o
				}
			}
			continue
		}
		rest = append(rest, t)
	}

	// Pass 2: fold complete quads; base triples become indirect statements
	// unless also asserted directly in the input. Quad resources are
	// processed in sorted order so a load is deterministic: the same
	// input always assigns the same VALUE_IDs and LINK_IDs, and two
	// stores loaded from the same file are byte-identical.
	//
	// bases holds the base triple of every complete quad, and nothing
	// else: the other statements are only looked up in it, and in a file
	// without quads not even that.
	bases := map[ntriples.Triple]baseUse{}
	for _, q := range quads {
		if q.complete() {
			bases[ntriples.Triple{Subject: *q.sub, Predicate: *q.pred, Object: *q.obj}] = 0
		}
	}
	if len(bases) > 0 {
		for _, t := range rest {
			if use, ok := bases[t]; ok {
				bases[t] = use | baseAsserted
			}
		}
	}
	resources := make([]rdfterm.Term, 0, len(quads))
	for res := range quads {
		resources = append(resources, res)
	}
	sort.Slice(resources, func(i, j int) bool { return resources[i].Compare(resources[j]) < 0 })
	dburiOf := map[rdfterm.Term]string{}
	for _, res := range resources {
		q := quads[res]
		if !q.complete() {
			stats.Incomplete++
			if err := l.handleIncomplete(res, q, &stats); err != nil {
				return stats, err
			}
			continue
		}
		base := ntriples.Triple{Subject: *q.sub, Predicate: *q.pred, Object: *q.obj}
		var ts core.TripleS
		var err error
		if bases[base]&baseAsserted != 0 {
			// Will be (or has been) inserted as a direct statement below;
			// insert now so the fold sees the right context.
			ts, err = l.Store.InsertTerms(l.Model, base.Subject, base.Predicate, base.Object)
			if err != nil {
				return stats, err
			}
			// Avoid double insert in pass 3 (COST would double-count).
			bases[base] |= baseFolded
		} else {
			ts, err = l.insertImplied(base)
			if err != nil {
				return stats, err
			}
		}
		if _, err := l.Store.Reify(l.Model, ts.TID); err != nil {
			return stats, err
		}
		stats.QuadsFolded++
		dburiOf[res] = core.DBUri(ts.TID)
		if l.KeepOriginalURIs {
			if _, err := l.Store.InsertTerms(l.Model,
				rdfterm.NewURI(core.DBUri(ts.TID)),
				rdfterm.NewURI(OrigResourceProperty),
				res); err != nil {
				return stats, err
			}
		}
	}

	// Pass 3: insert remaining triples, rewriting references to folded
	// quad resources into DBUris (assertions about reified statements).
	// With BatchSize > 1 the inserts go through Store.InsertBatch —
	// interning, link insertion, and the WAL commit are amortized over
	// each batch instead of paid per triple.
	var batch []core.BatchTriple
	batchRewrites := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := l.Store.InsertBatch(l.Model, batch); err != nil {
			return err
		}
		stats.Inserted += len(batch)
		stats.AssertionsRewritten += batchRewrites
		batch = batch[:0]
		batchRewrites = 0
		return nil
	}
	for _, t := range rest {
		if len(bases) > 0 && bases[t]&baseFolded != 0 {
			// The base triple was already inserted during folding; skip the
			// duplicate so COST reflects one application reference.
			bases[t] &^= baseFolded
			stats.Inserted++
			continue
		}
		sub, obj := t.Subject, t.Object
		rewritten := false
		if d, ok := dburiOf[sub]; ok {
			sub = rdfterm.NewURI(d)
			rewritten = true
		}
		if d, ok := dburiOf[obj]; ok {
			obj = rdfterm.NewURI(d)
			rewritten = true
		}
		if l.BatchSize > 1 {
			batch = append(batch, core.BatchTriple{Subject: sub, Predicate: t.Predicate, Object: obj})
			if rewritten {
				batchRewrites++
			}
			if len(batch) >= l.BatchSize {
				if err := flush(); err != nil {
					return stats, err
				}
			}
			continue
		}
		if _, err := l.Store.InsertTerms(l.Model, sub, t.Predicate, obj); err != nil {
			return stats, err
		}
		stats.Inserted++
		if rewritten {
			stats.AssertionsRewritten++
		}
	}
	return stats, flush()
}

// insertImplied inserts the base triple of a reification as an indirect
// statement (CONTEXT=I), like the paper's implied statements (§5.2). It
// reuses AssertImplied's machinery minus the assertion.
func (l *Loader) insertImplied(base ntriples.Triple) (core.TripleS, error) {
	return l.Store.InsertImplied(l.Model, base.Subject, base.Predicate, base.Object)
}

func (l *Loader) handleIncomplete(res rdfterm.Term, q *quad, stats *Stats) error {
	emit := func(t ntriples.Triple) error {
		switch l.Policy {
		case InsertIncomplete:
			if _, err := l.Store.InsertTerms(l.Model, t.Subject, t.Predicate, t.Object); err != nil {
				return err
			}
			stats.Inserted++
		case ReportIncomplete:
			if l.Report != nil {
				if _, err := fmt.Fprintln(l.Report, t.String()); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rebuild := func(pred string, obj *rdfterm.Term) error {
		if obj == nil {
			return nil
		}
		return emit(ntriples.Triple{Subject: res, Predicate: rdfterm.NewURI(pred), Object: *obj})
	}
	if q.hasType {
		stmt := rdfterm.NewURI(rdfterm.RDFStatement)
		if err := rebuild(rdfterm.RDFType, &stmt); err != nil {
			return err
		}
	}
	if err := rebuild(rdfterm.RDFSubject, q.sub); err != nil {
		return err
	}
	if err := rebuild(rdfterm.RDFPredicate, q.pred); err != nil {
		return err
	}
	if err := rebuild(rdfterm.RDFObject, q.obj); err != nil {
		return err
	}
	for _, t := range q.extras {
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// quadMember reports whether t is one of the four reification-vocabulary
// statements, returning the reification resource.
func quadMember(t ntriples.Triple) (bool, rdfterm.Term) {
	switch t.Predicate.Value {
	case rdfterm.RDFSubject, rdfterm.RDFPredicate, rdfterm.RDFObject:
		return true, t.Subject
	case rdfterm.RDFType:
		if t.Object.Kind == rdfterm.URI && t.Object.Value == rdfterm.RDFStatement {
			return true, t.Subject
		}
	}
	return false, rdfterm.Term{}
}
