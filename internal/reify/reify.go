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
	"context"
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
	// BatchSize is the number of statements per Store.InsertBatchCtx group
	// — one write-lock acquisition and one WAL commit point each. It only
	// places the commit points: the stored result does not depend on it.
	// 0 or 1 commits every statement on its own.
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
	// baseFolded: the fold's first stream carries the asserted base
	// triple, and its first direct statement is still to be skipped.
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

	// Pass 2: the fold, as three ordered streams through Store.InsertBatchCtx
	// — the quads' base triples, the reification rows that point at them,
	// everything else — each cut into groups of BatchSize only to place
	// the commit points (one write-lock acquisition and one WAL commit per
	// group, so a durable load fsyncs once per group, not once per
	// statement). The statements and their order are the same whatever
	// the size, so the IDs are too, and the same input always builds
	// byte-identical stores.
	size := max(l.BatchSize, 1)
	group := make([]core.BatchTriple, 0, min(size, len(triples)))
	var baseIDs []int64 // LINK_IDs of stream 1's statements, in order
	// flush inserts the queued group, which ends a stream; add queues one
	// statement and flushes a full group.
	flush := func(ids *[]int64) error {
		if len(group) == 0 {
			return nil
		}
		res, err := l.Store.InsertBatchCtx(context.Background(), l.Model, group)
		if err != nil {
			return err
		}
		if ids != nil {
			for _, ts := range res.Triples {
				*ids = append(*ids, ts.TID)
			}
		}
		group = group[:0]
		return nil
	}
	add := func(bt core.BatchTriple, ids *[]int64) error {
		if group = append(group, bt); len(group) < size {
			return nil
		}
		return flush(ids)
	}

	// Stream 1: the base of every complete quad, quad resources in sorted
	// order; an indirect statement unless the input also asserts it.
	resources := make([]rdfterm.Term, 0, len(quads))
	for res := range quads {
		resources = append(resources, res)
	}
	sort.Slice(resources, func(i, j int) bool { return resources[i].Compare(resources[j]) < 0 })
	var folded []rdfterm.Term // resources of the complete quads, in stream order
	var incomplete []core.BatchTriple
	for _, res := range resources {
		q := quads[res]
		if !q.complete() {
			stats.Incomplete++
			kept, err := l.handleIncomplete(res, q)
			if err != nil {
				return stats, err
			}
			incomplete = append(incomplete, kept...)
			continue
		}
		base := ntriples.Triple{Subject: *q.sub, Predicate: *q.pred, Object: *q.obj}
		asserted := bases[base]&baseAsserted != 0
		if asserted {
			// Inserted here as the direct statement it is; its first
			// occurrence among the rest is skipped, so that COST counts one
			// application reference.
			bases[base] |= baseFolded
		}
		folded = append(folded, res)
		if err := add(core.BatchTriple{Subject: base.Subject, Predicate: base.Predicate, Object: base.Object, Implied: !asserted}, &baseIDs); err != nil {
			return stats, err
		}
	}
	if err := flush(&baseIDs); err != nil {
		return stats, err
	}

	// Stream 2: <DBUri, rdf:type, rdf:Statement> for each base's LINK_ID
	// (and the original resource, when kept).
	dburiOf := make(map[rdfterm.Term]rdfterm.Term, len(folded))
	rdfType, rdfStatement := rdfterm.NewURI(rdfterm.RDFType), rdfterm.NewURI(rdfterm.RDFStatement)
	for i, res := range folded {
		dburi := rdfterm.NewURI(core.DBUri(baseIDs[i]))
		dburiOf[res] = dburi
		err := add(core.BatchTriple{Subject: dburi, Predicate: rdfType, Object: rdfStatement}, nil)
		if err == nil && l.KeepOriginalURIs {
			err = add(core.BatchTriple{Subject: dburi, Predicate: rdfterm.NewURI(OrigResourceProperty), Object: res}, nil)
		}
		if err != nil {
			return stats, err
		}
	}
	if err := flush(nil); err != nil {
		return stats, err
	}
	stats.QuadsFolded = len(folded)

	// Stream 3: what InsertIncomplete keeps of the partial quads, then the
	// remaining statements with references to folded quad resources
	// rewritten into DBUris (assertions about reified statements).
	for _, bt := range incomplete {
		if err := add(bt, nil); err != nil {
			return stats, err
		}
	}
	stats.Inserted += len(incomplete)
	for _, t := range rest {
		if len(bases) > 0 && bases[t]&baseFolded != 0 {
			bases[t] &^= baseFolded // stream 1 inserted it
			stats.Inserted++
			continue
		}
		sub, subIsQuad := dburiOf[t.Subject]
		if !subIsQuad {
			sub = t.Subject
		}
		obj, objIsQuad := dburiOf[t.Object]
		if !objIsQuad {
			obj = t.Object
		}
		if err := add(core.BatchTriple{Subject: sub, Predicate: t.Predicate, Object: obj}, nil); err != nil {
			return stats, err
		}
		stats.Inserted++
		if subIsQuad || objIsQuad {
			stats.AssertionsRewritten++
		}
	}
	return stats, flush(nil)
}

// handleIncomplete applies the policy to a partial quad: its statements
// are written to Report, returned for insertion, or dropped.
func (l *Loader) handleIncomplete(res rdfterm.Term, q *quad) ([]core.BatchTriple, error) {
	var keep []core.BatchTriple
	emit := func(t ntriples.Triple) error {
		switch l.Policy {
		case InsertIncomplete:
			keep = append(keep, core.BatchTriple{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object})
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
			return nil, err
		}
	}
	if err := rebuild(rdfterm.RDFSubject, q.sub); err != nil {
		return nil, err
	}
	if err := rebuild(rdfterm.RDFPredicate, q.pred); err != nil {
		return nil, err
	}
	if err := rebuild(rdfterm.RDFObject, q.obj); err != nil {
		return nil, err
	}
	for _, t := range q.extras {
		if err := emit(t); err != nil {
			return nil, err
		}
	}
	return keep, nil
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
