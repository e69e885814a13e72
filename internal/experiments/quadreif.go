package experiments

import (
	"fmt"

	"repro/internal/rdfterm"
)

// QuadReifier is the naïve reification baseline (§5, §7.3): each
// reification stores the full four-triple reification quad
//
//	<R, rdf:type, rdf:Statement>
//	<R, rdf:subject, S>
//	<R, rdf:predicate, P>
//	<R, rdf:object, O>
//
// in the statement store. The paper's streamlined DBUri scheme needs 25%
// of this storage, and IsReified becomes a multi-join instead of a single
// row lookup.
type QuadReifier struct {
	store *Jena2Store
	model string
	seq   int64
}

// NewQuadReifier wraps a Jena2 model with quad-based reification.
func NewQuadReifier(store *Jena2Store, model string) *QuadReifier {
	return &QuadReifier{store: store, model: model}
}

// Reify stores the four-triple quad for st, returning the generated
// resource R.
func (q *QuadReifier) Reify(st Statement) (rdfterm.Term, error) {
	q.seq++
	r := rdfterm.NewURI(fmt.Sprintf("urn:quadreif:%s:%d", q.model, q.seq))
	for _, t := range quad(r, st) {
		if err := q.store.Add(q.model, t); err != nil {
			return rdfterm.Term{}, err
		}
	}
	return r, nil
}

// IsReified answers whether st is reified under the quad scheme: find the
// resources whose rdf:subject is st.Subject, then check each also carries
// the matching rdf:predicate, rdf:object, and rdf:type rows — the
// multi-lookup the DBUri scheme avoids.
func (q *QuadReifier) IsReified(st Statement) (bool, error) {
	rdfSubject := rdfterm.NewURI(rdfterm.RDFSubject)
	candidates, err := q.store.Find(q.model, nil, &rdfSubject, &st.Subject)
	if err != nil {
		return false, err
	}
	rdfPredicate := rdfterm.NewURI(rdfterm.RDFPredicate)
	rdfObject := rdfterm.NewURI(rdfterm.RDFObject)
	rdfType := rdfterm.NewURI(rdfterm.RDFType)
	rdfStatement := rdfterm.NewURI(rdfterm.RDFStatement)
	for _, cand := range candidates {
		r := cand.Subject
		if ok, err := q.store.Contains(q.model, Statement{Subject: r, Predicate: rdfPredicate, Object: st.Predicate}); err != nil || !ok {
			if err != nil {
				return false, err
			}
			continue
		}
		if ok, err := q.store.Contains(q.model, Statement{Subject: r, Predicate: rdfObject, Object: st.Object}); err != nil || !ok {
			if err != nil {
				return false, err
			}
			continue
		}
		if ok, err := q.store.Contains(q.model, Statement{Subject: r, Predicate: rdfType, Object: rdfStatement}); err != nil || !ok {
			if err != nil {
				return false, err
			}
			continue
		}
		return true, nil
	}
	return false, nil
}

// StoredTriples returns how many statement rows the quad scheme has
// consumed for reification so far.
func (q *QuadReifier) StoredTriples() int64 { return q.seq * 4 }

// quad is the four-triple reification quad of st under resource r.
func quad(r rdfterm.Term, st Statement) []Statement {
	return []Statement{
		{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFType), Object: rdfterm.NewURI(rdfterm.RDFStatement)},
		{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFSubject), Object: st.Subject},
		{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFPredicate), Object: st.Predicate},
		{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFObject), Object: st.Object},
	}
}
