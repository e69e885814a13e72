package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ntriples"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// ExportModel serializes every triple of a model as N-Triples, in LINK_ID
// order. Reification rows are exported with their DBUri subjects verbatim;
// ExpandReification rewrites them to portable reification quads instead,
// so the output can be reloaded into a store whose LINK_IDs differ.
type ExportOptions struct {
	// ExpandReification replaces each <DBUri, rdf:type, rdf:Statement> row
	// with the four-triple reification quad over a generated blank node,
	// and rewrites assertions referencing the DBUri to that blank node —
	// the inverse of the reify.Loader fold.
	ExpandReification bool
}

// ExportModel writes the model to w. Both the locked link scan and the
// per-triple serialization loop poll ctx, so a long export can be aborted
// by deadline or cancel without finishing the pass.
func (s *Store) ExportModel(ctx context.Context, model string, w io.Writer, opts ExportOptions) error {
	// Snapshot the link set under the read lock, then release it: the
	// per-triple value lookups below take their own read locks, and
	// RWMutex read locks must not nest.
	s.mu.RLock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		s.mu.RUnlock()
		return err
	}
	all, err := s.findModelLocked(ctx, mid, Pattern{})
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	out := ntriples.NewWriter(w)

	// Pass 1 (expansion only): map reified LINK_IDs to fresh blank nodes.
	blankOf := map[int64]rdfterm.Term{}
	if opts.ExpandReification {
		n := 0
		for _, ts := range all {
			tr, err := ts.GetTriple()
			if err != nil {
				return err
			}
			if linkID, ok := reificationRow(tr); ok {
				n++
				blankOf[linkID] = rdfterm.NewBlank("reif" + itoa64(int64(n)))
			}
		}
	}

	rewrite := func(t rdfterm.Term) rdfterm.Term {
		if !opts.ExpandReification || t.Kind != rdfterm.URI {
			return t
		}
		if id, ok := ParseDBUri(t.Value); ok {
			if b, ok := blankOf[id]; ok {
				return b
			}
		}
		return t
	}

	for i, ts := range all {
		if i%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: export: %w", err)
			}
		}
		tr, err := ts.GetTriple()
		if err != nil {
			return err
		}
		if opts.ExpandReification {
			if linkID, ok := reificationRow(tr); ok {
				// Emit the full quad instead of the folded row.
				base, err := s.GetTripleByID(linkID)
				if err != nil {
					return err
				}
				r := blankOf[linkID]
				quad := []ntriples.Triple{
					{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFType), Object: rdfterm.NewURI(rdfterm.RDFStatement)},
					{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFSubject), Object: base.Subject},
					{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFPredicate), Object: base.Property},
					{Subject: r, Predicate: rdfterm.NewURI(rdfterm.RDFObject), Object: base.Object},
				}
				for _, q := range quad {
					if err := out.Write(q); err != nil {
						return err
					}
				}
				continue
			}
		}
		if err := out.Write(ntriples.Triple{
			Subject:   rewrite(tr.Subject),
			Predicate: tr.Property,
			Object:    rewrite(tr.Object),
		}); err != nil {
			return err
		}
	}
	return out.Flush()
}

// reificationRow reports whether a triple is a streamlined reification row
// <DBUri, rdf:type, rdf:Statement>, returning the reified LINK_ID.
func reificationRow(tr Triple) (int64, bool) {
	if tr.Property.Value != rdfterm.RDFType || tr.Object.Value != rdfterm.RDFStatement {
		return 0, false
	}
	if tr.Subject.Kind != rdfterm.URI {
		return 0, false
	}
	return ParseDBUri(tr.Subject.Value)
}

func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Statistics summarizes a model's storage (for tooling and tests).
type Statistics struct {
	Triples    int // rdf_link$ rows in the model
	Reified    int // reification rows
	Direct     int // CONTEXT = D
	Indirect   int // CONTEXT = I
	ByLinkType map[string]int
}

// ModelStatistics computes storage statistics for one model.
func (s *Store) ModelStatistics(model string) (Statistics, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return Statistics{}, err
	}
	stats := Statistics{ByLinkType: map[string]int{}}
	// A link row whose value IDs do not resolve is corruption; surface it
	// instead of silently under-counting reified triples.
	var scanErr error
	lookup := func(id int64) (rdfterm.Term, bool) {
		t, err := s.getValueLocked(id)
		if err != nil {
			scanErr = fmt.Errorf("core: model %q statistics: link VALUE_ID %d unreadable: %w", model, id, err)
			return rdfterm.Term{}, false
		}
		return t, true
	}
	err = s.links.ScanPartition(mid, func(_ reldb.RowID, r reldb.Row) bool {
		stats.Triples++
		stats.ByLinkType[r[lcLinkType].Str()]++
		switch r[lcContext].Str() {
		case ContextDirect:
			stats.Direct++
		case ContextIndirect:
			stats.Indirect++
		}
		if r[lcReifLink].Str() == "Y" {
			// Reification rows specifically: predicate rdf:type, object
			// rdf:Statement, subject a DBUri.
			sub, ok := lookup(r[lcStartNodeID].Int64())
			if !ok {
				return false
			}
			if _, isDBUri := ParseDBUri(sub.Value); isDBUri {
				prop, ok := lookup(r[lcPValueID].Int64())
				if !ok {
					return false
				}
				if prop.Value == rdfterm.RDFType {
					obj, ok := lookup(r[lcEndNodeID].Int64())
					if !ok {
						return false
					}
					if obj.Value == rdfterm.RDFStatement {
						stats.Reified++
					}
				}
			}
		}
		return true
	})
	if scanErr != nil {
		return Statistics{}, scanErr
	}
	return stats, err
}
