package experiments

import (
	"fmt"
	"strings"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// Statement is a lexical triple in Jena's value-encoded form.
type Statement struct {
	Subject   rdfterm.Term
	Predicate rdfterm.Term
	Object    rdfterm.Term
}

// encodeTerm flattens a term to Jena2's prefixed column encoding: Jena2
// stores values directly in statement-table columns with a type prefix
// ("Uv::" for URIs, "Lv::" literals, "Bv::" blank nodes — simplified from
// Jena2's actual encoding but structurally identical).
func encodeTerm(t rdfterm.Term) string {
	switch t.Kind {
	case rdfterm.URI:
		return "Uv::" + t.Value
	case rdfterm.Blank:
		return "Bv::" + t.Value
	default:
		return "Lv::" + t.Language + "::" + t.Datatype + "::" + t.Value
	}
}

// decodeTerm reverses encodeTerm.
func decodeTerm(s string) (rdfterm.Term, error) {
	switch {
	case strings.HasPrefix(s, "Uv::"):
		return rdfterm.NewURI(s[4:]), nil
	case strings.HasPrefix(s, "Bv::"):
		return rdfterm.NewBlank(s[4:]), nil
	case strings.HasPrefix(s, "Lv::"):
		rest := s[4:]
		parts := strings.SplitN(rest, "::", 3)
		if len(parts) != 3 {
			return rdfterm.Term{}, fmt.Errorf("jena: bad literal encoding %q", s)
		}
		t := rdfterm.Term{Kind: rdfterm.Literal, Language: parts[0], Datatype: parts[1], Value: parts[2]}
		return t, nil
	}
	return rdfterm.Term{}, fmt.Errorf("jena: bad term encoding %q", s)
}

// Jena2Store is the Jena2 design: models in separate tables, asserted
// statements in one table per model with the text values stored
// redundantly in subject/predicate/object columns, reified statements in a
// property-class table, and optional property tables (§3.1).
type Jena2Store struct {
	db     *reldb.Database
	models map[string]*jena2Model
}

type jena2Model struct {
	name     string
	stmts    *reldb.Table // asserted statements: SUBJ, PROP, OBJ (text)
	reified  *reldb.Table // property-class table: STMT_URI, SUBJ, PROP, OBJ, TYPE
	subIdx   *reldb.Index
	propIdx  *reldb.Index
	objIdx   *reldb.Index
	spoIdx   *reldb.Index
	reifIdx  *reldb.Index // (SUBJ, PROP, OBJ) on the reified table
	reifURI  *reldb.Index // (STMT_URI)
	propTabs map[string]*propertyTable
	reifSeq  *reldb.Sequence
}

// NewJena2Store creates an empty Jena2-style store.
func NewJena2Store() *Jena2Store {
	return &Jena2Store{
		db:     reldb.NewDatabase("JENA2"),
		models: make(map[string]*jena2Model),
	}
}

// CreateModel creates the per-model asserted/reified statement tables
// ("models are stored in separate tables", §3.1).
func (j *Jena2Store) CreateModel(name string) error {
	if _, dup := j.models[name]; dup {
		return fmt.Errorf("jena: model %q already exists", name)
	}
	stmts, err := j.db.CreateTable(reldb.NewSchema("jena_"+name+"_stmt",
		reldb.Column{Name: "SUBJ", Kind: reldb.KindString},
		reldb.Column{Name: "PROP", Kind: reldb.KindString},
		reldb.Column{Name: "OBJ", Kind: reldb.KindString},
	))
	if err != nil {
		return err
	}
	reified, err := j.db.CreateTable(reldb.NewSchema("jena_"+name+"_reif",
		reldb.Column{Name: "STMT_URI", Kind: reldb.KindString},
		reldb.Column{Name: "SUBJ", Kind: reldb.KindString, Nullable: true},
		reldb.Column{Name: "PROP", Kind: reldb.KindString, Nullable: true},
		reldb.Column{Name: "OBJ", Kind: reldb.KindString, Nullable: true},
		reldb.Column{Name: "HAS_TYPE", Kind: reldb.KindBool},
	))
	if err != nil {
		return err
	}
	m := &jena2Model{name: name, stmts: stmts, reified: reified, propTabs: map[string]*propertyTable{}}
	if m.subIdx, err = stmts.CreateIndex("sub", false, "SUBJ"); err != nil {
		return err
	}
	if m.propIdx, err = stmts.CreateIndex("prop", false, "PROP"); err != nil {
		return err
	}
	if m.objIdx, err = stmts.CreateIndex("obj", false, "OBJ"); err != nil {
		return err
	}
	if m.spoIdx, err = stmts.CreateIndex("spo", false, "SUBJ", "PROP", "OBJ"); err != nil {
		return err
	}
	if m.reifIdx, err = reified.CreateIndex("rspo", false, "SUBJ", "PROP", "OBJ"); err != nil {
		return err
	}
	if m.reifURI, err = reified.CreateIndex("ruri", true, "STMT_URI"); err != nil {
		return err
	}
	if m.reifSeq, err = j.db.CreateSequence("jena_"+name+"_reif_seq", 1); err != nil {
		return err
	}
	j.models[name] = m
	return nil
}

func (j *Jena2Store) model(name string) (*jena2Model, error) {
	m, ok := j.models[name]
	if !ok {
		return nil, fmt.Errorf("jena: no such model %q", name)
	}
	return m, nil
}

// Add inserts an asserted statement. Text values are stored redundantly
// ("Jena2 thereby consumes more storage space than Jena1", §3.1). When a
// property table is configured for the predicate, the statement goes there
// instead of the statement table.
func (j *Jena2Store) Add(model string, st Statement) error {
	m, err := j.model(model)
	if err != nil {
		return err
	}
	if st.Predicate.Kind != rdfterm.URI {
		return fmt.Errorf("jena: predicate must be a URI")
	}
	if pt, ok := m.propTabs[st.Predicate.Value]; ok {
		return pt.add(st.Subject, st.Object)
	}
	_, err = m.stmts.Insert(reldb.Row{
		reldb.String_(encodeTerm(st.Subject)),
		reldb.String_(encodeTerm(st.Predicate)),
		reldb.String_(encodeTerm(st.Object)),
	})
	return err
}

// Find returns statements matching the pattern (nil = wildcard), like
// Jena's listStatements/find. Index selection mirrors Jena2: subject,
// then predicate, then object index; full scan otherwise. Property tables
// are consulted when the predicate matches one.
func (j *Jena2Store) Find(model string, sub, pred, obj *rdfterm.Term) ([]Statement, error) {
	m, err := j.model(model)
	if err != nil {
		return nil, err
	}
	var out []Statement
	appendRow := func(r reldb.Row) error {
		s, err := decodeTerm(r[0].Str())
		if err != nil {
			return err
		}
		p, err := decodeTerm(r[1].Str())
		if err != nil {
			return err
		}
		o, err := decodeTerm(r[2].Str())
		if err != nil {
			return err
		}
		st := Statement{Subject: s, Predicate: p, Object: o}
		if sub != nil && !st.Subject.Equal(*sub) {
			return nil
		}
		if pred != nil && !st.Predicate.Equal(*pred) {
			return nil
		}
		if obj != nil && !st.Object.Equal(*obj) {
			return nil
		}
		out = append(out, st)
		return nil
	}

	var ids []reldb.RowID
	switch {
	case sub != nil && pred != nil && obj != nil:
		ids = m.spoIdx.Lookup(reldb.Key{
			reldb.String_(encodeTerm(*sub)), reldb.String_(encodeTerm(*pred)), reldb.String_(encodeTerm(*obj))})
	case sub != nil:
		ids = m.subIdx.Lookup(reldb.Key{reldb.String_(encodeTerm(*sub))})
	case pred != nil:
		ids = m.propIdx.Lookup(reldb.Key{reldb.String_(encodeTerm(*pred))})
	case obj != nil:
		ids = m.objIdx.Lookup(reldb.Key{reldb.String_(encodeTerm(*obj))})
	default:
		ids = allRowIDs(m.stmts)
	}
	for _, id := range ids {
		r, err := m.stmts.Get(id)
		if err != nil {
			return nil, err
		}
		if err := appendRow(r); err != nil {
			return nil, err
		}
	}
	// Property tables hold statements for their predicate.
	for predURI, pt := range m.propTabs {
		if pred != nil && pred.Value != predURI {
			continue
		}
		sts, err := pt.find(sub, obj)
		if err != nil {
			return nil, err
		}
		out = append(out, sts...)
	}
	return out, nil
}

// Contains reports whether the exact statement is asserted.
func (j *Jena2Store) Contains(model string, st Statement) (bool, error) {
	got, err := j.Find(model, &st.Subject, &st.Predicate, &st.Object)
	if err != nil {
		return false, err
	}
	return len(got) > 0, nil
}

// Len returns the number of asserted statements (including property-table
// rows).
func (j *Jena2Store) Len(model string) (int, error) {
	m, err := j.model(model)
	if err != nil {
		return 0, err
	}
	n := m.stmts.Len()
	for _, pt := range m.propTabs {
		n += pt.table.Len()
	}
	return n, nil
}

// TextBytes sums the stored statement text of a model — redundant per
// occurrence, since Jena2 keeps values inline in the statement tables
// ("text values are therefore stored redundantly", §3.1).
func (j *Jena2Store) TextBytes(model string) (int64, error) {
	m, err := j.model(model)
	if err != nil {
		return 0, err
	}
	var total int64
	m.stmts.Scan(func(_ reldb.RowID, r reldb.Row) bool {
		total += int64(len(r[0].Str()) + len(r[1].Str()) + len(r[2].Str()))
		return true
	})
	for _, pt := range m.propTabs {
		pt.table.Scan(func(_ reldb.RowID, r reldb.Row) bool {
			total += int64(len(r[0].Str()) + len(r[1].Str()))
			return true
		})
	}
	return total, nil
}

// --- reification (§3.1): property-class table ---

// Reify records a reified statement: one row with all attributes present
// ("a single row with all attributes present represents a reified
// triple"). It returns the statement URI naming the reification.
func (j *Jena2Store) Reify(model string, st Statement) (string, error) {
	m, err := j.model(model)
	if err != nil {
		return "", err
	}
	// Idempotent on the same statement: reuse the existing row.
	key := reldb.Key{
		reldb.String_(encodeTerm(st.Subject)),
		reldb.String_(encodeTerm(st.Predicate)),
		reldb.String_(encodeTerm(st.Object)),
	}
	if rid, ok := m.reifIdx.LookupOne(key); ok {
		r, err := m.reified.Get(rid)
		if err != nil {
			return "", err
		}
		return r[0].Str(), nil
	}
	uri := fmt.Sprintf("urn:jena:reif:%s:%d", model, m.reifSeq.Next())
	_, err = m.reified.Insert(reldb.Row{
		reldb.String_(uri), key[0], key[1], key[2], reldb.Bool(true),
	})
	if err != nil {
		return "", err
	}
	return uri, nil
}

// IsReified is Jena's Model.isReified(stmt) (Figure 11): a single lookup
// in the property-class table.
func (j *Jena2Store) IsReified(model string, st Statement) (bool, error) {
	m, err := j.model(model)
	if err != nil {
		return false, err
	}
	key := reldb.Key{
		reldb.String_(encodeTerm(st.Subject)),
		reldb.String_(encodeTerm(st.Predicate)),
		reldb.String_(encodeTerm(st.Object)),
	}
	return m.reifIdx.Contains(key), nil
}

// ReifiedCount returns the number of reified statements in a model.
func (j *Jena2Store) ReifiedCount(model string) (int, error) {
	m, err := j.model(model)
	if err != nil {
		return 0, err
	}
	return m.reified.Len(), nil
}

// --- property tables (§3.1) ---

// propertyTable stores subject-value pairs for one predicate; the
// predicate URI itself is not stored ("modest storage reduction, since
// predicate URIs are not stored").
type propertyTable struct {
	predicate string
	table     *reldb.Table
	subIdx    *reldb.Index
}

// CreatePropertyTable configures a property table for a predicate on a
// model; future Adds of that predicate are routed to it. It must be
// created before data for the predicate is loaded (as in Jena2, where
// property tables are declared at graph creation).
func (j *Jena2Store) CreatePropertyTable(model, predicate string) error {
	m, err := j.model(model)
	if err != nil {
		return err
	}
	if _, dup := m.propTabs[predicate]; dup {
		return fmt.Errorf("jena: property table for %q already exists", predicate)
	}
	name := fmt.Sprintf("jena_%s_prop%d", model, len(m.propTabs)+1)
	tb, err := j.db.CreateTable(reldb.NewSchema(name,
		reldb.Column{Name: "SUBJ", Kind: reldb.KindString},
		reldb.Column{Name: "VAL", Kind: reldb.KindString},
	))
	if err != nil {
		return err
	}
	subIdx, err := tb.CreateIndex("sub", false, "SUBJ")
	if err != nil {
		return err
	}
	m.propTabs[predicate] = &propertyTable{predicate: predicate, table: tb, subIdx: subIdx}
	return nil
}

func (pt *propertyTable) add(sub, obj rdfterm.Term) error {
	_, err := pt.table.Insert(reldb.Row{
		reldb.String_(encodeTerm(sub)),
		reldb.String_(encodeTerm(obj)),
	})
	return err
}

func (pt *propertyTable) find(sub, obj *rdfterm.Term) ([]Statement, error) {
	var ids []reldb.RowID
	if sub != nil {
		ids = pt.subIdx.Lookup(reldb.Key{reldb.String_(encodeTerm(*sub))})
	} else {
		ids = allRowIDs(pt.table)
	}
	pred := rdfterm.NewURI(pt.predicate)
	var out []Statement
	for _, id := range ids {
		r, err := pt.table.Get(id)
		if err != nil {
			return nil, err
		}
		s, err := decodeTerm(r[0].Str())
		if err != nil {
			return nil, err
		}
		o, err := decodeTerm(r[1].Str())
		if err != nil {
			return nil, err
		}
		if obj != nil && !o.Equal(*obj) {
			continue
		}
		out = append(out, Statement{Subject: s, Predicate: pred, Object: o})
	}
	return out, nil
}

// allRowIDs lists a table's live rows — the baselines' full-scan access
// path when a find binds no indexed column.
func allRowIDs(t *reldb.Table) []reldb.RowID {
	var ids []reldb.RowID
	t.Scan(func(id reldb.RowID, _ reldb.Row) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}
