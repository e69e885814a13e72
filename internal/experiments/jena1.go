package experiments

import (
	"fmt"

	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// Jena1Store is the Jena1 normalized design (§3.1): a statement table of
// ID references and separate resource/literal tables storing each text
// value once. Space-efficient, but every find is a three-way join.
type Jena1Store struct {
	db        *reldb.Database
	stmts     *reldb.Table // SUBJ_ID, PROP_ID, OBJ_ID, OBJ_IS_LIT
	resources *reldb.Table // ID, URI (also blank nodes, prefixed)
	literals  *reldb.Table // ID, VALUE (encoded)

	stmtSub  *reldb.Index
	stmtProp *reldb.Index
	stmtObj  *reldb.Index
	stmtSPO  *reldb.Index
	resPK    *reldb.Index
	resURI   *reldb.Index
	litPK    *reldb.Index
	litVal   *reldb.Index

	resSeq *reldb.Sequence
	litSeq *reldb.Sequence
}

// NewJena1Store creates an empty Jena1-style store. Unlike Jena2, Jena1
// used a single statement table for all data ("the single statement table
// did not scale for large datasets", §3.1).
func NewJena1Store() *Jena1Store {
	db := reldb.NewDatabase("JENA1")
	j := &Jena1Store{db: db}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("jena1: %v", err))
		}
	}
	var err error
	j.stmts, err = db.CreateTable(reldb.NewSchema("jena1_stmt",
		reldb.Column{Name: "SUBJ_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "PROP_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "OBJ_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "OBJ_IS_LIT", Kind: reldb.KindBool},
	))
	must(err)
	j.resources, err = db.CreateTable(reldb.NewSchema("jena1_res",
		reldb.Column{Name: "ID", Kind: reldb.KindInt},
		reldb.Column{Name: "URI", Kind: reldb.KindString},
	))
	must(err)
	j.literals, err = db.CreateTable(reldb.NewSchema("jena1_lit",
		reldb.Column{Name: "ID", Kind: reldb.KindInt},
		reldb.Column{Name: "VAL", Kind: reldb.KindString},
	))
	must(err)
	j.stmtSub, err = j.stmts.CreateIndex("sub", false, "SUBJ_ID")
	must(err)
	j.stmtProp, err = j.stmts.CreateIndex("prop", false, "PROP_ID")
	must(err)
	j.stmtObj, err = j.stmts.CreateIndex("obj", false, "OBJ_ID", "OBJ_IS_LIT")
	must(err)
	j.stmtSPO, err = j.stmts.CreateIndex("spo", false, "SUBJ_ID", "PROP_ID", "OBJ_ID", "OBJ_IS_LIT")
	must(err)
	j.resPK, err = j.resources.CreateIndex("pk", true, "ID")
	must(err)
	j.resURI, err = j.resources.CreateIndex("uri", true, "URI")
	must(err)
	j.litPK, err = j.literals.CreateIndex("pk", true, "ID")
	must(err)
	j.litVal, err = j.literals.CreateIndex("val", true, "VAL")
	must(err)
	j.resSeq, err = db.CreateSequence("res_seq", 1)
	must(err)
	j.litSeq, err = db.CreateSequence("lit_seq", 1)
	must(err)
	return j
}

// internResource returns the ID of a URI/blank term, interning on first
// use ("text values were only stored once", §3.1).
func (j *Jena1Store) internResource(t rdfterm.Term) (int64, error) {
	enc := encodeTerm(t)
	if rid, ok := j.resURI.LookupOne(reldb.Key{reldb.String_(enc)}); ok {
		r, err := j.resources.Get(rid)
		if err != nil {
			return 0, err
		}
		return r[0].Int64(), nil
	}
	id := j.resSeq.Next()
	if _, err := j.resources.Insert(reldb.Row{reldb.Int(id), reldb.String_(enc)}); err != nil {
		return 0, err
	}
	return id, nil
}

func (j *Jena1Store) internLiteral(t rdfterm.Term) (int64, error) {
	enc := encodeTerm(t)
	if rid, ok := j.litVal.LookupOne(reldb.Key{reldb.String_(enc)}); ok {
		r, err := j.literals.Get(rid)
		if err != nil {
			return 0, err
		}
		return r[0].Int64(), nil
	}
	id := j.litSeq.Next()
	if _, err := j.literals.Insert(reldb.Row{reldb.Int(id), reldb.String_(enc)}); err != nil {
		return 0, err
	}
	return id, nil
}

// Add inserts a statement.
func (j *Jena1Store) Add(st Statement) error {
	if st.Predicate.Kind != rdfterm.URI {
		return fmt.Errorf("jena1: predicate must be a URI")
	}
	sid, err := j.internResource(st.Subject)
	if err != nil {
		return err
	}
	pid, err := j.internResource(st.Predicate)
	if err != nil {
		return err
	}
	var oid int64
	isLit := st.Object.Kind == rdfterm.Literal
	if isLit {
		oid, err = j.internLiteral(st.Object)
	} else {
		oid, err = j.internResource(st.Object)
	}
	if err != nil {
		return err
	}
	_, err = j.stmts.Insert(reldb.Row{reldb.Int(sid), reldb.Int(pid), reldb.Int(oid), reldb.Bool(isLit)})
	return err
}

// lookupResource resolves a term to its ID without interning.
func (j *Jena1Store) lookupTerm(t rdfterm.Term) (int64, bool, bool) {
	isLit := t.Kind == rdfterm.Literal
	var ix *reldb.Index
	var tb *reldb.Table
	if isLit {
		ix, tb = j.litVal, j.literals
	} else {
		ix, tb = j.resURI, j.resources
	}
	rid, ok := ix.LookupOne(reldb.Key{reldb.String_(encodeTerm(t))})
	if !ok {
		return 0, isLit, false
	}
	r, err := tb.Get(rid)
	if err != nil {
		return 0, isLit, false
	}
	return r[0].Int64(), isLit, true
}

// Find returns statements matching the pattern — the §3.1 three-way join:
// constrained terms are resolved against the value tables, matching
// statement rows located by index, and each result row joined back to the
// resource/literal tables to materialize the text.
func (j *Jena1Store) Find(sub, pred, obj *rdfterm.Term) ([]Statement, error) {
	var (
		sid, pid, oid int64
		objIsLit      bool
	)
	if sub != nil {
		id, _, ok := j.lookupTerm(*sub)
		if !ok {
			return nil, nil
		}
		sid = id
	}
	if pred != nil {
		id, _, ok := j.lookupTerm(*pred)
		if !ok {
			return nil, nil
		}
		pid = id
	}
	if obj != nil {
		id, isLit, ok := j.lookupTerm(*obj)
		if !ok {
			return nil, nil
		}
		oid, objIsLit = id, isLit
	}

	var ids []reldb.RowID
	switch {
	case sub != nil && pred != nil && obj != nil:
		ids = j.stmtSPO.Lookup(reldb.Key{reldb.Int(sid), reldb.Int(pid), reldb.Int(oid), reldb.Bool(objIsLit)})
	case sub != nil:
		ids = j.stmtSub.Lookup(reldb.Key{reldb.Int(sid)})
	case pred != nil:
		ids = j.stmtProp.Lookup(reldb.Key{reldb.Int(pid)})
	case obj != nil:
		ids = j.stmtObj.Lookup(reldb.Key{reldb.Int(oid), reldb.Bool(objIsLit)})
	default:
		ids = allRowIDs(j.stmts)
	}

	var out []Statement
	for _, id := range ids {
		r, err := j.stmts.Get(id)
		if err != nil {
			return nil, err
		}
		if sub != nil && r[0].Int64() != sid {
			continue
		}
		if pred != nil && r[1].Int64() != pid {
			continue
		}
		if obj != nil && (r[2].Int64() != oid || r[3].BoolVal() != objIsLit) {
			continue
		}
		st, err := j.materialize(r)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// materialize joins a statement row back to the value tables.
func (j *Jena1Store) materialize(r reldb.Row) (Statement, error) {
	s, err := j.resourceByID(r[0].Int64())
	if err != nil {
		return Statement{}, err
	}
	p, err := j.resourceByID(r[1].Int64())
	if err != nil {
		return Statement{}, err
	}
	var o rdfterm.Term
	if r[3].BoolVal() {
		o, err = j.literalByID(r[2].Int64())
	} else {
		o, err = j.resourceByID(r[2].Int64())
	}
	if err != nil {
		return Statement{}, err
	}
	return Statement{Subject: s, Predicate: p, Object: o}, nil
}

func (j *Jena1Store) resourceByID(id int64) (rdfterm.Term, error) {
	rid, ok := j.resPK.LookupOne(reldb.Key{reldb.Int(id)})
	if !ok {
		return rdfterm.Term{}, fmt.Errorf("jena1: dangling resource %d", id)
	}
	r, err := j.resources.Get(rid)
	if err != nil {
		return rdfterm.Term{}, err
	}
	return decodeTerm(r[1].Str())
}

func (j *Jena1Store) literalByID(id int64) (rdfterm.Term, error) {
	rid, ok := j.litPK.LookupOne(reldb.Key{reldb.Int(id)})
	if !ok {
		return rdfterm.Term{}, fmt.Errorf("jena1: dangling literal %d", id)
	}
	r, err := j.literals.Get(rid)
	if err != nil {
		return rdfterm.Term{}, err
	}
	return decodeTerm(r[1].Str())
}

// Len returns the number of statements.
func (j *Jena1Store) Len() int { return j.stmts.Len() }

// ValueCounts returns (resources, literals) — for storage comparisons.
func (j *Jena1Store) ValueCounts() (int, int) {
	return j.resources.Len(), j.literals.Len()
}

// TextBytes sums the stored text of the value tables ("this design was
// efficient on space, because text values were only stored once", §3.1).
func (j *Jena1Store) TextBytes() int64 {
	var total int64
	count := func(t *reldb.Table, col int) {
		t.Scan(func(_ reldb.RowID, r reldb.Row) bool {
			total += int64(len(r[col].Str()))
			return true
		})
	}
	count(j.resources, 1)
	count(j.literals, 1)
	return total
}
