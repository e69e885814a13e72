package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/reldb"
	"repro/internal/wal"
)

// Sentinel errors.
var (
	// ErrNoSuchModel reports an operation on a model name or ID that has
	// not been created.
	ErrNoSuchModel = errors.New("core: no such RDF model")
	// ErrDuplicateModel reports CreateRDFModel with a name already in use.
	ErrDuplicateModel = errors.New("core: model already exists")
	// ErrNoSuchTriple reports a lookup of a triple that is not stored.
	ErrNoSuchTriple = errors.New("core: no such triple")
	// ErrNoSuchValue reports a dangling VALUE_ID reference.
	ErrNoSuchValue = errors.New("core: no such value")
)

// Store is the central RDF schema: "there is one universe for all RDF data
// in the database" (§1). All models share the global rdf_value$ and
// rdf_link$ tables; application tables hold only SDO_RDF_TRIPLE_S ID
// objects pointing into the store.
type Store struct {
	db *reldb.Database

	models *reldb.Table //repro:guarded-by mu
	values *reldb.Table //repro:guarded-by mu
	nodes  *reldb.Table //repro:guarded-by mu
	links  *reldb.Table //repro:guarded-by mu
	blanks *reldb.Table //repro:guarded-by mu

	modelPK   *reldb.Index //repro:guarded-by mu
	modelName *reldb.Index //repro:guarded-by mu
	valuePK   *reldb.Index //repro:guarded-by mu
	nodePK    *reldb.Index //repro:guarded-by mu
	linkPK    *reldb.Index //repro:guarded-by mu
	linkSMPO  *reldb.Index //repro:guarded-by mu
	linkMP    *reldb.Index //repro:guarded-by mu
	linkOM    *reldb.Index //repro:guarded-by mu
	blankPK   *reldb.Index //repro:guarded-by mu

	valueSeq *reldb.Sequence //repro:guarded-by mu
	linkSeq  *reldb.Sequence //repro:guarded-by mu
	modelSeq *reldb.Sequence //repro:guarded-by mu
	blankSeq *reldb.Sequence //repro:guarded-by mu

	// terms is the term dictionary, text → VALUE_ID for every rdf_value$
	// row (see termDict). Entries are added only under the write lock;
	// readers holding RLock may consult it because RWMutex excludes
	// writers while any reader is in.
	terms termDict //repro:guarded-by mu

	// mu serializes multi-table mutations (value interning + link insert),
	// keeping cross-table invariants atomic. Readers hold the read lock:
	// the underlying tables and indexes are not safe for concurrent
	// access, so every public read path takes RLock and every mutation
	// takes Lock. Internal *Locked helpers assume the caller holds one of
	// the two and must not re-lock (RWMutex is not reentrant).
	mu sync.RWMutex

	// dur, when non-nil, receives every logical mutation as a WAL record
	// (see durability.go). nil — the default — costs nothing.
	dur Durability

	// met, when non-nil, receives instrumentation hooks (see metrics.go).
	// Deliberately NOT guarded-by mu: lock-wait timing reads it before
	// acquiring the lock, so the synchronization is attach-before-share
	// (SetMetrics), exactly like dur.
	met *Metrics

	// stats caches per-model planner statistics (see stats.go).
	// Deliberately NOT guarded-by mu: the cache has its own leaf mutex and
	// the pointer is attach-before-share (set once in New), exactly like
	// met.
	stats *planStatsCache
}

// New creates a fresh central schema (the MDSYS schema of the paper) and
// returns the store. Sequence bases echo the paper's examples: value IDs
// from 1068, link IDs from 2051, model IDs from 7 (Figure 6).
func New() *Store {
	db := reldb.NewDatabase("MDSYS")
	s := &Store{
		db:    db,
		stats: &planStatsCache{byModel: map[int64]*PlanStats{}},
	}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("core: building central schema: %v", err))
		}
	}
	var err error
	s.models, err = db.CreateTable(modelSchema())
	must(err)
	s.values, err = db.CreateTable(valueSchema())
	must(err)
	s.terms = newTermDict(s.values)
	s.nodes, err = db.CreateTable(nodeSchema())
	must(err)
	s.links, err = db.CreatePartitionedTable(linkSchema(), "MODEL_ID")
	must(err)
	s.blanks, err = db.CreateTable(blankNodeSchema())
	must(err)

	s.modelPK, err = s.models.CreateIndex(idxModelPK, true, "MODEL_ID")
	must(err)
	s.modelName, err = s.models.CreateIndex(idxModelName, true, "MODEL_NAME")
	must(err)
	s.valuePK, err = s.values.CreateIndex(idxValuePK, true, "VALUE_ID")
	must(err)
	s.nodePK, err = s.nodes.CreateIndex(idxNodePK, true, "NODE_ID")
	must(err)
	s.linkPK, err = s.links.CreateIndex(idxLinkPK, true, "LINK_ID")
	must(err)
	s.linkSMPO, err = s.links.CreateIndex(idxLinkSMPO, true,
		"START_NODE_ID", "MODEL_ID", "P_VALUE_ID", "CANON_END_NODE_ID")
	must(err)
	s.linkMP, err = s.links.CreateIndex(idxLinkMP, false, "MODEL_ID", "P_VALUE_ID")
	must(err)
	s.linkOM, err = s.links.CreateIndex(idxLinkOM, false, "CANON_END_NODE_ID", "MODEL_ID")
	must(err)
	s.blankPK, err = s.blanks.CreateIndex(idxBlankPK, true, "MODEL_ID", "ORIG_NAME")
	must(err)

	s.valueSeq, err = db.CreateSequence("rdf_value_seq", 1068)
	must(err)
	s.linkSeq, err = db.CreateSequence("rdf_link_seq", 2051)
	must(err)
	s.modelSeq, err = db.CreateSequence("rdf_model_seq", 7)
	must(err)
	s.blankSeq, err = db.CreateSequence("rdf_blank_seq", 1)
	must(err)
	return s
}

// Database exposes the underlying schema for the flat-table experiments
// (Experiment I queries rdf_value$ and rdf_link$ directly).
func (s *Store) Database() *reldb.Database { return s.db }

// --- model management (§4.3) ---

// CreateRDFModel registers a new RDF graph, recording the owning
// application table/column names (informational, as in the paper's
// SDO_RDF.CREATE_RDF_MODEL), and creates the rdfm_<model> view over
// rdf_link$ restricted to the model's partition.
func (s *Store) CreateRDFModel(name, tableName, columnName string) (int64, error) {
	var id int64
	err := s.write(func() error {
		if name == "" {
			return fmt.Errorf("core: empty model name")
		}
		if s.modelName.Contains(reldb.Key{reldb.String_(name)}) {
			return fmt.Errorf("%w: %q", ErrDuplicateModel, name)
		}
		id = s.modelSeq.Next()
		return s.emitLocked(&wal.Record{
			Type: wal.TypeCreateModel, ModelID: id, Name: name,
			TableName: tableName, ColumnName: columnName,
		})
	})
	return id, err
}

// addModelLocked inserts the rdf_model$ row and creates the model view —
// the applier's TypeCreateModel case. Caller holds s.mu.
func (s *Store) addModelLocked(id int64, name, tableName, columnName string) error {
	tn, cn := reldb.Null(), reldb.Null()
	if tableName != "" {
		tn = reldb.String_(tableName)
	}
	if columnName != "" {
		cn = reldb.String_(columnName)
	}
	if _, err := s.models.Insert(reldb.Row{reldb.Int(id), reldb.String_(name), tn, cn}); err != nil {
		return err
	}
	// Model view: a live window onto this model's rdf_link$ partition
	// (§4.3 — "a view of the rdf_link$ table that contains only data for
	// the model").
	mid := id
	_, err := s.db.CreateView("rdfm_"+strings.ToLower(name), s.links, func(r reldb.Row) bool {
		return r[lcModelID].Int64() == mid
	})
	return err
}

// GetModelID resolves a model name (the paper's SDO_RDF.GET_MODEL_ID).
func (s *Store) GetModelID(name string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getModelIDLocked(name)
}

// getModelIDLocked resolves a model name. Caller holds s.mu (either mode).
func (s *Store) getModelIDLocked(name string) (int64, error) {
	rid, ok := s.modelName.LookupOne(reldb.Key{reldb.String_(name)})
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchModel, name)
	}
	r, err := s.models.Get(rid)
	if err != nil {
		return 0, err
	}
	return r[mcModelID].Int64(), nil
}

// ModelNames returns the names of all models, sorted by model ID. A
// catalog row the index points at but the table cannot produce is
// corruption, not an empty result, and is reported as an error.
func (s *Store) ModelNames() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	var scanErr error
	s.modelPK.Scan(nil, nil, func(k reldb.Key, rid reldb.RowID) bool {
		r, err := s.models.Get(rid)
		if err != nil {
			scanErr = fmt.Errorf("core: model catalog row %v (id %v) unreadable: %w", rid, k, err)
			return false
		}
		names = append(names, r[mcModelName].Str())
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return names, nil
}

// ModelView returns the rdfm_<model> view.
func (s *Store) ModelView(name string) (*reldb.View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.View("rdfm_" + strings.ToLower(name))
}

// DropRDFModel removes a model: its links, its blank-node mappings, its
// catalog row, and its view. Shared rdf_value$ entries are retained (they
// may be referenced by other models); orphaned rdf_node$ entries are
// cleaned up.
func (s *Store) DropRDFModel(name string) error {
	return s.write(func() error {
		id, err := s.getModelIDLocked(name)
		if err != nil {
			return err
		}
		return s.emitLocked(&wal.Record{Type: wal.TypeDropModel, ModelID: id, Name: name})
	})
}

// dropModelLocked removes the model's links, blank mappings, catalog row,
// view, and newly orphaned nodes — the applier's TypeDropModel case.
// Caller holds s.mu.
func (s *Store) dropModelLocked(id int64, name string) error {
	// Collect node IDs referenced by this model's links before deleting.
	touched := map[int64]bool{}
	s.links.ScanPartition(id, func(_ reldb.RowID, r reldb.Row) bool {
		touched[r[lcStartNodeID].Int64()] = true
		touched[r[lcEndNodeID].Int64()] = true
		return true
	})
	if _, err := s.links.TruncatePartition(id); err != nil && !errors.Is(err, reldb.ErrNoSuchPartition) {
		return err
	}
	for nodeID := range touched {
		s.removeNodeIfOrphanLocked(nodeID)
	}
	// Blank-node mappings for this model.
	var blankRows []reldb.RowID
	s.blankPK.ScanPrefix(reldb.Key{reldb.Int(id)}, func(_ reldb.Key, rid reldb.RowID) bool {
		blankRows = append(blankRows, rid)
		return true
	})
	for _, rid := range blankRows {
		if err := s.blanks.Delete(rid); err != nil {
			return err
		}
	}
	if rid, ok := s.modelPK.LookupInts(id); ok {
		if err := s.models.Delete(rid); err != nil {
			return err
		}
	}
	return s.db.DropView("rdfm_" + strings.ToLower(name))
}

// NumTriples returns the number of stored triples (links) in one model.
func (s *Store) NumTriples(model string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, err := s.getModelIDLocked(model)
	if err != nil {
		return 0, err
	}
	return s.links.PartitionLen(id), nil
}

// TotalTriples returns the number of links across all models.
func (s *Store) TotalTriples() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.links.Len()
}

// NumValues returns the number of distinct text values stored.
func (s *Store) NumValues() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.values.Len()
}

// NumNodes returns the number of distinct graph nodes (subjects/objects).
func (s *Store) NumNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodes.Len()
}
