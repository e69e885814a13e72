// Package core implements the paper's primary contribution: RDF storage in
// the database as an object type (SDO_RDF_TRIPLE / SDO_RDF_TRIPLE_S) over a
// central schema of global tables (rdf_model$, rdf_value$, rdf_node$,
// rdf_link$, rdf_blank_node$) layered on the Network Data Model, with
// DBUri-based streamlined reification (§4, §5).
package core

import (
	"repro/internal/reldb"
)

// Table and index names of the central schema. The trailing '$' follows
// the paper's naming.
const (
	TableModel     = "rdf_model$"
	TableValue     = "rdf_value$"
	TableNode      = "rdf_node$"
	TableLink      = "rdf_link$"
	TableBlankNode = "rdf_blank_node$"

	idxModelPK   = "rdf_model_pk"
	idxModelName = "rdf_model_name"
	idxValuePK   = "rdf_value_pk"
	idxNodePK    = "rdf_node_pk"
	idxLinkPK    = "rdf_link_pk"
	idxBlankPK   = "rdf_blank_pk" // unique (MODEL_ID, ORIG_NAME)

	// rdf_value_pk and rdf_link_pk are sequence indexes: VALUE_ID and
	// LINK_ID rise with the row ID, so the column is the index and neither
	// has a tree. rdf_link$ pays for three trees; a model's patterns read
	// them by the longer prefixes, the NDM view and the orphan check, which
	// span models, by the one-column ones.
	idxLinkSMPO = "rdf_link_smpo" // unique (START, MODEL_ID, P, CANON_END); (s): out-links
	idxLinkMP   = "rdf_link_mp"   // (MODEL_ID, P_VALUE_ID)
	idxLinkOM   = "rdf_link_om"   // (CANON_END, MODEL_ID); (o): in-links
)

// Column positions in rdf_value$ (Figure 4).
const (
	vcValueID = iota
	vcValueName
	vcValueType
	vcLiteralType
	vcLanguageType
	vcLongValue
)

// Column positions in rdf_link$ (Figure 4).
const (
	lcLinkID = iota
	lcStartNodeID
	lcPValueID
	lcEndNodeID
	lcCanonEndNodeID
	lcLinkType
	lcCost
	lcContext
	lcReifLink
	lcModelID
)

// Column positions in rdf_model$.
const (
	mcModelID = iota
	mcModelName
	mcTableName
	mcColumnName
)

// CONTEXT codes (§5.1, §5.2): a Direct triple was entered as a fact; an
// Indirect triple exists only as the base of a reification.
const (
	ContextDirect   = "D"
	ContextIndirect = "I"
)

func valueSchema() *reldb.Schema {
	return reldb.NewSchema(TableValue,
		reldb.Column{Name: "VALUE_ID", Kind: reldb.KindInt, Ascending: true},
		reldb.Column{Name: "VALUE_NAME", Kind: reldb.KindString},
		reldb.Column{Name: "VALUE_TYPE", Kind: reldb.KindString},
		reldb.Column{Name: "LITERAL_TYPE", Kind: reldb.KindString, Nullable: true},
		reldb.Column{Name: "LANGUAGE_TYPE", Kind: reldb.KindString, Nullable: true},
		reldb.Column{Name: "LONG_VALUE", Kind: reldb.KindString, Nullable: true},
	)
}

func linkSchema() *reldb.Schema {
	return reldb.NewSchema(TableLink,
		reldb.Column{Name: "LINK_ID", Kind: reldb.KindInt, Ascending: true},
		reldb.Column{Name: "START_NODE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "P_VALUE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "END_NODE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "CANON_END_NODE_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "LINK_TYPE", Kind: reldb.KindString},
		reldb.Column{Name: "COST", Kind: reldb.KindInt},
		reldb.Column{Name: "CONTEXT", Kind: reldb.KindString},
		reldb.Column{Name: "REIF_LINK", Kind: reldb.KindString},
		reldb.Column{Name: "MODEL_ID", Kind: reldb.KindInt},
	)
}

func modelSchema() *reldb.Schema {
	return reldb.NewSchema(TableModel,
		reldb.Column{Name: "MODEL_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "MODEL_NAME", Kind: reldb.KindString},
		reldb.Column{Name: "TABLE_NAME", Kind: reldb.KindString, Nullable: true},
		reldb.Column{Name: "COLUMN_NAME", Kind: reldb.KindString, Nullable: true},
	)
}

func nodeSchema() *reldb.Schema {
	return reldb.NewSchema(TableNode,
		reldb.Column{Name: "NODE_ID", Kind: reldb.KindInt}, // = VALUE_ID
		reldb.Column{Name: "ACTIVE", Kind: reldb.KindBool},
	)
}

func blankNodeSchema() *reldb.Schema {
	return reldb.NewSchema(TableBlankNode,
		reldb.Column{Name: "MODEL_ID", Kind: reldb.KindInt},
		reldb.Column{Name: "ORIG_NAME", Kind: reldb.KindString},
		reldb.Column{Name: "VALUE_ID", Kind: reldb.KindInt},
	)
}
