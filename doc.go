// Package repro is a from-scratch Go reproduction of "RDF Object Type and
// Reification in the Database" (Alexander & Ravada, Oracle Corporation,
// ICDE 2006).
//
// The library implements the paper's full stack:
//
//   - internal/reldb — an embedded relational engine (heap tables, B-tree,
//     unique and function-based indexes, list partitioning, sequences,
//     views, integrity checks), standing in for the Oracle storage layer;
//   - internal/ndm — the Network Data Model analysis suite, run over the
//     RDF tables themselves (core.RDFNetwork);
//   - internal/core — the paper's contribution: the central RDF schema
//     (rdf_model$, rdf_value$, rdf_node$, rdf_link$, rdf_blank_node$), the
//     SDO_RDF_TRIPLE / SDO_RDF_TRIPLE_S object types, and streamlined
//     DBUri reification;
//   - internal/match and internal/inference — SDO_RDF_MATCH querying,
//     rulebases, the built-in RDFS rulebase, and rules indexes;
//   - internal/uniprot — the synthetic evaluation corpus;
//   - internal/experiments — the paper's evaluation: the Jena1/Jena2
//     baseline schemas, the naïve quad reification scheme and Experiment
//     I's flat-table join the paper compares against, and the harness
//     that measures every table of §7 into EXPERIMENTS.md.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results (`make experiments`
// regenerates its tables).
package repro
