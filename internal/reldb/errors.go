package reldb

import "errors"

// Sentinel errors returned by the engine. Callers match them with
// errors.Is.
var (
	// ErrSchemaMismatch reports a row that does not fit its table's schema.
	ErrSchemaMismatch = errors.New("reldb: schema mismatch")
	// ErrUniqueViolation reports an insert or update that would duplicate a
	// key in a unique index.
	ErrUniqueViolation = errors.New("reldb: unique constraint violation")
	// ErrOutOfSequence reports an insert whose key in a sequence index does
	// not rise above the last row's, or an update of such a key.
	ErrOutOfSequence = errors.New("reldb: key out of sequence")
	// ErrNoSuchRow reports an operation addressed to a row ID that does not
	// exist or has been deleted.
	ErrNoSuchRow = errors.New("reldb: no such row")
	// ErrNoSuchTable reports a lookup of an unknown table name.
	ErrNoSuchTable = errors.New("reldb: no such table")
	// ErrNoSuchIndex reports a lookup of an unknown index name.
	ErrNoSuchIndex = errors.New("reldb: no such index")
	// ErrDuplicateObject reports creation of a table, index, view, or
	// sequence whose name is already taken.
	ErrDuplicateObject = errors.New("reldb: object already exists")
	// ErrNoSuchPartition reports a partition-scoped operation on a
	// partition key with no rows.
	ErrNoSuchPartition = errors.New("reldb: no such partition")
)
