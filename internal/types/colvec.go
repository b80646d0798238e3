package types

// ColVec is one attribute of a columnar batch: a borrowed window of the
// dense typed vector a colstore segment holds. Exactly one of Ints /
// Floats / Codes / Bools is set, the one of the column's declared kind
// (INT, FLOAT, TEXT, BOOL), so a kernel compiled against the schema knows
// which to read. Indices are batch-local: the ColVec slices, the batch's
// row views and its selection vector all address the same 0..Cap window.
//
// Borrowed-vector contract (prefdb:col-view): every slice aliases
// segment storage shared by concurrent readers. Kernels may only read;
// writing through a ColVec corrupts the store for every other query.
// The scratchalias analyzer enforces this statically, and prefdbdebug
// builds fingerprint the vectors when a batch borrows them and re-check
// on reuse.
type ColVec struct {
	Ints   []int64 // prefdb:col-view
	Floats []float64
	Codes  []int32  // dictionary codes (string columns)
	Dict   []string // the segment's snapshot of the table dictionary
	Bools  []bool
	Nulls  []bool // nil when the window has no NULLs
}
