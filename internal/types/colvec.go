package types

// ColVec is one attribute of a columnar batch: borrowed windows of the
// typed vectors a colstore segment holds (exactly one of Ints / Floats /
// Codes / Bools set for a typed column, all nil for a mixed-kind one).
// Indices are batch-local: the ColVec slices, the batch's row views and
// its selection vector all address the same 0..Cap window.
//
// Borrowed-vector contract (prefdb:col-view): every slice aliases
// segment storage shared by concurrent readers. Kernels may only read;
// writing through a ColVec corrupts the store for every other query.
// The scratchalias analyzer enforces this statically, and prefdbdebug
// builds fingerprint the vectors when a batch borrows them and re-check
// on reuse.
// Run-length form: an RLE-encoded int or code column hands out its runs
// instead of a dense vector (Ints/Codes stay nil). RunVals or RunCodes
// holds one value per run and RunEnds the run's exclusive end slot in
// *segment* coordinates; batch-local slot i corresponds to segment slot
// RunBase+i. Run-aware kernels evaluate once per run; kernels without a
// run arm treat the column as untyped and fall back to the row views.
type ColVec struct {
	Ints   []int64 // prefdb:col-view
	Floats []float64
	Codes  []int32  // dictionary codes (string columns)
	Dict   []string // segment dictionary the Codes index into
	Bools  []bool
	Nulls  []bool // nil when the window has no NULLs

	RunVals  []int64 // RLE int runs (one value per run)
	RunCodes []int32 // RLE code runs (with Dict set)
	RunEnds  []int32 // exclusive end slot of each run, segment-relative
	RunBase  int32   // segment slot of batch-local slot 0
}

// HasRuns reports whether the window is in run-length form.
func (cv *ColVec) HasRuns() bool { return cv.RunEnds != nil }

// RunAt returns the index (into RunVals/RunCodes/RunEnds) of the run
// covering batch-local slot i, starting the scan at hint (callers iterate
// ascending slots and pass the previous result, so the walk is amortized
// O(runs) per batch).
func (cv *ColVec) RunAt(i int32, hint int) int {
	abs := cv.RunBase + i
	k := hint
	for cv.RunEnds[k] <= abs {
		k++
	}
	return k
}
