package prel

import (
	"prefdb/internal/debug"
	"prefdb/internal/types"
)

// Batch is a morsel-sized block of rows in batch layout: the tuple
// pointers, the ⟨S,C⟩ pairs as plain float columns prefer kernels update
// in place, and a selection vector of live row indices. Vectorized
// operators (internal/exec) process one Batch per call instead of one row
// per call, so dynamic dispatch, guard polling and stats accounting
// amortize over the whole block.
//
// A batch comes in two forms:
//
//   - Row form (Push/PushTuple/FillRows): Tuples holds the row views,
//     Cols and View are nil. This is the only form non-columnar sources
//     produce.
//   - Columnar form (SetColumnar): Cols holds borrowed typed column
//     vectors and View the matching row views (the heap's own tuples),
//     both straight from a colstore segment; Tuples stays empty. Filter
//     and score kernels read Cols directly; anything that needs tuples
//     reads Rows(), which is the late-materialization boundary.
//
// Layout invariants:
//
//   - len(S) == len(C) == len(Known) == Cap(); Sel holds indices into
//     that range, strictly increasing, so selected rows keep their input
//     order.
//   - Tuples/View alias the producer's tuple storage and are never
//     mutated through the batch; tuples are immutable by pipeline
//     contract, and Cols obeys the prefdb:col-view contract above.
//   - S/C/Known are private columns (copied or zeroed at fill time), so
//     prefer kernels may combine pairs in place without touching shared
//     row storage.
//
// Aliasing contract: a Batch returned by a batch iterator is valid only
// until the next nextBatch call on the same iterator. Consumers that keep
// rows across calls must copy them out first (AppendRows); the Row copies
// share tuple storage, which is safe because tuples are immutable.
type Batch struct {
	Tuples [][]types.Value
	// ⟨S,C⟩ as structure-of-arrays: score, confidence, and whether the
	// pair has been scored at all (types.SC.Known). The zero triple is
	// the bottom pair ⟨⊥,0⟩.
	S     []float64
	C     []float64
	Known []bool
	Sel   []int32

	// Columnar form. Cols[ord] is the vector window for attribute ord;
	// View[i] is the row view for slot i. Both borrowed from the
	// producing segment, nil in row form.
	Cols []types.ColVec
	View [][]types.Value

	// fp fingerprints the borrowed vectors in prefdbdebug builds so
	// Reset can assert no kernel wrote through them.
	fp colsFingerprint
}

// NewBatch returns a batch with capacity for n rows.
func NewBatch(n int) *Batch {
	return &Batch{
		Tuples: make([][]types.Value, 0, n),
		S:      make([]float64, 0, n),
		C:      make([]float64, 0, n),
		Known:  make([]bool, 0, n),
		Sel:    make([]int32, 0, n),
	}
}

// Reset empties the batch for refilling, keeping the backing arrays. In
// prefdbdebug builds the borrowed vectors of a columnar batch are
// fingerprint-checked here — the end of their borrow — so a kernel that
// wrote through the prefdb:col-view contract is caught on the very next
// refill; the fingerprint is then cleared, letting the producer reuse
// its vector slots for the next window.
func (b *Batch) Reset() {
	if debug.Enabled && b.Cols != nil {
		b.fp.check(b.Cols)
		b.fp.clear()
	}
	b.Tuples = b.Tuples[:0]
	b.S = b.S[:0]
	b.C = b.C[:0]
	b.Known = b.Known[:0]
	b.Sel = b.Sel[:0]
	b.Cols = nil
	b.View = nil
}

// SetColumnar resets the batch into columnar form over a segment window:
// cols are the borrowed per-attribute vectors and view the matching row
// views (len(view) == Cap). The ⟨S,C⟩ columns are zeroed
// to ⟨⊥,0⟩; the caller appends the window's live slots to Sel.
func (b *Batch) SetColumnar(cols []types.ColVec, view [][]types.Value) {
	b.Reset()
	b.Cols, b.View = cols, view
	n := len(view)
	b.S = zeroFloats(b.S, n)
	b.C = zeroFloats(b.C, n)
	b.Known = zeroBools(b.Known, n)
	if debug.Enabled {
		b.fp.capture(cols)
	}
}

// Columnar reports whether the batch is in columnar form.
func (b *Batch) Columnar() bool { return b.View != nil }

// Rows returns the batch's tuple view: the owned Tuples in row form, or
// the borrowed segment row views in columnar form. This is the
// late-materialization boundary — operators that can run on Cols should
// not call it; exec counts the selected rows of every batch that crosses
// it as materialized (Stats.RowsMaterialized).
func (b *Batch) Rows() [][]types.Value {
	if b.View != nil {
		return b.View
	}
	return b.Tuples
}

// Push appends one row to the batch and selects it.
func (b *Batch) Push(r Row) {
	b.Sel = append(b.Sel, int32(len(b.Tuples)))
	b.Tuples = append(b.Tuples, r.Tuple)
	b.S = append(b.S, r.SC.Score)
	b.C = append(b.C, r.SC.Conf)
	b.Known = append(b.Known, r.SC.Known)
}

// PushTuple appends one tuple with the default ⟨⊥,0⟩ pair and selects it
// (the shape base-table scans produce).
func (b *Batch) PushTuple(t []types.Value) {
	b.Sel = append(b.Sel, int32(len(b.Tuples)))
	b.Tuples = append(b.Tuples, t)
	b.S = append(b.S, 0)
	b.C = append(b.C, 0)
	b.Known = append(b.Known, false)
}

// FillRows resets the batch and fills it from a row slice (all selected).
func (b *Batch) FillRows(rows []Row) {
	b.Reset()
	for _, r := range rows {
		b.Push(r)
	}
	b.Check()
}

// SCAt returns slot j's ⟨S,C⟩ pair.
func (b *Batch) SCAt(j int32) types.SC {
	return types.SC{Score: b.S[j], Conf: b.C[j], Known: b.Known[j]}
}

// SetSC stores slot j's ⟨S,C⟩ pair.
func (b *Batch) SetSC(j int32, sc types.SC) {
	b.S[j], b.C[j], b.Known[j] = sc.Score, sc.Conf, sc.Known
}

// Check asserts the layout invariants above in prefdbdebug builds: the
// ⟨S,C⟩ columns aligned with the row capacity and the selection vector
// strictly increasing within bounds. A no-op (inlined away) in normal
// builds.
func (b *Batch) Check() {
	if !debug.Enabled {
		return
	}
	n := b.Cap()
	debug.SameLen("batch S column", len(b.S), n)
	debug.SameLen("batch C column", len(b.C), n)
	debug.SameLen("batch Known column", len(b.Known), n)
	debug.SelValid(b.Sel, n)
}

// Live returns the number of selected rows.
func (b *Batch) Live() int { return len(b.Sel) }

// Cap returns the number of rows the batch holds (selected or not).
func (b *Batch) Cap() int {
	if b.View != nil {
		return len(b.View)
	}
	return len(b.Tuples)
}

// Row returns the i-th selected row (a value copy sharing tuple storage).
func (b *Batch) Row(i int) Row {
	j := b.Sel[i]
	return Row{Tuple: b.rowAt(j), SC: b.SCAt(j)}
}

// AppendRows copies the selected rows out of the batch, appending to dst.
// The copies remain valid after the batch is reused (segment row views
// outlive the batch: their arenas are immutable and owned by the store).
func (b *Batch) AppendRows(dst []Row) []Row {
	b.Check()
	for _, j := range b.Sel {
		dst = append(dst, Row{Tuple: b.rowAt(j), SC: b.SCAt(j)})
	}
	return dst
}

func (b *Batch) rowAt(j int32) []types.Value {
	if b.View != nil {
		return b.View[j]
	}
	return b.Tuples[j]
}

func zeroFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func zeroBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// colsFingerprint samples the borrowed column vectors (first, middle and
// last element of each typed slice) so prefdbdebug builds can detect a
// kernel writing through the prefdb:col-view contract between
// SetColumnar and the next Reset. Sampling keeps the check O(columns),
// not O(rows), so debug builds stay usable at scale.
type colsFingerprint struct {
	ints   [][3]int64
	floats [][3]float64
	codes  [][3]int32
	bools  [][3]bool
	nulls  [][3]bool
}

func sample3[T comparable](s []T) [3]T {
	var out [3]T
	if len(s) > 0 {
		out[0], out[1], out[2] = s[0], s[len(s)/2], s[len(s)-1]
	}
	return out
}

func (f *colsFingerprint) clear() {
	f.ints, f.floats, f.codes, f.bools, f.nulls = f.ints[:0], f.floats[:0], f.codes[:0], f.bools[:0], f.nulls[:0]
}

func (f *colsFingerprint) capture(cols []types.ColVec) {
	f.clear()
	for i := range cols {
		f.ints = append(f.ints, sample3(cols[i].Ints))
		f.floats = append(f.floats, sample3(cols[i].Floats))
		f.codes = append(f.codes, sample3(cols[i].Codes))
		f.bools = append(f.bools, sample3(cols[i].Bools))
		f.nulls = append(f.nulls, sample3(cols[i].Nulls))
	}
}

func (f *colsFingerprint) check(cols []types.ColVec) {
	if len(f.ints) != len(cols) {
		return
	}
	for i := range cols {
		ok := f.ints[i] == sample3(cols[i].Ints) &&
			f.floats[i] == sample3(cols[i].Floats) &&
			f.codes[i] == sample3(cols[i].Codes) &&
			f.bools[i] == sample3(cols[i].Bools) &&
			f.nulls[i] == sample3(cols[i].Nulls)
		debug.Assertf(ok, "borrowed column vector %d mutated between SetColumnar and Reset (prefdb:col-view contract)", i)
	}
}
