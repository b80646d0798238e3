// Fixture for the scratchalias analyzer: selection vectors and scratch
// buffers must not escape their operator without a copy.
package scratchalias

import (
	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// segScratch is a stand-in for the executor's per-caller scratch; the
// analyzer matches it by type name.
type segScratch struct {
	sel    []int32
	scores []float64
}

type op struct {
	stash []int32
	scr   segScratch
}

// goodCopy hands out a defensive copy: clean.
func goodCopy(b *prel.Batch) []int32 {
	out := make([]int32, len(b.Sel))
	copy(out, b.Sel)
	return out
}

// goodBlessed writes derived values back into the scratch fields the
// contract reserves for them: clean.
func goodBlessed(o *op, b *prel.Batch) {
	o.scr.sel = append(o.scr.sel[:0], b.Sel...)
}

// badStash parks a live selection vector in operator state.
func badStash(o *op, b *prel.Batch) {
	o.stash = b.Sel // want `stored into field`
}

// badReturn leaks the raw selection vector to the caller, through a
// local-variable chain.
func badReturn(b *prel.Batch) []int32 {
	sel := b.Sel
	trimmed := sel[:1]
	return trimmed // want `returned raw`
}

// badSend ships scratch storage across a goroutine boundary.
func badSend(scr *segScratch, ch chan []float64) {
	ch <- scr.scores // want `sent on a channel`
}

// sanctioned documents a deliberate handoff.
func sanctioned(b *prel.Batch) []int32 {
	return b.Sel // prefdb:alias-ok caller consumes before the next pull, documented in its contract
}

// Segment is a stand-in for the columnar store's segment; the analyzer
// matches the Tuple accessor by type name and the field by its marker.
type Segment struct {
	// prefdb:segment-view immutable for the store's lifetime
	tuples [][]int64
}

// Tuple hands out a shared immutable row view.
func (s *Segment) Tuple(i int) []int64 { return s.tuples[i] }

type viewOp struct {
	view []int64
}

// goodViewStash parks a segment view in operator state: the storage is
// immutable and shared by contract, so zero-copy aliasing is the point.
func goodViewStash(o *viewOp, s *Segment) {
	o.view = s.Tuple(3)
}

// goodViewReturn hands a view straight out: clean.
func goodViewReturn(s *Segment) []int64 { return s.Tuple(0) }

// goodViewSend ships a read-only view across a goroutine boundary: clean.
func goodViewSend(s *Segment, ch chan []int64) {
	ch <- s.Tuple(1)
}

// badViewWrite mutates shared immutable storage through the accessor.
func badViewWrite(s *Segment) {
	s.Tuple(0)[0] = 1 // want `segment view written through`
}

// badViewWriteChain mutates through a local-variable chain.
func badViewWriteChain(s *Segment) {
	v := s.Tuple(1)
	v[2] = 9 // want `segment view written through`
}

// badViewWriteField mutates through the marked field itself.
func badViewWriteField(s *Segment) {
	s.tuples[0][1] = 5 // want `segment view written through`
}

// colOp carries a field declared under the borrowed-vector marker; the
// analyzer matches it the same way cross-package code matches types.ColVec.
type colOp struct {
	// prefdb:col-view borrowed from the segment for the batch's lifetime
	ints []int64
	keep types.ColVec
}

// goodColRead reads through a borrowed column vector: clean — that is what
// the direct-on-column kernels do.
func goodColRead(b *prel.Batch) int64 { return b.Cols[0].Ints[3] }

// goodColStash parks borrowed vectors in operator state: borrowing is the
// point of the contract; only writes are forbidden.
func goodColStash(o *colOp, b *prel.Batch) { o.keep = b.Cols[0] }

// goodColSend ships a read-only vector across a goroutine boundary: clean.
func goodColSend(v types.ColVec, ch chan []float64) { ch <- v.Floats }

// badColWrite mutates segment storage through the batch's vector set.
func badColWrite(b *prel.Batch) {
	b.Cols[0].Ints[1] = 9 // want `borrowed column vector written through`
}

// badColWriteChain mutates through a local-variable-and-slice chain.
func badColWriteChain(v types.ColVec) {
	codes := v.Codes[1:]
	codes[0] = 7 // want `borrowed column vector written through`
}

// badColWriteMarked mutates through the marked field.
func badColWriteMarked(o *colOp) {
	o.ints[2] = 5 // want `borrowed column vector written through`
}

// sanctionedColWrite documents a vector that is fixture-local scratch, not
// a real borrow.
func sanctionedColWrite(v types.ColVec) {
	v.Bools[0] = true // prefdb:alias-ok vector built locally for the test, no segment behind it
}
