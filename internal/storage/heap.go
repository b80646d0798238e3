// Package storage implements prefdb's in-memory storage layer: paged heap
// tables addressed by RowID, hash indexes for equality lookups, and B+-tree
// indexes for range scans.
package storage

import (
	"fmt"

	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// PageSize is the number of tuple slots per heap page. Pages bound the
// allocation granularity and give RowIDs a stable two-level address, the
// same shape an on-disk heap would have. It is exported so block-aligned
// readers (the columnar segment store, tests) can align to page
// boundaries without a magic number.
const PageSize = 256

// RowID addresses a tuple within a heap: page ordinal and slot.
type RowID struct {
	Page uint32
	Slot uint32
}

// String renders the RowID as page:slot.
func (r RowID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

type page struct {
	rows [][]types.Value
	dead []bool
	live int
}

// Heap is an append-oriented paged tuple store. It is not safe for
// concurrent mutation; the engine serializes writes per table.
type Heap struct {
	schema *schema.Schema
	pages  []*page
	count  int // live tuples
}

// NewHeap creates an empty heap for tuples laid out by s.
func NewHeap(s *schema.Schema) *Heap { return &Heap{schema: s} }

// Schema returns the tuple layout.
func (h *Heap) Schema() *schema.Schema { return h.schema }

// Len returns the number of live tuples.
func (h *Heap) Len() int { return h.count }

// Pages returns the number of allocated pages (for cost accounting).
func (h *Heap) Pages() int { return len(h.pages) }

// Insert appends a tuple and returns its RowID. The tuple must match the
// schema arity, and every cell must be NULL or of its column's declared
// kind (schema.CheckTuple), so every reader may rely on a column holding
// its kind; storage does not copy the slice, so callers must not mutate it
// afterwards.
func (h *Heap) Insert(tuple []types.Value) (RowID, error) {
	if err := h.schema.CheckTuple(tuple); err != nil {
		return RowID{}, fmt.Errorf("storage: %w", err)
	}
	var p *page
	if n := len(h.pages); n > 0 && len(h.pages[n-1].rows) < PageSize {
		p = h.pages[n-1]
	} else {
		p = &page{rows: make([][]types.Value, 0, PageSize), dead: make([]bool, 0, PageSize)}
		h.pages = append(h.pages, p)
	}
	p.rows = append(p.rows, tuple)
	p.dead = append(p.dead, false)
	p.live++
	h.count++
	return RowID{Page: uint32(len(h.pages) - 1), Slot: uint32(len(p.rows) - 1)}, nil
}

// Get fetches the tuple at id; ok is false for invalid or deleted rows.
func (h *Heap) Get(id RowID) ([]types.Value, bool) {
	if int(id.Page) >= len(h.pages) {
		return nil, false
	}
	p := h.pages[id.Page]
	if int(id.Slot) >= len(p.rows) || p.dead[id.Slot] {
		return nil, false
	}
	return p.rows[id.Slot], true
}

// Delete tombstones the tuple at id; it reports whether a live tuple was
// removed.
func (h *Heap) Delete(id RowID) bool {
	if int(id.Page) >= len(h.pages) {
		return false
	}
	p := h.pages[id.Page]
	if int(id.Slot) >= len(p.rows) || p.dead[id.Slot] {
		return false
	}
	p.dead[id.Slot] = true
	p.live--
	h.count--
	return true
}

// Blocks returns the number of pages, the unit of block-wise access via
// Block.
func (h *Heap) Blocks() int { return len(h.pages) }

// Block returns page i's tuple slab, its tombstone flags and its live
// count, for block-wise readers (the executor's vectorized scan). Callers
// must not mutate the returned slices; both alias heap storage.
func (h *Heap) Block(i int) (rows [][]types.Value, dead []bool, live int) {
	p := h.pages[i]
	return p.rows, p.dead, p.live
}

// Scan visits every live tuple in storage order; the visitor returns false
// to stop early.
func (h *Heap) Scan(visit func(id RowID, tuple []types.Value) bool) {
	for pi, p := range h.pages {
		if p.live == 0 {
			continue
		}
		for si, row := range p.rows {
			if p.dead[si] {
				continue
			}
			if !visit(RowID{Page: uint32(pi), Slot: uint32(si)}, row) {
				return
			}
		}
	}
}
