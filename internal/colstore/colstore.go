// Package colstore implements the read-optimized side of a prefdb table:
// an immutable, typed columnar segment store compacted from sealed heap
// pages. Each segment covers a fixed page-aligned row range as typed
// column vectors (int64/float64 slices, dictionary-encoded strings, bools)
// with null and deleted bitmaps, plus a per-column zone map (min/max, null
// count, live count) that lets scans skip whole segments against sargable
// filter conjuncts before any kernel runs. The heap admits only NULL or a
// column's declared kind, so every column is exactly one vector of that
// kind. Its row views are the heap's own tuples: sealed pages never
// change, so the store keeps no second copy of the rows.
//
// A Store is built from a heap at one table version and never mutated;
// DML invalidates it through the catalog's atomic version counters and a
// later read rebuilds. Hot write paths therefore stay on the row heap, and
// readers see segments plus the heap tail (pages ≥ SealedPages).
package colstore

import (
	"prefdb/internal/debug"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// SegmentPages is how many sealed heap pages one segment covers
// (SegmentPages × storage.PageSize rows), balancing zone-map resolution
// against per-segment overhead.
const SegmentPages = 16

// BlockSource is the page-oriented view of row storage the compactor
// consumes; *storage.Heap satisfies it directly.
type BlockSource interface {
	Schema() *schema.Schema
	Blocks() int
	Block(i int) (rows [][]types.Value, dead []bool, live int)
}

// Zone summarizes one column of one segment for pruning: the min/max over
// the segment's live non-null values plus null/non-null live counts. Min
// and Max are set only when NonNull > 0.
type Zone struct {
	Min, Max types.Value
	Nulls    int // live NULL cells
	NonNull  int // live non-NULL cells
}

// Column is one attribute of a segment: the dense vector of its declared
// kind (Ints, Floats, Codes+Dict or Bools) with the Nulls bitmap marking
// NULL slots. Dead and NULL slots hold zero values. The heap admits only
// NULL or the declared kind in a column, so every column has its vector,
// and the vector is the column's only physical form: every window a scan
// reads is a slice of it.
type Column struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Codes  []int32 // indexes into Dict
	Dict   []string
	Bools  []bool
	Nulls  []bool // nil when the column has no NULL slot
	Zone   Zone
}

// Segment is an immutable page-aligned slab of rows in columnar layout.
type Segment struct {
	FirstPage int // heap page ordinal of the first covered page
	Rows      int // slots, dead included
	Live      int
	Deleted   []bool // nil when every slot is live
	Cols      []Column

	// tuples are the heap's own tuples for the covered pages, in slot
	// order. Sealed pages never change (the heap only appends and
	// tombstones, and UPDATE inserts a copied tuple), so scans alias
	// them without copying.
	// prefdb:segment-view tuples are immutable for the store's lifetime
	tuples [][]types.Value
}

// Tuple returns the row view at slot i (valid for the store's lifetime;
// callers must not mutate it).
func (s *Segment) Tuple(i int) []types.Value { return s.tuples[i] }

// Views returns the row views for slots [lo, hi) — the borrowed tuple
// window a columnar batch carries next to its vectors.
// prefdb:segment-view the window aliases the heap's sealed tuples
func (s *Segment) Views(lo, hi int) [][]types.Value { return s.tuples[lo:hi] }

// Dead reports whether slot i is tombstoned.
func (s *Segment) Dead(i int) bool { return s.Deleted != nil && s.Deleted[i] }

// ColVecs fills vecs (one slot per attribute, len(s.Cols)) with borrowed
// windows [lo, hi) of every column's typed vectors, the direct-on-column
// form batch kernels read. Every slice aliases segment storage, never a
// copy, under the prefdb:col-view contract.
func (s *Segment) ColVecs(lo, hi int, vecs []types.ColVec) {
	for ord := range s.Cols {
		c := &s.Cols[ord]
		v := types.ColVec{}
		switch c.Kind {
		case types.KindInt:
			v.Ints = c.Ints[lo:hi]
		case types.KindFloat:
			v.Floats = c.Floats[lo:hi]
		case types.KindString:
			v.Codes = c.Codes[lo:hi]
			v.Dict = c.Dict
		case types.KindBool:
			v.Bools = c.Bools[lo:hi]
		}
		if c.Nulls != nil {
			v.Nulls = c.Nulls[lo:hi]
		}
		vecs[ord] = v
	}
}

// Store is the columnar image of one table's sealed pages at one version.
type Store struct {
	Version     uint64
	SealedPages int // heap pages covered; the heap tail starts here
	Segments    []*Segment
}

// Live returns the number of live rows held in segments.
func (st *Store) Live() int {
	n := 0
	for _, seg := range st.Segments {
		n += seg.Live
	}
	return n
}

// Build compacts h's sealed pages (every page except a trailing partial
// one) into a columnar store stamped with the table version the caller
// read. Every string column draws its codes from dict, the table's
// shared dictionary, so the segments of this build — and of every other
// build over the same dict — agree on what each code means, and kernels
// may compare codes across segments directly. The source must not be
// mutated concurrently; the engine serializes writes against queries, so
// the catalog's scan-time build reads a stable heap.
func Build(h BlockSource, version uint64, dict *TableDict) *Store {
	st := &Store{Version: version}
	sealed := h.Blocks()
	if sealed > 0 {
		if rows, _, _ := h.Block(sealed - 1); len(rows) < storage.PageSize {
			sealed--
		}
	}
	st.SealedPages = sealed
	for first := 0; first < sealed; first += SegmentPages {
		last := first + SegmentPages
		if last > sealed {
			last = sealed
		}
		if seg := buildSegment(h, h.Schema(), first, last, dict); seg != nil {
			st.Segments = append(st.Segments, seg)
		}
	}
	return st
}

func buildSegment(h BlockSource, s *schema.Schema, first, last int, dict *TableDict) *Segment {
	seg := &Segment{FirstPage: first}
	for p := first; p < last; p++ {
		rows, _, live := h.Block(p)
		seg.Rows += len(rows)
		seg.Live += live
	}
	seg.tuples = make([][]types.Value, 0, seg.Rows)
	for p := first; p < last; p++ {
		rows, dead, _ := h.Block(p)
		for i, d := range dead {
			if d {
				if seg.Deleted == nil {
					seg.Deleted = make([]bool, seg.Rows)
				}
				seg.Deleted[len(seg.tuples)+i] = true
			}
		}
		seg.tuples = append(seg.tuples, rows...)
	}
	seg.Cols = make([]Column, s.Len())
	for ord := range seg.Cols {
		buildColumn(h, &seg.Cols[ord], s.Columns[ord].Kind, first, last, ord, seg, dict)
	}
	if debug.Enabled {
		seg.checkColumns()
	}
	return seg
}

// buildColumn encodes one attribute of the segment's row range as the
// typed vector of its declared kind, in one pass: the heap holds only
// NULL or that kind in the column. String codes come from the shared
// table dictionary, through a segment-local front cache so the dictionary
// lock is taken once per distinct string.
func buildColumn(h BlockSource, c *Column, kind types.Kind, first, last, ord int, seg *Segment, shared *TableDict) {
	c.Kind = kind
	switch kind {
	case types.KindInt:
		c.Ints = make([]int64, seg.Rows)
	case types.KindFloat:
		c.Floats = make([]float64, seg.Rows)
	case types.KindString:
		c.Codes = make([]int32, seg.Rows)
	case types.KindBool:
		c.Bools = make([]bool, seg.Rows)
	}
	var dict map[string]int32
	if kind == types.KindString {
		dict = make(map[string]int32)
	}
	slot := 0
	for p := first; p < last; p++ {
		rows, dead, _ := h.Block(p)
		for i, row := range rows {
			switch v := row[ord]; {
			case v.IsNull():
				if c.Nulls == nil {
					c.Nulls = make([]bool, seg.Rows)
				}
				c.Nulls[slot] = true
				if !dead[i] {
					c.Zone.Nulls++
				}
			case !dead[i]:
				switch kind {
				case types.KindInt:
					c.Ints[slot] = v.AsInt()
				case types.KindFloat:
					c.Floats[slot] = v.AsFloat()
				case types.KindString:
					sv := v.AsString()
					code, ok := dict[sv]
					if !ok {
						code = shared.intern(ord, sv)
						dict[sv] = code
					}
					c.Codes[slot] = code
				case types.KindBool:
					c.Bools[slot] = v.AsBool()
				}
				zoneAdd(&c.Zone, v)
			}
			slot++
		}
	}
	// Dead slots with NULL cells also set the bitmap above; that is
	// harmless (dead slots never reach results) and keeps the
	// encode loop branch-light.
	if kind == types.KindString {
		// Publish the shared dictionary snapshot covering every code this
		// segment assigned (it may also cover codes other segments use —
		// the whole point of sharing).
		c.Dict = shared.snapshot(ord)
	}
}

// zoneAdd folds one live non-null value into the zone.
func zoneAdd(z *Zone, v types.Value) {
	if z.NonNull == 0 {
		z.Min, z.Max = v, v
	} else {
		if cmp, ok := types.Compare(v, z.Min); ok && cmp < 0 {
			z.Min = v
		}
		if cmp, ok := types.Compare(v, z.Max); ok && cmp > 0 {
			z.Max = v
		}
	}
	z.NonNull++
}

// checkColumns asserts in prefdbdebug builds that every column carries
// the vector of its declared kind over every slot, and that its zone map
// is sound: every live non-null heap value lies within [Min, Max] and the
// null/non-null counts add up to the live count.
func (seg *Segment) checkColumns() {
	for ord := range seg.Cols {
		c := &seg.Cols[ord]
		n := -1
		switch c.Kind {
		case types.KindInt:
			n = len(c.Ints)
		case types.KindFloat:
			n = len(c.Floats)
		case types.KindString:
			n = len(c.Codes)
		case types.KindBool:
			n = len(c.Bools)
		}
		debug.Assertf(n == seg.Rows, "segment column %d (%s) carries %d slots of its vector, want %d", ord, c.Kind, n, seg.Rows)
		z := &c.Zone
		debug.SameLen("segment zone live coverage", z.Nulls+z.NonNull, seg.Live)
		for i := 0; i < seg.Rows; i++ {
			if seg.Dead(i) {
				continue
			}
			v := seg.tuples[i][ord]
			if v.IsNull() {
				continue
			}
			debug.ZoneContains(z.Min, z.Max, v)
		}
	}
}
