// Package colstore implements the read-optimized side of a prefdb table:
// an immutable, typed columnar segment store compacted from sealed heap
// pages. Each segment covers a fixed page-aligned row range as typed
// column vectors (int64/float64 slices, dictionary-encoded strings, bools)
// with null and deleted bitmaps, plus a per-column zone map (min/max, null
// count, live count) that lets scans skip whole segments against sargable
// filter conjuncts before any kernel runs. Its row views are the heap's
// own tuples: sealed pages never change, so the store keeps no second copy
// of the rows.
//
// A Store is built from a heap at one table version and never mutated;
// DML invalidates it through the catalog's atomic version counters and a
// later read rebuilds. Hot write paths therefore stay on the row heap, and
// readers see segments plus the heap tail (pages ≥ SealedPages).
package colstore

import (
	"math/bits"
	"sort"

	"prefdb/internal/debug"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// SegmentPages is how many sealed heap pages one segment covers
// (SegmentPages × storage.PageSize rows), balancing zone-map resolution
// against per-segment overhead.
const SegmentPages = 16

// packMaxWidth is the widest frame-of-reference encoding an int column
// accepts: when the zone's [min, max] span fits in at most this many bits
// the vector is bit-packed (Packed/Width/Base) instead of stored as raw
// int64s, halving (or better) its footprint. Wider spans stay on Ints —
// past 32 bits the space saving no longer pays for the unpack.
const packMaxWidth = 32

// rleMinRun is the acceptance threshold for run-length encoding: an int or
// code vector trades its dense form for runs only when the average run is
// at least this long (run count ≪ length), so run-aware kernels that
// evaluate once per run always amortize over many rows. The builder
// attempts the encoding only on columns whose zone map is Valid (a typed
// column with live non-null values — the same metadata that drives
// pruning and pack widths).
const rleMinRun = 8

// BlockSource is the page-oriented view of row storage the compactor
// consumes; *storage.Heap satisfies it directly.
type BlockSource interface {
	Schema() *schema.Schema
	Blocks() int
	Block(i int) (rows [][]types.Value, dead []bool, live int)
}

// Zone summarizes one column of one segment for pruning: the min/max over
// the segment's live non-null values plus null/non-null live counts. Valid
// is true only for typed (uniformly kinded) columns with at least one live
// non-null value; mixed-kind columns never prune.
type Zone struct {
	Min, Max types.Value
	Nulls    int // live NULL cells
	NonNull  int // live non-NULL cells
	Valid    bool
}

// Column is one attribute of a segment: a typed vector (Ints, Floats,
// Codes+Dict or Bools) with the Nulls bitmap marking NULL slots. Dead and
// NULL slots hold zero values. When the pages held a live value that does
// not match the declared kind (dynamic typing permits that), the column
// carries no vector at all, only its zone counts; kernels then read the
// segment's row views.
//
// An int column whose zone span fits packMaxWidth bits trades Ints for the
// frame-of-reference encoding: Packed holds Width-bit offsets from Base,
// densely concatenated into uint64 words. Kernels unpack a block at a time
// into scratch (Unpack); dead and NULL slots unpack as Base, which is fine
// because the Nulls bitmap and the deleted bitmap guard every read.
type Column struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Codes  []int32 // indexes into Dict
	Dict   []string
	Bools  []bool
	Nulls  []bool // nil when the column has no NULL slot
	Zone   Zone

	Packed []uint64 // bit-packed int vector (replaces Ints when set)
	Width  uint8    // bits per packed value, in (0, packMaxWidth]
	Base   int64    // frame of reference: value = Base + packed bits

	// Run-length encoding (replaces Ints or Codes when the column's run
	// count is ≪ its length; see rleMinRun): RunVals/RunCodes hold one
	// value per run, RunEnds the run's exclusive end slot. Dead and NULL
	// slots are absorbed into the enclosing run — they decode as the run's
	// value, which never surfaces because the bitmaps guard every read,
	// exactly as with the zero filler of dense vectors.
	RunVals  []int64
	RunCodes []int32 // code runs of a string column (with Dict)
	RunEnds  []int32
}

// runOf locates the run covering slot i by binary search over the run
// ends (runs are contiguous and cover every slot).
func (c *Column) runOf(i int) int {
	return sort.Search(len(c.RunEnds), func(k int) bool { return c.RunEnds[k] > int32(i) })
}

// packedBits extracts the Width-bit word of slot i (which may straddle a
// word boundary).
func (c *Column) packedBits(i int) uint64 {
	w := uint(c.Width)
	bit := uint(i) * w
	word, off := bit/64, bit%64
	v := c.Packed[word] >> off
	if off+w > 64 {
		v |= c.Packed[word+1] << (64 - off)
	}
	return v & (1<<w - 1)
}

// Unpack decodes packed slots [lo, hi) into dst (grown if its capacity
// is short), returning dst[:hi-lo]. Dead and NULL slots decode as Base;
// callers mask them via the Nulls/Deleted bitmaps, exactly as they would
// ignore the zero filler of an unpacked Ints vector.
func (c *Column) Unpack(lo, hi int, dst []int64) []int64 {
	if cap(dst) < hi-lo {
		dst = make([]int64, hi-lo)
	}
	dst = dst[:hi-lo]
	for i := range dst {
		dst[i] = c.Base + int64(c.packedBits(lo+i))
	}
	return dst
}

// packInts converts an eligible int vector to the frame-of-reference
// bit-packed encoding. The width comes from the zone's [min, max] span —
// exact metadata, so the round-trip is lossless for every live non-null
// slot; other slots pack as zero bits and never surface.
func (c *Column) packInts(seg *Segment) {
	if c.Ints == nil || !c.Zone.Valid || c.Zone.Min.Kind() != types.KindInt {
		return
	}
	base := c.Zone.Min.AsInt()
	span := uint64(c.Zone.Max.AsInt()) - uint64(base) // two's-complement safe
	width := uint(bits.Len64(span))
	if width == 0 {
		width = 1
	}
	if width > packMaxWidth {
		return
	}
	packed := make([]uint64, (seg.Rows*int(width)+63)/64)
	for i, v := range c.Ints {
		if (c.Nulls != nil && c.Nulls[i]) || seg.Dead(i) {
			continue // zero bits; guarded by the bitmaps on every read
		}
		bitsVal := uint64(v - base)
		bit := uint(i) * width
		word, off := bit/64, bit%64
		packed[word] |= bitsVal << off
		if off+width > 64 {
			packed[word+1] |= bitsVal >> (64 - off)
		}
	}
	ints := c.Ints
	c.Packed, c.Width, c.Base = packed, uint8(width), base
	c.Ints = nil
	if debug.Enabled {
		// Bit-packed widths must round-trip: every live non-null slot
		// decodes back to the exact int64 the heap held.
		for i, v := range ints {
			if (c.Nulls != nil && c.Nulls[i]) || seg.Dead(i) {
				continue
			}
			debug.Assertf(c.Base+int64(c.packedBits(i)) == v,
				"bit-packed int round-trip failed at slot %d: packed %d, want %d (width %d base %d)",
				i, c.Base+int64(c.packedBits(i)), v, c.Width, c.Base)
		}
	}
}

// runLength builds the run decomposition of a dense vector: one entry per
// maximal run of equal live non-null values, with dead and NULL slots
// absorbed into the enclosing run (leading ones into the first run). It
// returns nil when the column has no live non-null slot or when the run
// count misses the rleMinRun acceptance threshold.
func runLength[T comparable](vec []T, nulls []bool, seg *Segment) (vals []T, ends []int32) {
	open := false
	var cur T
	for i, v := range vec {
		if (nulls != nil && nulls[i]) || seg.Dead(i) {
			continue
		}
		if !open {
			open, cur = true, v
			continue
		}
		if v != cur {
			vals = append(vals, cur)
			ends = append(ends, int32(i))
			cur = v
			if len(vals)*rleMinRun > seg.Rows {
				return nil, nil // too many runs already: keep the dense form
			}
		}
	}
	if !open {
		return nil, nil
	}
	vals = append(vals, cur)
	ends = append(ends, int32(seg.Rows))
	if len(vals)*rleMinRun > seg.Rows {
		return nil, nil
	}
	return vals, ends
}

// runLengthInts trades an eligible int vector for the run-length encoding.
// The round-trip is exact for every live non-null slot (asserted in
// prefdbdebug builds, like the bit-packed widths).
func (c *Column) runLengthInts(seg *Segment) {
	if c.Ints == nil || !c.Zone.Valid {
		return
	}
	vals, ends := runLength(c.Ints, c.Nulls, seg)
	if vals == nil {
		return
	}
	ints := c.Ints
	c.RunVals, c.RunEnds = vals, ends
	c.Ints = nil
	if debug.Enabled {
		for i, v := range ints {
			if (c.Nulls != nil && c.Nulls[i]) || seg.Dead(i) {
				continue
			}
			debug.Assertf(c.RunVals[c.runOf(i)] == v,
				"RLE int round-trip failed at slot %d: run value %d, want %d (%d runs)",
				i, c.RunVals[c.runOf(i)], v, len(c.RunVals))
		}
	}
}

// runLengthCodes trades an eligible dictionary-code vector for the
// run-length encoding; Dict is shared with the dense form it replaces.
func (c *Column) runLengthCodes(seg *Segment) {
	if c.Codes == nil || !c.Zone.Valid {
		return
	}
	vals, ends := runLength(c.Codes, c.Nulls, seg)
	if vals == nil {
		return
	}
	codes := c.Codes
	c.RunCodes, c.RunEnds = vals, ends
	c.Codes = nil
	if debug.Enabled {
		for i, v := range codes {
			if (c.Nulls != nil && c.Nulls[i]) || seg.Dead(i) {
				continue
			}
			debug.Assertf(c.RunCodes[c.runOf(i)] == v,
				"RLE code round-trip failed at slot %d: run code %d, want %d (%d runs)",
				i, c.RunCodes[c.runOf(i)], v, len(c.RunCodes))
		}
	}
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
// form batch kernels read. Bit-packed int columns unpack block-wise into
// scratch[ord] (grown as needed and returned for reuse); every other
// typed vector is aliased, not copied, under the prefdb:col-view
// contract. Mixed-kind columns leave their ColVec zero, which kernels
// treat as "fall back to the row views".
func (s *Segment) ColVecs(lo, hi int, vecs []types.ColVec, scratch [][]int64) [][]int64 {
	if scratch == nil {
		scratch = make([][]int64, len(s.Cols))
	}
	for ord := range s.Cols {
		c := &s.Cols[ord]
		v := types.ColVec{}
		switch {
		case c.Ints != nil:
			v.Ints = c.Ints[lo:hi]
		case c.Packed != nil:
			if cap(scratch[ord]) < hi-lo {
				scratch[ord] = make([]int64, hi-lo)
			}
			scratch[ord] = c.Unpack(lo, hi, scratch[ord][:cap(scratch[ord])])
			v.Ints = scratch[ord]
		case c.Floats != nil:
			v.Floats = c.Floats[lo:hi]
		case c.Codes != nil:
			v.Codes = c.Codes[lo:hi]
			v.Dict = c.Dict
		case c.Bools != nil:
			v.Bools = c.Bools[lo:hi]
		case c.RunEnds != nil:
			// Run-length window: alias the runs overlapping [lo, hi). Ends
			// stay segment-relative; RunBase maps batch-local slots back.
			f := c.runOf(lo)
			l := c.runOf(hi - 1)
			v.RunEnds = c.RunEnds[f : l+1]
			v.RunBase = int32(lo)
			if c.RunVals != nil {
				v.RunVals = c.RunVals[f : l+1]
			} else {
				v.RunCodes = c.RunCodes[f : l+1]
				v.Dict = c.Dict
			}
		}
		if c.Nulls != nil {
			v.Nulls = c.Nulls[lo:hi]
		}
		vecs[ord] = v
	}
	return scratch
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
// read. The source must not be mutated concurrently; the engine
// serializes writes against queries, so the catalog's scan-time build
// reads a stable heap.
func Build(h BlockSource, version uint64) *Store {
	return BuildShared(h, version, nil)
}

// BuildShared is Build with a table-level shared string dictionary: every
// string column's codes are drawn from dict (when non-nil), so segments of
// this build — and of every other build over the same dict — agree on
// what each code means. Kernels may then
// compare codes across segments directly. A nil dict falls back to
// per-segment dictionaries.
func BuildShared(h BlockSource, version uint64, dict *TableDict) *Store {
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
		seg.checkZones()
	}
	return seg
}

// buildColumn encodes one attribute of the segment's row range as the
// typed vector matching the declared kind. Any live non-null cell of a
// different kind leaves the column without a vector, holding only its
// zone counts, since no typed vector could represent that cell. String
// codes come from the shared table dictionary when one is provided (with
// a segment-local front cache, so the dictionary lock is taken once per
// distinct string); int and code vectors then trade for the run-length or
// bit-packed encodings when eligible.
func buildColumn(h BlockSource, c *Column, kind types.Kind, first, last, ord int, seg *Segment, shared *TableDict) {
	c.Kind = kind
	typed := kind == types.KindInt || kind == types.KindFloat || kind == types.KindString || kind == types.KindBool
	nulls, nonNull := 0, 0
	for p := first; p < last; p++ {
		rows, dead, _ := h.Block(p)
		for i, row := range rows {
			if dead[i] {
				continue
			}
			if v := row[ord]; v.IsNull() {
				nulls++
			} else {
				nonNull++
				typed = typed && v.Kind() == kind
			}
		}
	}
	c.Zone.Nulls = nulls
	if !typed {
		c.Zone.NonNull = nonNull
		return
	}
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
			v := row[ord]
			if dead[i] || v.IsNull() {
				if v.IsNull() {
					if c.Nulls == nil {
						c.Nulls = make([]bool, seg.Rows)
					}
					c.Nulls[slot] = true
				}
				slot++
				continue
			}
			switch kind {
			case types.KindInt:
				c.Ints[slot] = v.AsInt()
			case types.KindFloat:
				c.Floats[slot] = v.AsFloat()
			case types.KindString:
				sv := v.AsString()
				code, ok := dict[sv]
				if !ok {
					if shared != nil {
						code = shared.intern(ord, sv)
					} else {
						code = int32(len(c.Dict))
						c.Dict = append(c.Dict, sv)
					}
					dict[sv] = code
				}
				c.Codes[slot] = code
			case types.KindBool:
				c.Bools[slot] = v.AsBool()
			}
			zoneAdd(&c.Zone, v)
			slot++
		}
	}
	// Dead slots with NULL cells also set the bitmap above; that is
	// harmless (dead slots never reach results) and keeps the
	// encode loop branch-light.
	c.Zone.Valid = c.Zone.NonNull > 0
	if kind == types.KindString && shared != nil {
		// Publish the shared dictionary snapshot covering every code this
		// segment assigned (it may also cover codes other segments use —
		// the whole point of sharing).
		c.Dict = shared.snapshot(ord)
	}
	switch kind {
	case types.KindInt:
		c.runLengthInts(seg)
		c.packInts(seg) // no-op when RLE claimed the vector
	case types.KindString:
		c.runLengthCodes(seg)
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

// checkZones asserts zone-map soundness in prefdbdebug builds: every live
// non-null heap value lies within its column's [Min, Max] and the
// null/non-null counts add up to the live count.
func (seg *Segment) checkZones() {
	for ord := range seg.Cols {
		z := &seg.Cols[ord].Zone
		debug.SameLen("segment zone live coverage", z.Nulls+z.NonNull, seg.Live)
		if !z.Valid {
			continue
		}
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
