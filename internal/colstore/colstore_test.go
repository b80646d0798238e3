package colstore

import (
	"fmt"
	"runtime"
	"testing"

	"prefdb/internal/expr"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

func testSchema() *schema.Schema {
	return schema.New(
		schema.Column{Table: "items", Name: "id", Kind: types.KindInt},
		schema.Column{Table: "items", Name: "name", Kind: types.KindString},
		schema.Column{Table: "items", Name: "score", Kind: types.KindFloat},
		schema.Column{Table: "items", Name: "tag", Kind: types.KindInt},
	)
}

// fillHeap inserts n rows: sequential ids, a small cyclic string dict,
// floats with every 5th NULL, and an INT "tag" column that is NULL in
// every 11th row when nullTags is set.
func fillHeap(t *testing.T, h *storage.Heap, n int, nullTags bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		score := types.Value(types.Float(float64(i) / 2))
		if i%5 == 0 {
			score = types.Null()
		}
		tag := types.Value(types.Int(int64(i % 7)))
		if nullTags && i%11 == 0 {
			tag = types.Null()
		}
		_, err := h.Insert([]types.Value{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("name-%d", i%3)),
			score,
			tag,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildRoundTripsTuples(t *testing.T) {
	s := testSchema()
	h := storage.NewHeap(s)
	n := storage.PageSize*SegmentPages + storage.PageSize + 7 // 1 full segment + sealed remainder + partial tail
	fillHeap(t, h, n, true)
	// Tombstone a spread of rows, including a full-page kill.
	for i := 0; i < n; i += 13 {
		h.Delete(storage.RowID{Page: uint32(i / storage.PageSize), Slot: uint32(i % storage.PageSize)})
	}
	st := Build(h, 42, NewTableDict())

	if st.Version != 42 {
		t.Fatalf("Version = %d, want 42", st.Version)
	}
	wantSealed := n / storage.PageSize
	if st.SealedPages != wantSealed {
		t.Fatalf("SealedPages = %d, want %d (the trailing partial page stays on the heap)", st.SealedPages, wantSealed)
	}
	if len(st.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(st.Segments))
	}

	// Every live slot must decode byte-identically to the heap original.
	slot, segIdx := 0, 0
	seg := st.Segments[0]
	for p := 0; p < st.SealedPages; p++ {
		rows, dead, _ := h.Block(p)
		for i, row := range rows {
			if slot == seg.Rows {
				segIdx++
				seg = st.Segments[segIdx]
				slot = 0
			}
			if dead[i] != seg.Dead(slot) {
				t.Fatalf("page %d slot %d: dead mismatch", p, i)
			}
			if !dead[i] {
				got := seg.Tuple(slot)
				for ord, v := range row {
					if !got[ord].Equal(v) || got[ord].Kind() != v.Kind() {
						t.Fatalf("page %d slot %d col %d: decoded %v (%v), want %v (%v)",
							p, i, ord, got[ord], got[ord].Kind(), v, v.Kind())
					}
				}
			}
			slot++
		}
	}
}

func TestBuildEncodings(t *testing.T) {
	s := testSchema()
	h := storage.NewHeap(s)
	fillHeap(t, h, storage.PageSize*SegmentPages, true)
	st := Build(h, 1, NewTableDict())
	if len(st.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(st.Segments))
	}
	seg := st.Segments[0]

	id := seg.Cols[0]
	if len(id.Ints) != seg.Rows {
		t.Fatalf("id column should be a dense int vector of %d slots, got %d", seg.Rows, len(id.Ints))
	}
	for i, v := range id.Ints {
		if v != int64(i) {
			t.Fatalf("id slot %d holds %d, want %d", i, v, i)
		}
	}
	if id.Zone.NonNull == 0 || !id.Zone.Min.Equal(types.Int(0)) || !id.Zone.Max.Equal(types.Int(int64(seg.Rows-1))) {
		t.Fatalf("id zone = %+v, want [0, %d]", id.Zone, seg.Rows-1)
	}

	name := seg.Cols[1]
	if name.Codes == nil || len(name.Dict) != 3 {
		t.Fatalf("name column should be dictionary-encoded with 3 entries, got dict %v", name.Dict)
	}

	score := seg.Cols[2]
	if score.Floats == nil || score.Nulls == nil {
		t.Fatal("score column should be float-encoded with a null bitmap")
	}
	if score.Zone.Nulls == 0 || score.Zone.Nulls+score.Zone.NonNull != seg.Live {
		t.Fatalf("score zone counts %d+%d do not cover %d live rows", score.Zone.Nulls, score.Zone.NonNull, seg.Live)
	}

	if tag := seg.Cols[3]; len(tag.Ints) != seg.Rows || tag.Nulls == nil {
		t.Fatal("tag column should be an int vector with a null bitmap")
	}
}

// TestSegmentViewsAliasHeap pins the one-copy layout: a segment's row
// views are the heap's own tuples, not decoded copies, and a store stays
// exactly as built when the heap takes later DML (sealed pages are never
// rewritten; Delete only tombstones).
func TestSegmentViewsAliasHeap(t *testing.T) {
	s := testSchema()
	h := storage.NewHeap(s)
	n := storage.PageSize*SegmentPages + storage.PageSize + 7
	fillHeap(t, h, n, true)
	for i := 0; i < n; i += 13 {
		h.Delete(storage.RowID{Page: uint32(i / storage.PageSize), Slot: uint32(i % storage.PageSize)})
	}
	st := Build(h, 1, NewTableDict())

	type segState struct {
		live  int
		dead  []bool
		views [][]types.Value
		cells [][]types.Value
		zones []Zone
	}
	before := make([]segState, len(st.Segments))
	for k, seg := range st.Segments {
		ss := segState{live: seg.Live, views: append([][]types.Value(nil), seg.Views(0, seg.Rows)...)}
		for i := 0; i < seg.Rows; i++ {
			ss.dead = append(ss.dead, seg.Dead(i))
			ss.cells = append(ss.cells, append([]types.Value(nil), seg.Tuple(i)...))
			rows, dead, _ := h.Block(seg.FirstPage + i/storage.PageSize)
			if dead[i%storage.PageSize] {
				continue
			}
			if heapRow := rows[i%storage.PageSize]; &seg.Tuple(i)[0] != &heapRow[0] { // prefdb:valueconv-ok pointer identity
				t.Fatalf("segment %d slot %d: row view is a copy, not the heap tuple", k, i)
			}
		}
		for ord := range seg.Cols {
			ss.zones = append(ss.zones, seg.Cols[ord].Zone)
		}
		before[k] = ss
	}

	// DML after the build: a delete inside the first segment and enough
	// inserts to seal further pages, then a fresh build.
	h.Delete(storage.RowID{Page: 0, Slot: 1})
	fillHeap(t, h, storage.PageSize, true)
	if fresh := Build(h, 2, NewTableDict()); !fresh.Segments[0].Dead(1) || fresh.Live() == st.Live() {
		t.Fatalf("fresh build missed the DML: dead(1)=%v, live %d vs %d", fresh.Segments[0].Dead(1), fresh.Live(), st.Live())
	}

	for k, seg := range st.Segments {
		ss := before[k]
		if seg.Live != ss.live {
			t.Fatalf("segment %d: Live %d after DML, want %d", k, seg.Live, ss.live)
		}
		views := seg.Views(0, seg.Rows)
		for i := 0; i < seg.Rows; i++ {
			if seg.Dead(i) != ss.dead[i] {
				t.Fatalf("segment %d slot %d: Dead changed to %v after DML", k, i, seg.Dead(i))
			}
			if &views[i][0] != &ss.views[i][0] { // prefdb:valueconv-ok pointer identity
				t.Fatalf("segment %d slot %d: row view moved after DML", k, i)
			}
			for ord, v := range ss.cells[i] {
				if got := views[i][ord]; !got.Equal(v) || got.Kind() != v.Kind() {
					t.Fatalf("segment %d slot %d col %d: %v after DML, want %v", k, i, ord, got, v)
				}
			}
		}
		for ord := range seg.Cols {
			if !sameZone(seg.Cols[ord].Zone, ss.zones[ord]) {
				t.Fatalf("segment %d col %d: zone %+v after DML, want %+v", k, ord, seg.Cols[ord].Zone, ss.zones[ord])
			}
		}
	}
}

// sameZone reports whether two zones hold the same counts and the same
// bounds, kind and payload.
func sameZone(a, b Zone) bool {
	same := func(x, y types.Value) bool { return x.Kind() == y.Kind() && x.Equal(y) }
	return a.Nulls == b.Nulls && a.NonNull == b.NonNull && same(a.Min, b.Min) && same(a.Max, b.Max)
}

// TestBuildAllocPerRow pins what compaction costs per row on the scan
// benchmark's events shape (int/int/string/float/int): the typed vectors
// plus one borrowed tuple header. A second copy of the five 24-byte
// cells alone would add 120 B/row, so the bound rules it out.
func TestBuildAllocPerRow(t *testing.T) {
	s := schema.New(
		schema.Column{Table: "events", Name: "id", Kind: types.KindInt},
		schema.Column{Table: "events", Name: "year", Kind: types.KindInt},
		schema.Column{Table: "events", Name: "tier", Kind: types.KindString},
		schema.Column{Table: "events", Name: "rating", Kind: types.KindFloat},
		schema.Column{Table: "events", Name: "user_id", Kind: types.KindInt},
	)
	tiers := []string{"bronze", "silver", "gold", "platinum"}
	h := storage.NewHeap(s)
	const rows = 256 * 1024
	x := uint64(42)
	for i := 0; i < rows; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if _, err := h.Insert([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(1970 + (x>>33)%42)),
			types.Str(tiers[(x>>40)%4]),
			types.Float(float64((x>>44)%101) / 10),
			types.Int(int64((x >> 20) % 200_000)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st := Build(h, 1, NewTableDict())
	runtime.ReadMemStats(&m1)
	if st.Live() != rows {
		t.Fatalf("store holds %d live rows, want %d", st.Live(), rows)
	}
	if perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / rows; perRow >= 128 {
		t.Fatalf("Build allocated %.0f B/row, want < 128", perRow)
	}
}

func TestSkipRules(t *testing.T) {
	s := testSchema()
	h := storage.NewHeap(s)
	fillHeap(t, h, storage.PageSize*SegmentPages, false)
	seg := Build(h, 1, NewTableDict()).Segments[0]
	idOrd, scoreOrd, tagOrd := 0, 2, 3
	max := int64(seg.Rows - 1)

	cases := []struct {
		name string
		pred Pred
		want bool
	}{
		{"eq inside", Pred{idOrd, expr.OpEq, types.Int(10)}, false},
		{"eq above max", Pred{idOrd, expr.OpEq, types.Int(max + 1)}, true},
		{"eq below min", Pred{idOrd, expr.OpEq, types.Int(-1)}, true},
		{"ne non-constant", Pred{idOrd, expr.OpNe, types.Int(10)}, false},
		{"lt min", Pred{idOrd, expr.OpLt, types.Int(0)}, true},
		{"lt min+1", Pred{idOrd, expr.OpLt, types.Int(1)}, false},
		{"le below min", Pred{idOrd, expr.OpLe, types.Int(-1)}, true},
		{"le min", Pred{idOrd, expr.OpLe, types.Int(0)}, false},
		{"gt max", Pred{idOrd, expr.OpGt, types.Int(max)}, true},
		{"gt max-1", Pred{idOrd, expr.OpGt, types.Int(max - 1)}, false},
		{"ge above max", Pred{idOrd, expr.OpGe, types.Int(max + 1)}, true},
		{"ge max", Pred{idOrd, expr.OpGe, types.Int(max)}, false},
		// Mixed numeric kinds compare; skip logic must hold across them.
		{"float lit on int col", Pred{idOrd, expr.OpGe, types.Float(float64(max) + 0.5)}, true},
		// Incomparable literal kind against a uniformly typed column: every
		// row comparison yields NULL, so the segment skips.
		{"string lit on int col", Pred{idOrd, expr.OpGe, types.Str("zzz")}, true},
		{"inside on nullable float", Pred{scoreOrd, expr.OpGe, types.Float(0)}, false},
		{"above nullable float max", Pred{scoreOrd, expr.OpGt, types.Float(1e9)}, true},
		{"tag inside", Pred{tagOrd, expr.OpLe, types.Int(6)}, false},
	}
	for _, c := range cases {
		if got := seg.Skip([]Pred{c.pred}); got != c.want {
			t.Errorf("%s: Skip = %v, want %v", c.name, got, c.want)
		}
	}
	// Conjunction: any skipping conjunct suffices.
	if !seg.Skip([]Pred{{idOrd, expr.OpGe, types.Int(0)}, {idOrd, expr.OpLt, types.Int(0)}}) {
		t.Error("conjunction with an impossible conjunct did not skip")
	}
}

func TestSkipAllNullColumn(t *testing.T) {
	s := schema.New(schema.Column{Table: "t", Name: "a", Kind: types.KindInt})
	h := storage.NewHeap(s)
	for i := 0; i < storage.PageSize; i++ {
		if _, err := h.Insert([]types.Value{types.Null()}); err != nil {
			t.Fatal(err)
		}
	}
	seg := Build(h, 1, NewTableDict()).Segments[0]
	if !seg.Skip([]Pred{{0, expr.OpEq, types.Int(1)}}) {
		t.Fatal("all-NULL column should skip any comparison conjunct")
	}
}

func TestPredsFrom(t *testing.T) {
	s := testSchema()
	conjuncts := []expr.Node{
		expr.Cmp("id", expr.OpGe, types.Int(5)),                                                                          // sargable
		expr.Bin{Op: expr.OpLt, L: expr.Lit{Val: types.Int(9)}, R: expr.ColRef("id")},                                    // flipped: id > 9
		expr.Cmp("id", expr.OpEq, types.Null()),                                                                          // NULL literal: excluded
		expr.Cmp("nosuch", expr.OpEq, types.Int(1)),                                                                      // unresolved: excluded
		expr.Bin{Op: expr.OpAnd, L: expr.Cmp("id", expr.OpGe, types.Int(1)), R: expr.Cmp("id", expr.OpLe, types.Int(2))}, // not a comparison
	}
	preds := PredsFrom(s, conjuncts)
	if len(preds) != 2 {
		t.Fatalf("PredsFrom kept %d preds (%+v), want 2", len(preds), preds)
	}
	if preds[0].Ord != 0 || preds[0].Op != expr.OpGe || !preds[0].Lit.Equal(types.Int(5)) {
		t.Fatalf("preds[0] = %+v, want id >= 5", preds[0])
	}
	if preds[1].Ord != 0 || preds[1].Op != expr.OpGt || !preds[1].Lit.Equal(types.Int(9)) {
		t.Fatalf("preds[1] = %+v, want flipped id > 9", preds[1])
	}
}

func TestEstimateSkip(t *testing.T) {
	s := testSchema()
	h := storage.NewHeap(s)
	fillHeap(t, h, storage.PageSize*SegmentPages*3, false)
	st := Build(h, 1, NewTableDict())
	if len(st.Segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(st.Segments))
	}
	perSeg := storage.PageSize * SegmentPages
	// id < one segment's rows: only the first segment survives.
	segs, skipped := st.EstimateSkip([]Pred{{0, expr.OpLt, types.Int(int64(perSeg))}})
	if segs != 3 || skipped != 2 {
		t.Fatalf("EstimateSkip = (%d, %d), want (3, 2)", segs, skipped)
	}
	segs, skipped = st.EstimateSkip(nil)
	if segs != 3 || skipped != 0 {
		t.Fatalf("EstimateSkip(nil) = (%d, %d), want (3, 0)", segs, skipped)
	}
}

func TestEmptyAndTailOnlyHeaps(t *testing.T) {
	s := testSchema()
	empty := Build(storage.NewHeap(s), 1, NewTableDict())
	if empty.SealedPages != 0 || len(empty.Segments) != 0 || empty.Live() != 0 {
		t.Fatalf("empty heap built %+v", empty)
	}
	h := storage.NewHeap(s)
	fillHeap(t, h, storage.PageSize-1, false) // one partial page: nothing sealed
	tail := Build(h, 1, NewTableDict())
	if tail.SealedPages != 0 || len(tail.Segments) != 0 {
		t.Fatalf("partial-page heap built %+v", tail)
	}
}

// TestColVecsWindows pins the borrowed-vector accessor: for every column
// encoding, the window's typed vector must agree with the decoded row
// views over several awkward windows.
func TestColVecsWindows(t *testing.T) {
	s := testSchema()
	h := storage.NewHeap(s)
	fillHeap(t, h, storage.PageSize*SegmentPages, true)
	st := Build(h, 1, NewTableDict())
	seg := st.Segments[0]
	vecs := make([]types.ColVec, len(seg.Cols))
	for _, win := range [][2]int{{0, seg.Rows}, {5, 6}, {100, 1124}, {seg.Rows - 3, seg.Rows}} {
		lo, hi := win[0], win[1]
		seg.ColVecs(lo, hi, vecs)
		views := seg.Views(lo, hi)
		for ord := range seg.Cols {
			cv := vecs[ord]
			for i := 0; i < hi-lo; i++ {
				want := views[i][ord]
				null := cv.Nulls != nil && cv.Nulls[i]
				if want.IsNull() != null {
					t.Fatalf("window %v col %d slot %d: null %v, want %v", win, ord, i, null, want.IsNull())
				}
				if null || want.IsNull() {
					continue
				}
				switch {
				case cv.Ints != nil:
					if cv.Ints[i] != want.AsInt() {
						t.Fatalf("window %v col %d slot %d: int %d, want %d", win, ord, i, cv.Ints[i], want.AsInt())
					}
				case cv.Floats != nil:
					if cv.Floats[i] != want.AsFloat() {
						t.Fatalf("window %v col %d slot %d: float %v, want %v", win, ord, i, cv.Floats[i], want.AsFloat())
					}
				case cv.Codes != nil:
					if cv.Dict[cv.Codes[i]] != want.AsString() {
						t.Fatalf("window %v col %d slot %d: code %q, want %q", win, ord, i, cv.Dict[cv.Codes[i]], want.AsString())
					}
				}
			}
		}
	}
}

// TestColVecsAliasSegment pins that a window is storage, not a copy:
// every typed slice ColVecs hands out for [lo, hi) starts at &X[lo] of
// its segment column, for int, string, float and NULL-bitmap vectors
// alike.
func TestColVecsAliasSegment(t *testing.T) {
	s := testSchema()
	h := storage.NewHeap(s)
	fillHeap(t, h, storage.PageSize*SegmentPages, false)
	seg := Build(h, 1, NewTableDict()).Segments[0]
	vecs := make([]types.ColVec, len(seg.Cols))
	for _, win := range [][2]int{{0, seg.Rows}, {5, 6}, {100, 1124}, {seg.Rows - 3, seg.Rows}} {
		lo, hi := win[0], win[1]
		seg.ColVecs(lo, hi, vecs)
		for ord := range seg.Cols {
			c, cv := &seg.Cols[ord], &vecs[ord]
			if c.Ints == nil && c.Floats == nil && c.Codes == nil && c.Bools == nil {
				t.Fatalf("col %d: no dense vector in a typed segment", ord)
			}
			if c.Ints != nil && (len(cv.Ints) != hi-lo || &cv.Ints[0] != &c.Ints[lo]) {
				t.Fatalf("window %v col %d: Ints is not a window of the segment's vector", win, ord)
			}
			if c.Floats != nil && (len(cv.Floats) != hi-lo || &cv.Floats[0] != &c.Floats[lo]) {
				t.Fatalf("window %v col %d: Floats is not a window of the segment's vector", win, ord)
			}
			if c.Codes != nil && (len(cv.Codes) != hi-lo || &cv.Codes[0] != &c.Codes[lo] || &cv.Dict[0] != &c.Dict[0]) {
				t.Fatalf("window %v col %d: Codes/Dict are not the segment's", win, ord)
			}
			if c.Bools != nil && (len(cv.Bools) != hi-lo || &cv.Bools[0] != &c.Bools[lo]) {
				t.Fatalf("window %v col %d: Bools is not a window of the segment's vector", win, ord)
			}
			if c.Nulls != nil && (len(cv.Nulls) != hi-lo || &cv.Nulls[0] != &c.Nulls[lo]) {
				t.Fatalf("window %v col %d: Nulls is not a window of the segment's bitmap", win, ord)
			}
		}
	}
}

// Value decodes the cell at slot i of a typed column back into a scalar,
// the oracle the encoding tests compare against the heap. A column
// without a typed vector decodes every slot as NULL.
func (c *Column) Value(i int) types.Value {
	if c.Nulls != nil && c.Nulls[i] {
		return types.Null()
	}
	switch {
	case c.Ints != nil:
		return types.Int(c.Ints[i])
	case c.Floats != nil:
		return types.Float(c.Floats[i])
	case c.Codes != nil:
		return types.Str(c.Dict[c.Codes[i]])
	case c.Bools != nil:
		return types.Bool(c.Bools[i])
	default:
		return types.Null()
	}
}
