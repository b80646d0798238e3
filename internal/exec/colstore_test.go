package exec

import (
	"fmt"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/colstore"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// colstoreDB builds a catalog whose "items" table spans multiple columnar
// segments (2 full segments plus a sealed remainder and an unsealed heap
// tail), with every encoding the store supports: sequential ints (tight
// zones), a small string dictionary, floats with NULLs, an INT column
// with occasional NULLs, plus tombstones from two DELETE patterns. A small
// "cats" table joins against grp.
func colstoreDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	items := schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "grp", Kind: types.KindInt},
		schema.Column{Name: "name", Kind: types.KindString},
		schema.Column{Name: "val", Kind: types.KindFloat},
		schema.Column{Name: "tag", Kind: types.KindInt},
	).WithKey("id")
	it, err := c.CreateTable("items", items)
	if err != nil {
		t.Fatal(err)
	}
	rows := 2*colstore.SegmentPages*storage.PageSize + storage.PageSize*3 + 100
	for i := 0; i < rows; i++ {
		val := types.Value(types.Float(float64(i%97) / 7))
		if i%5 == 0 {
			val = types.Null()
		}
		tag := types.Value(types.Int(int64(i % 13)))
		if i%701 == 0 {
			tag = types.Null()
		}
		err := it.Insert([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(i % 8)),
			types.Str(fmt.Sprintf("name-%d", i%4)),
			val,
			tag,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Tombstones: a sparse spread plus a dense half-deleted region in the
	// middle of the first segment.
	it.DeleteWhere(func(tuple []types.Value) bool {
		id := tuple[0].AsInt()
		return id%17 == 0 || (id >= 1000 && id < 2000 && id%2 == 0)
	})

	cats := schema.New(
		schema.Column{Name: "c_id", Kind: types.KindInt},
		schema.Column{Name: "label", Kind: types.KindString},
	).WithKey("c_id")
	ct, err := c.CreateTable("cats", cats)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := ct.Insert([]types.Value{types.Int(int64(i)), types.Str(fmt.Sprintf("cat-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// fixture is one dataset loaded twice for heap↔segments differentials:
// heap is never compacted, every table of col is made columnar by
// catalog.Table.ColStore. A nil col means the dataset is too small to
// hold a segment, so a columnar arm would read the heap tail alone.
type fixture struct{ heap, col *catalog.Catalog }

// loadTwice builds the heap and columnar fixtures of one dataset.
func loadTwice(t testing.TB, load func(testing.TB) *catalog.Catalog) fixture {
	t.Helper()
	return fixture{heap: load(t), col: compacted(t, load(t))}
}

// compacted makes every table of cat columnar and returns cat.
func compacted(t testing.TB, cat *catalog.Catalog) *catalog.Catalog {
	t.Helper()
	for _, name := range cat.Tables() {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.ColStore()
	}
	return cat
}

func itemsPref() pref.Preference {
	return pref.Preference{
		Name: "hot", On: []string{"items"},
		Cond:  expr.Cmp("grp", expr.OpGe, types.Int(3)),
		Score: pref.Recency("items.id", 10000),
		Conf:  0.9,
	}
}

func colstorePlans() map[string]algebra.Node {
	return map[string]algebra.Node{
		"prune-low-sel": &algebra.TopK{K: 10, By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Select{
				Cond:  expr.Cmp("id", expr.OpLe, types.Int(300)),
				Input: &algebra.Scan{Table: "items"},
			},
		}},
		"prune-range-tail": &algebra.TopK{K: 5, By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Select{
				Cond: expr.Bin{Op: expr.OpAnd,
					L: expr.Cmp("id", expr.OpGt, types.Int(8000)),
					R: expr.Cmp("name", expr.OpEq, types.Str("name-1"))},
				Input: &algebra.Scan{Table: "items"},
			},
		}},
		"nullable-float-pred": &algebra.Rank{By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Select{
				Cond:  expr.Cmp("val", expr.OpGe, types.Float(13)),
				Input: &algebra.Scan{Table: "items"},
			},
		}},
		"raw-col-pred": &algebra.TopK{K: 7, By: algebra.ByConf, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Select{
				Cond:  expr.Cmp("tag", expr.OpLe, types.Int(2)),
				Input: &algebra.Scan{Table: "items"},
			},
		}},
		"full-scan": &algebra.TopK{K: 10, By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Scan{Table: "items"},
		}},
		"join": &algebra.TopK{K: 10, By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Join{
				Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("items.grp"), R: expr.ColRef("cats.c_id")},
				Left: &algebra.Select{
					Cond:  expr.Cmp("id", expr.OpLt, types.Int(600)),
					Input: &algebra.Scan{Table: "items"},
				},
				Right: &algebra.Scan{Table: "cats"},
			},
		}},
	}
}

// TestColstoreHeapEquivalence is the acceptance contract of the columnar
// store: across strategies × batch sizes, reading
// segments with zone-map pruning must produce byte-identical rows, order
// and Stats (modulo the diagnostic Batches / segment counters) to the
// heap batch path.
func TestColstoreHeapEquivalence(t *testing.T) {
	fx := loadTwice(t, colstoreDB)
	for name, plan := range colstorePlans() {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range Strategies() {
				for _, size := range []int{3, 1024} {
					label := fmt.Sprintf("%v size=%d", strategy, size)

					ref := New(fx.heap)
					ref.BatchSize = size
					want, err := ref.Run(plan, strategy)
					if err != nil {
						t.Fatalf("%s heap path: %v", label, err)
					}
					refStats := ref.Stats()
					if refStats.SegmentsScanned != 0 || refStats.SegmentsSkipped != 0 {
						t.Fatalf("%s: heap path touched segments: %+v", label, refStats)
					}

					e := New(fx.col)
					e.BatchSize = size
					got, err := e.Run(plan, strategy)
					if err != nil {
						t.Fatalf("%s colstore path: %v", label, err)
					}

					mustIdentical(t, want, got, label)
					gotStats := e.Stats()
					if gotStats.SegmentsScanned == 0 {
						t.Fatalf("%s: colstore path read no segments: %+v", label, gotStats)
					}
					refStats.Batches, gotStats.Batches = 0, 0
					gotStats.SegmentsScanned, gotStats.SegmentsSkipped = 0, 0
					gotStats.ColBatches, gotStats.RowsMaterialized = 0, 0
					refStats.JoinProbeBatches, gotStats.JoinProbeBatches = 0, 0
					if refStats != gotStats {
						t.Fatalf("%s: colstore stats %+v, want %+v", label, gotStats, refStats)
					}
				}
			}
		})
	}
}

// TestColstoreEngagesAndPrunes pins that the colstore suite is not passing
// vacuously: the selective plan must actually read segments and skip most
// of them on zone maps alone.
func TestColstoreEngagesAndPrunes(t *testing.T) {
	fx := loadTwice(t, colstoreDB)
	// The executor is single-worker; the subtest keeps that case's name.
	t.Run("workers=1", func(t *testing.T) {
		e := New(fx.col)
		if _, err := e.Run(colstorePlans()["prune-low-sel"], Native); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.SegmentsScanned == 0 {
			t.Fatalf("colstore scan read no segments: %+v", st)
		}
		if st.SegmentsSkipped == 0 {
			t.Fatalf("id <= 300 over sequential ids skipped no segments: %+v", st)
		}
		// RowsScanned must credit skipped segments' live rows, keeping
		// parity with the heap path.
		ref := New(fx.heap)
		if _, err := ref.Run(colstorePlans()["prune-low-sel"], Native); err != nil {
			t.Fatal(err)
		}
		if ref.Stats().RowsScanned != st.RowsScanned {
			t.Fatalf("RowsScanned diverged: colstore %d, heap %d", st.RowsScanned, ref.Stats().RowsScanned)
		}
	})
}

// TestColstoreSeesHeapTailWrites pins invalidation: rows inserted into a
// columnar table after its store is built must be visible to the next
// scan, and further DML must trigger a version-checked rebuild.
func TestColstoreSeesHeapTailWrites(t *testing.T) {
	cat := compacted(t, colstoreDB(t))
	plan := &algebra.Select{
		Cond:  expr.Cmp("id", expr.OpGe, types.Int(1_000_000)),
		Input: &algebra.Scan{Table: "items"},
	}
	run := func() int {
		e := New(cat)
		rel, err := e.Run(plan, Native)
		if err != nil {
			t.Fatal(err)
		}
		return rel.Len()
	}
	if got := run(); got != 0 {
		t.Fatalf("unexpected %d rows above the id ceiling", got)
	}
	it, err := cat.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := it.Insert([]types.Value{
			types.Int(int64(1_000_000 + i)), types.Int(0), types.Str("late"),
			types.Float(1), types.Int(0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := run(); got != 3 {
		t.Fatalf("tail inserts invisible to colstore scan: got %d rows, want 3", got)
	}
	if n := it.DeleteWhere(func(tuple []types.Value) bool { return tuple[0].AsInt() >= 1_000_000 }); n != 3 {
		t.Fatalf("deleted %d rows, want 3", n)
	}
	if got := run(); got != 0 {
		t.Fatalf("deleted rows still visible after rebuild: got %d rows", got)
	}
}

// TestHeapBatchSrcCompactsAcrossPages is the page-boundary regression
// test: over a half-deleted table the batch source must keep filling one
// batch from the following pages instead of emitting one undersized batch
// per page — every batch except the last is exactly full.
func TestHeapBatchSrcCompactsAcrossPages(t *testing.T) {
	s := schema.New(schema.Column{Table: "t", Name: "a", Kind: types.KindInt})
	h := storage.NewHeap(s)
	pages := 4
	for i := 0; i < pages*storage.PageSize; i++ {
		if _, err := h.Insert([]types.Value{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Half-delete every page: live rows per page = PageSize/2.
	for i := 0; i < pages*storage.PageSize; i += 2 {
		h.Delete(storage.RowID{Page: uint32(i / storage.PageSize), Slot: uint32(i % storage.PageSize)})
	}
	live := pages * storage.PageSize / 2

	src := &heapBatchSrc{heap: h, stats: &Stats{}, size: storage.PageSize}
	var sizes []int
	total := 0
	for {
		b, ok := src.nextBatch()
		if !ok {
			break
		}
		sizes = append(sizes, b.Cap())
		total += b.Cap()
	}
	if total != live {
		t.Fatalf("batches covered %d rows, want %d", total, live)
	}
	for i, n := range sizes {
		if i < len(sizes)-1 && n != storage.PageSize {
			t.Fatalf("batch %d of %v is undersized: half-deleted pages must compact across page boundaries", i, sizes)
		}
	}
	if len(sizes) != 2 {
		t.Fatalf("%d live rows at size %d should yield 2 full batches, got %v", live, storage.PageSize, sizes)
	}
}
