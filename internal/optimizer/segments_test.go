package optimizer

import (
	"strings"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/colstore"
	"prefdb/internal/expr"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// segmentsDB builds a catalog whose "events" table spans three columnar
// segments of sequential ids.
func segmentsDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	events := schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "year", Kind: types.KindInt},
	).WithKey("id")
	et, err := c.CreateTable("events", events)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*colstore.SegmentPages*storage.PageSize; i++ {
		err := et.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(1970 + i%42))})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestAnnotateSegments pins the EXPLAIN surface: once a table's segment
// store is built, a filtered scan shows `[segments N skip≈M]` with the
// zone-map estimate; heap-only tables (no store built yet) are untouched.
func TestAnnotateSegments(t *testing.T) {
	cat := segmentsDB(t)
	perSeg := int64(colstore.SegmentPages * storage.PageSize)
	plan := &algebra.Select{
		Cond:  expr.Cmp("id", expr.OpLt, types.Int(perSeg)),
		Input: &algebra.Scan{Table: "events"},
	}
	o := New(cat)

	before := algebra.Format(o.Optimize(plan))
	if strings.Contains(before, "[segments") {
		t.Fatalf("plan annotated before any store was built:\n%s", before)
	}

	et, err := cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	et.ColStore()
	after := algebra.Format(o.Optimize(plan))
	if !strings.Contains(after, "[segments 3 skip≈2]") {
		t.Fatalf("plan missing zone-map annotation, got:\n%s", after)
	}
	// The pushed-down int comparison compiles to a direct-column kernel,
	// so the same scan advertises the direct path.
	if !strings.Contains(after, "[direct-col]") {
		t.Fatalf("plan missing direct-col annotation, got:\n%s", after)
	}

	// DML invalidates the store; the stale annotation must disappear until
	// the next scan of the columnar table rebuilds it.
	if err := et.Insert([]types.Value{types.Int(perSeg * 4), types.Int(2000)}); err != nil {
		t.Fatal(err)
	}
	stale := algebra.Format(o.Optimize(plan))
	if strings.Contains(stale, "[segments") {
		t.Fatalf("stale store still annotates the plan:\n%s", stale)
	}
}

// TestZoneRowBoundTightensEstimate pins the selectivity side: with a
// built store, the estimated output of a highly selective filtered scan
// must be bounded by the surviving segments' live rows instead of the
// histogram guess alone.
func TestZoneRowBoundTightensEstimate(t *testing.T) {
	cat := segmentsDB(t)
	perSeg := colstore.SegmentPages * storage.PageSize
	o := New(cat)
	sel := &algebra.Select{
		Cond:  expr.Cmp("id", expr.OpLt, types.Int(int64(perSeg))),
		Input: &algebra.Scan{Table: "events"},
	}
	et, err := cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	et.ColStore()
	bound, ok := o.zoneRowBound(et, sel)
	if !ok {
		t.Fatal("zoneRowBound reported !ok with a built store and sargable pred")
	}
	if want := float64(perSeg); bound != want {
		t.Fatalf("zoneRowBound = %v, want %v (one surviving segment, empty tail)", bound, want)
	}
	if est := o.estimateRows(sel); est > bound {
		t.Fatalf("estimateRows = %v exceeds the zone bound %v", est, bound)
	}
}
