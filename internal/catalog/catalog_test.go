package catalog

import (
	"fmt"
	"strings"
	"testing"

	"prefdb/internal/expr"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

func newMovies(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New()
	s := schema.New(
		schema.Column{Name: "m_id", Kind: types.KindInt},
		schema.Column{Name: "year", Kind: types.KindInt},
		schema.Column{Name: "genre", Kind: types.KindString},
		schema.Column{Name: "rating", Kind: types.KindFloat},
	).WithKey("m_id")
	tbl, err := c.CreateTable("movies", s)
	if err != nil {
		t.Fatal(err)
	}
	genres := []string{"Comedy", "Drama", "Action", "Drama", "Drama"}
	for i := 0; i < 100; i++ {
		err := tbl.Insert([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(1980 + i%40)),
			types.Str(genres[i%len(genres)]),
			types.Float(float64(i%100) / 10),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c, tbl
}

func TestCreateAndLookup(t *testing.T) {
	c, tbl := newMovies(t)
	if tbl.Len() != 100 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	got, err := c.Table("MOVIES")
	if err != nil || got != tbl {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := c.CreateTable("movies", schema.New()); err == nil {
		t.Error("duplicate create should error")
	}
	if names := c.Tables(); len(names) != 1 || names[0] != "movies" {
		t.Errorf("Tables = %v", names)
	}
	// Schema columns get the table qualifier.
	if tbl.Schema().Columns[0].Table != "movies" {
		t.Errorf("qualifier = %q", tbl.Schema().Columns[0].Table)
	}
}

func TestIndexes(t *testing.T) {
	c, tbl := newMovies(t)
	if err := c.CreateHashIndex("movies", "genre"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBTreeIndex("movies", "year"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHashIndex("movies", "genre"); err == nil {
		t.Error("duplicate hash index should error")
	}
	if err := c.CreateBTreeIndex("movies", "year"); err == nil {
		t.Error("duplicate btree index should error")
	}
	if err := c.CreateHashIndex("movies", "bogus"); err == nil {
		t.Error("index on unknown column should error")
	}
	if err := c.CreateHashIndex("bogus", "genre"); err == nil {
		t.Error("index on unknown table should error")
	}
	hi, ok := tbl.HashIndexOn("GENRE")
	if !ok {
		t.Fatal("hash index not found")
	}
	rows := hi.Lookup([]types.Value{types.Str("Comedy")})
	if len(rows) != 20 {
		t.Errorf("Comedy rows = %d, want 20", len(rows))
	}
	bi, ok := tbl.BTreeIndexOn("year")
	if !ok {
		t.Fatal("btree index not found")
	}
	if len(bi.Lookup(types.Int(1985))) == 0 {
		t.Error("btree lookup empty")
	}
	// Indexes are maintained on insert.
	if err := tbl.Insert([]types.Value{types.Int(1000), types.Int(1985), types.Str("Comedy"), types.Float(5)}); err != nil {
		t.Fatal(err)
	}
	if len(hi.Lookup([]types.Value{types.Str("Comedy")})) != 21 {
		t.Error("hash index not maintained on insert")
	}
	cols := tbl.IndexedColumns()
	if len(cols) != 2 || cols[0] != "genre" || cols[1] != "year" {
		t.Errorf("IndexedColumns = %v", cols)
	}
}

func TestStats(t *testing.T) {
	_, tbl := newMovies(t)
	st := tbl.Stats()
	if st.Rows != 100 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	yearStats := st.Columns[1]
	if !yearStats.HasRange || yearStats.Min != 1980 || yearStats.Max != 2019 {
		t.Errorf("year range = [%v,%v]", yearStats.Min, yearStats.Max)
	}
	if yearStats.Distinct != 40 {
		t.Errorf("year distinct = %d", yearStats.Distinct)
	}
	genreStats := st.Columns[2]
	if genreStats.Distinct != 3 {
		t.Errorf("genre distinct = %d", genreStats.Distinct)
	}
	if freq, _ := genreStats.MCVFreq(types.Str("Drama")); freq != 60 {
		t.Errorf("Drama MCV = %d", freq)
	}
	// Stats are cached then invalidated on insert.
	if tbl.Stats() != st {
		t.Error("stats should be cached")
	}
	tbl.Insert([]types.Value{types.Int(500), types.Null(), types.Str("Drama"), types.Float(1)})
	st2 := tbl.Stats()
	if st2 == st {
		t.Error("stats should be invalidated by insert")
	}
	if st2.Columns[1].Nulls != 1 {
		t.Errorf("nulls = %d", st2.Columns[1].Nulls)
	}
}

func TestSelectivityEquality(t *testing.T) {
	_, tbl := newMovies(t)
	// Drama is 60/100.
	sel := tbl.Selectivity(expr.Eq("genre", types.Str("Drama")))
	if sel < 0.55 || sel > 0.65 {
		t.Errorf("Drama selectivity = %v, want ~0.6", sel)
	}
	selC := tbl.Selectivity(expr.Eq("genre", types.Str("Comedy")))
	if selC < 0.15 || selC > 0.25 {
		t.Errorf("Comedy selectivity = %v, want ~0.2", selC)
	}
	if a, b := tbl.Selectivity(expr.Eq("genre", types.Str("Drama"))), tbl.Selectivity(expr.Eq("genre", types.Str("Action"))); a <= b {
		t.Error("more frequent value should have higher selectivity")
	}
}

func TestSelectivityRange(t *testing.T) {
	_, tbl := newMovies(t)
	// year >= 2010 covers 10 of 40 years ≈ 0.25.
	sel := tbl.Selectivity(expr.Cmp("year", expr.OpGe, types.Int(2010)))
	if sel < 0.15 || sel > 0.35 {
		t.Errorf("year>=2010 selectivity = %v", sel)
	}
	lt := tbl.Selectivity(expr.Cmp("year", expr.OpLt, types.Int(1990)))
	if lt < 0.15 || lt > 0.35 {
		t.Errorf("year<1990 selectivity = %v", lt)
	}
	// Flipped literal-first comparison.
	flipped := tbl.Selectivity(expr.Bin{Op: expr.OpLe, L: expr.Lit{Val: types.Int(2010)}, R: expr.ColRef("year")})
	if flipped < 0.15 || flipped > 0.35 {
		t.Errorf("flipped selectivity = %v", flipped)
	}
}

func TestSelectivityCompound(t *testing.T) {
	_, tbl := newMovies(t)
	a := expr.Eq("genre", types.Str("Drama"))
	b := expr.Cmp("year", expr.OpGe, types.Int(2010))
	and := tbl.Selectivity(expr.Bin{Op: expr.OpAnd, L: a, R: b})
	or := tbl.Selectivity(expr.Bin{Op: expr.OpOr, L: a, R: b})
	sa, sb := tbl.Selectivity(a), tbl.Selectivity(b)
	if diff := and - sa*sb; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AND selectivity = %v, want %v", and, sa*sb)
	}
	if diff := or - (sa + sb - sa*sb); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("OR selectivity = %v", or)
	}
	not := tbl.Selectivity(expr.Un{Op: expr.OpNot, X: a})
	if diff := not - (1 - sa); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("NOT selectivity = %v", not)
	}
}

func TestSelectivityMisc(t *testing.T) {
	_, tbl := newMovies(t)
	if got := tbl.Selectivity(nil); got != 1 {
		t.Errorf("nil condition = %v", got)
	}
	if got := tbl.Selectivity(expr.TrueLiteral()); got != 1 {
		t.Errorf("TRUE = %v", got)
	}
	if got := tbl.Selectivity(expr.Lit{Val: types.Bool(false)}); got != 0 {
		t.Errorf("FALSE = %v", got)
	}
	in := tbl.Selectivity(expr.In{X: expr.ColRef("genre"), List: []expr.Node{expr.Lit{Val: types.Str("Drama")}, expr.Lit{Val: types.Str("Action")}}})
	if in < 0.5 || in > 0.8 {
		t.Errorf("IN selectivity = %v, want ~2/3", in)
	}
	btw := tbl.Selectivity(expr.Between{X: expr.ColRef("year"), Lo: expr.Lit{Val: types.Int(1990)}, Hi: expr.Lit{Val: types.Int(2000)}})
	if btw < 0.15 || btw > 0.4 {
		t.Errorf("BETWEEN selectivity = %v", btw)
	}
	prefix := tbl.Selectivity(expr.Like{X: expr.ColRef("genre"), Pattern: "Com%"})
	substr := tbl.Selectivity(expr.Like{X: expr.ColRef("genre"), Pattern: "%om%"})
	if prefix >= substr {
		t.Errorf("prefix LIKE (%v) should be more selective than substring (%v)", prefix, substr)
	}
	isn := tbl.Selectivity(expr.IsNull{X: expr.ColRef("year")})
	if isn != 0 {
		t.Errorf("IS NULL on non-null column = %v", isn)
	}
	notn := tbl.Selectivity(expr.IsNull{X: expr.ColRef("year"), Negate: true})
	if notn != 1 {
		t.Errorf("IS NOT NULL = %v", notn)
	}
	// Unknown shapes fall back to a sane default in (0,1).
	odd := tbl.Selectivity(expr.Call{Name: "f"})
	if odd <= 0 || odd >= 1 {
		t.Errorf("default selectivity = %v", odd)
	}
}

func TestSelectivityEmptyTable(t *testing.T) {
	c := New()
	tbl, _ := c.CreateTable("empty", schema.New(schema.Column{Name: "x", Kind: types.KindInt}))
	if got := tbl.Selectivity(expr.Eq("x", types.Int(1))); got != 1 {
		t.Errorf("empty-table selectivity = %v", got)
	}
}

func TestEquiDepthHistogram(t *testing.T) {
	// A heavily skewed column: 900 values at 1..10, 100 values spread over
	// 11..10000. Min/max interpolation would put "x <= 10" near 0; the
	// equi-depth histogram knows it covers ~90% of rows.
	c := New()
	s := schema.New(schema.Column{Name: "v", Kind: types.KindInt})
	tbl, _ := c.CreateTable("skewed", s)
	for i := 0; i < 900; i++ {
		tbl.Insert([]types.Value{types.Int(int64(1 + i%10))})
	}
	for i := 0; i < 100; i++ {
		tbl.Insert([]types.Value{types.Int(int64(11 + i*100))})
	}
	st := tbl.Stats()
	cs := st.Columns[0]
	if len(cs.Hist) == 0 {
		t.Fatal("histogram not built")
	}
	cdf, ok := cs.CDF(10)
	if !ok || cdf < 0.8 || cdf > 1.0 {
		t.Errorf("CDF(10) = %v (ok=%v), want ~0.9", cdf, ok)
	}
	if v, _ := cs.CDF(-5); v != 0 {
		t.Errorf("CDF below min = %v", v)
	}
	if v, _ := cs.CDF(1e9); v != 1 {
		t.Errorf("CDF above max = %v", v)
	}
	// Selectivity uses the histogram.
	sel := tbl.Selectivity(expr.Cmp("v", expr.OpLe, types.Int(10)))
	if sel < 0.8 {
		t.Errorf("skew-aware selectivity = %v, want ~0.9", sel)
	}
	selHi := tbl.Selectivity(expr.Cmp("v", expr.OpGt, types.Int(10)))
	if selHi > 0.2 {
		t.Errorf("tail selectivity = %v, want ~0.1", selHi)
	}
	// BETWEEN through the histogram too.
	btw := tbl.Selectivity(expr.Between{X: expr.ColRef("v"), Lo: expr.Lit{Val: types.Int(1)}, Hi: expr.Lit{Val: types.Int(10)}})
	if btw < 0.8 {
		t.Errorf("between selectivity = %v", btw)
	}
	// CDF monotonicity.
	prev := -1.0
	for x := 0.0; x <= 10100; x += 97 {
		v, _ := cs.CDF(x)
		if v < prev {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestHistogramSkippedForSmallColumns(t *testing.T) {
	c := New()
	s := schema.New(schema.Column{Name: "v", Kind: types.KindInt})
	tbl, _ := c.CreateTable("tiny", s)
	for i := 0; i < 10; i++ {
		tbl.Insert([]types.Value{types.Int(int64(i))})
	}
	if len(tbl.Stats().Columns[0].Hist) != 0 {
		t.Error("tiny column should not get a histogram")
	}
}

func TestDeleteWhere(t *testing.T) {
	_, tbl := newMovies(t)
	n := tbl.DeleteWhere(func(tuple []types.Value) bool {
		return tuple[1].AsInt() >= 2010
	})
	if n != 20 {
		t.Errorf("deleted = %d, want 20", n)
	}
	if tbl.Len() != 80 {
		t.Errorf("remaining = %d", tbl.Len())
	}
	// Stats reflect the deletion.
	if tbl.Stats().Rows != 80 {
		t.Errorf("stats rows = %d", tbl.Stats().Rows)
	}
	// No-match delete is a no-op.
	if got := tbl.DeleteWhere(func([]types.Value) bool { return false }); got != 0 {
		t.Errorf("no-op delete = %d", got)
	}
}

func TestUpdateWhere(t *testing.T) {
	c, tbl := newMovies(t)
	if err := c.CreateBTreeIndex("movies", "year"); err != nil {
		t.Fatal(err)
	}
	n, err := tbl.UpdateWhere(
		func(tuple []types.Value) bool { return tuple[0].AsInt() == 7 },
		func(tuple []types.Value) ([]types.Value, error) {
			out := append([]types.Value(nil), tuple...)
			out[1] = types.Int(2030)
			return out, nil
		})
	if err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	bi, _ := tbl.BTreeIndexOn("year")
	if len(bi.Lookup(types.Int(2030))) != 1 {
		t.Error("index not maintained through update")
	}
	// Arity violation aborts before mutating.
	before := tbl.Len()
	_, err = tbl.UpdateWhere(
		func([]types.Value) bool { return true },
		func(tuple []types.Value) ([]types.Value, error) { return tuple[:1], nil })
	if err == nil {
		t.Error("arity mismatch should error")
	}
	if tbl.Len() != before {
		t.Error("failed update changed the table")
	}
	// Apply errors abort before mutating.
	_, err = tbl.UpdateWhere(
		func([]types.Value) bool { return true },
		func([]types.Value) ([]types.Value, error) { return nil, errBoom })
	if err != errBoom {
		t.Errorf("apply error = %v", err)
	}
	if tbl.Len() != before {
		t.Error("failed update changed the table")
	}
}

var errBoom = fmt.Errorf("boom")

// TestUpdateWhereRejectsWrongKind pins that a replacement tuple is checked
// against the column kinds before anything changes: a wrong-kind value
// fails the update and leaves the rows, the indexes and Version() as they
// were.
func TestUpdateWhereRejectsWrongKind(t *testing.T) {
	c, tbl := newMovies(t)
	if err := c.CreateBTreeIndex("movies", "year"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHashIndex("movies", "genre"); err != nil {
		t.Fatal(err)
	}
	v0, n0 := tbl.Version(), tbl.Len()
	bi, _ := tbl.BTreeIndexOn("year")
	hi, _ := tbl.HashIndexOn("genre")
	years, dramas := len(bi.Lookup(types.Int(1987))), len(hi.Lookup([]types.Value{types.Str("Drama")}))
	for name, set := range map[string]func(out []types.Value){
		"text into INT":  func(out []types.Value) { out[1] = types.Str("1987") },
		"int into TEXT":  func(out []types.Value) { out[2] = types.Int(3) },
		"int into FLOAT": func(out []types.Value) { out[3] = types.Int(3) },
	} {
		_, err := tbl.UpdateWhere(
			func(tuple []types.Value) bool { return tuple[0].AsInt() >= 50 },
			func(tuple []types.Value) ([]types.Value, error) {
				out := append([]types.Value(nil), tuple...)
				set(out)
				return out, nil
			})
		if err == nil || !strings.Contains(err.Error(), "catalog: update: column movies.") {
			t.Errorf("%s: err = %v, want a catalog: update error naming the column", name, err)
		}
		if tbl.Version() != v0 || tbl.Len() != n0 {
			t.Errorf("%s: failed update moved Version %d→%d, Len %d→%d", name, v0, tbl.Version(), n0, tbl.Len())
		}
		if len(bi.Lookup(types.Int(1987))) != years || len(hi.Lookup([]types.Value{types.Str("Drama")})) != dramas {
			t.Errorf("%s: failed update changed the indexes", name)
		}
	}
	tbl.Heap.Scan(func(_ storage.RowID, tuple []types.Value) bool {
		for i, v := range tuple {
			if k := tbl.Schema().Columns[i].Kind; v.Kind() != k {
				t.Fatalf("row %v holds a %s in %s column %d", tuple, v.Kind(), k, i)
			}
		}
		return true
	})
}

// TestCreateTableRejectsWrongKind pins that a base table declares only
// the four stored kinds.
func TestCreateTableRejectsWrongKind(t *testing.T) {
	c := New()
	for _, k := range []types.Kind{types.KindNull, types.Kind(9)} {
		_, err := c.CreateTable("bad", schema.New(
			schema.Column{Name: "id", Kind: types.KindInt},
			schema.Column{Name: "x", Kind: k},
		))
		if err == nil || !strings.Contains(err.Error(), "column bad.x") {
			t.Errorf("kind %s: err = %v, want an error naming column bad.x", k, err)
		}
	}
	if len(c.Tables()) != 0 {
		t.Errorf("rejected tables were registered: %v", c.Tables())
	}
}

func TestVersionCounter(t *testing.T) {
	_, tbl := newMovies(t)
	v0 := tbl.Version()
	if v0 != 100 {
		t.Errorf("Version after 100 inserts = %d, want 100", v0)
	}

	// A delete that matches nothing must not bump the version.
	if n := tbl.DeleteWhere(func(tuple []types.Value) bool { return false }); n != 0 {
		t.Fatalf("deleted %d rows, want 0", n)
	}
	if got := tbl.Version(); got != v0 {
		t.Errorf("Version after no-op delete = %d, want %d", got, v0)
	}

	if n := tbl.DeleteWhere(func(tuple []types.Value) bool { return tuple[0].AsInt() == 0 }); n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	v1 := tbl.Version()
	if v1 <= v0 {
		t.Errorf("Version after delete = %d, want > %d", v1, v0)
	}

	// An update is one DML batch however many rows it replaces.
	n, err := tbl.UpdateWhere(
		func(tuple []types.Value) bool { return tuple[0].AsInt() <= 50 },
		func(tuple []types.Value) ([]types.Value, error) {
			out := append([]types.Value(nil), tuple...)
			out[3] = types.Float(9.9)
			return out, nil
		})
	if err != nil || n != 50 {
		t.Fatalf("update: n=%d err=%v, want 50 rows", n, err)
	}
	if got := tbl.Version(); got != v1+1 {
		t.Errorf("Version after updating 50 rows = %d, want %d", got, v1+1)
	}
}
