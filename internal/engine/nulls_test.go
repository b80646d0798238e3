package engine

import (
	"context"
	"fmt"
	"testing"

	"prefdb/internal/colstore"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// nullKeyTable creates table name(id, k) with n rows: k = id, except that
// every id divisible by nullEvery has k = NULL.
func nullKeyTable(t *testing.T, db *DB, name string, n, nullEvery int) {
	t.Helper()
	tbl, err := db.Catalog().CreateTable(name, schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "k", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		k := types.Int(int64(i))
		if i%nullEvery == 0 {
			k = types.Null()
		}
		if err := tbl.Insert([]types.Value{types.Int(int64(i)), k}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinNullKeysDoNotMatch pins σ_φ(R×S) ≡ R ⋈_φ S (§IV-B) for NULL join
// keys: NULL = NULL is not true, so the hash join must not pair two NULL
// keys. The small case is a heap-tail table on both sides; the large one
// spans sealed segments, so once both tables are columnar the build and
// the probe hash their keys off column vectors.
func TestJoinNullKeysDoNotMatch(t *testing.T) {
	large := 2*colstore.SegmentPages*storage.PageSize + 10
	cases := []struct {
		name      string
		n         int
		nullEvery int
	}{
		{"small", 2, 1},    // (1, NULL), (2, NULL): no row joins
		{"two-rows", 2, 2}, // (1, 1), (2, NULL): one row joins
		{"large", large, 1000},
	}
	for _, tc := range cases {
		want := tc.n - tc.n/tc.nullEvery
		for _, columnar := range []bool{false, true} {
			db := Open()
			nullKeyTable(t, db, "a", tc.n, tc.nullEvery)
			nullKeyTable(t, db, "b", tc.n, tc.nullEvery)
			if columnar {
				for _, name := range []string{"a", "b"} {
					tbl, err := db.Catalog().Table(name)
					if err != nil {
						t.Fatal(err)
					}
					tbl.ColStore()
				}
			}
			for _, mode := range Modes() {
				label := fmt.Sprintf("%s columnar=%v mode=%v", tc.name, columnar, mode)
				res, err := db.QueryContext(context.Background(), `SELECT a.id, b.id FROM a JOIN b ON a.k = b.k`, WithMode(mode))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := res.Rel.Len(); got != want {
					t.Fatalf("%s: join returned %d rows, want %d", label, got, want)
				}
				if segs := res.Stats.SegmentsScanned; (segs > 0) != (columnar && tc.n == large) {
					t.Fatalf("%s: join scanned %d segments", label, segs)
				}
				if tc.n > 2 {
					continue // σ over × of the large tables is too big to run
				}
				cross, err := db.QueryContext(context.Background(), `SELECT a.id, b.id FROM a, b WHERE a.k = b.k`, WithMode(mode))
				if err != nil {
					t.Fatalf("%s σ over ×: %v", label, err)
				}
				if got := cross.Rel.Len(); got != want {
					t.Fatalf("%s: σ over × returned %d rows, want %d", label, got, want)
				}
			}
		}
	}
}

// TestIndexPathNullLiteral pins that an index access path answers a
// comparison exactly as the heap scan does when the literal, a BETWEEN
// bound or an indexed key is NULL: a comparison with NULL is never true.
func TestIndexPathNullLiteral(t *testing.T) {
	queries := map[string]int{
		"k = NULL":                0,
		"k < NULL":                0,
		"k > NULL":                0,
		"k <= NULL":               0,
		"k >= NULL":               0,
		"k BETWEEN NULL AND 6":    0,
		"k BETWEEN 4 AND NULL":    0,
		"k BETWEEN NULL AND NULL": 0,
		"k < 6":                   1,
		"k <= 7":                  2,
		"k > 4":                   2,
		"k BETWEEN 0 AND 10":      2,
		"k = 5":                   1,
	}
	for _, index := range []string{"", "HASH", "BTREE"} {
		db := Open()
		for _, stmt := range []string{
			`CREATE TABLE t (id INT, k INT)`,
			`INSERT INTO t VALUES (1, NULL), (2, 5), (3, 7)`,
		} {
			if _, err := db.ExecContext(context.Background(), stmt); err != nil {
				t.Fatal(err)
			}
		}
		if index != "" {
			if _, err := db.ExecContext(context.Background(), fmt.Sprintf(`CREATE %s INDEX ON t (k)`, index)); err != nil {
				t.Fatal(err)
			}
		}
		for cond, want := range queries {
			res, err := db.QueryContext(context.Background(), `SELECT id FROM t WHERE `+cond, WithMode(ModeGBU))
			if err != nil {
				t.Fatalf("index=%q %s: %v", index, cond, err)
			}
			if got := res.Rel.Len(); got != want {
				t.Errorf("index=%q WHERE %s: %d rows, want %d", index, cond, got, want)
			}
		}
	}
}
