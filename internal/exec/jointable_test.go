package exec

import (
	"fmt"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/debug"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// Shape of the collision fixture: every build key repeats collideDups
// times, and every collideStride-th probe row carries a special key.
const (
	collideDups   = 210
	collideStride = 401
)

// collidingKeys returns n integer keys, starting with 1, whose hashes all
// fall into one bucket of any join table of up to 2^16 buckets: the top
// 16 bits of hash·fibMul, which the table's bucket function reads, agree.
func collidingKeys(n int) []int64 {
	probe := joinTable{shift: 48}
	bucketOf := func(k int64) int { return probe.bucket(hashCols([]types.Value{types.Int(k)}, []int{0})) }
	want := bucketOf(1)
	keys := []int64{1}
	for k := int64(2); len(keys) < n; k++ {
		if bucketOf(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// collideDB holds a build table bk whose keys all share one bucket —
// three INT keys (1 among them) repeated collideDups times each,
// interleaved, with a NULL key every tenth round — and a segment-scale
// probe table pk with a FLOAT key. Most probe keys are non-integral and
// match nothing; every collideStride-th row instead carries, in turn, 1.0
// (equal to INT 1, with the same hash), the other two build keys, two
// keys that hash into the same bucket but are not in bk, and NULL.
func collideDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	keys := collidingKeys(5)
	c := catalog.New()
	bk, err := c.CreateTable("bk", schema.New(
		schema.Column{Name: "b_key", Kind: types.KindInt},
		schema.Column{Name: "b_seq", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	insert := func(tbl *catalog.Table, row ...types.Value) {
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < collideDups; round++ {
		for _, k := range keys[:3] {
			insert(bk, types.Int(k), types.Int(seq))
			seq++
		}
		if round%10 == 0 {
			insert(bk, types.Null(), types.Int(seq))
			seq++
		}
	}
	pk, err := c.CreateTable("pk", schema.New(
		schema.Column{Name: "p_key", Kind: types.KindFloat},
		schema.Column{Name: "p_id", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	specials := []types.Value{types.Float(1), types.Float(float64(keys[1])), types.Float(float64(keys[3])),
		types.Float(float64(keys[2])), types.Float(float64(keys[4])), types.Null()}
	for i := 0; i < 5000; i++ {
		key := types.Float(float64(i) + 0.5)
		if i%collideStride == 0 {
			key = specials[i/collideStride%len(specials)]
		}
		insert(pk, key, types.Int(int64(i)))
	}
	return c
}

// scanRows returns a table's rows in scan order.
func scanRows(t *testing.T, cat *catalog.Catalog, table string) []prel.Row {
	t.Helper()
	rel, err := New(cat).Run(&algebra.Scan{Table: table}, Native)
	if err != nil {
		t.Fatal(err)
	}
	return rel.Rows
}

// TestJoinTableCollisions drives the flat join table through its worst
// layout: every build row in one bucket, hundreds of duplicates per key,
// NULL build keys, probe keys that share the bucket but not the key, and
// an INT build key against a FLOAT probe key of equal value. The join
// must equal a nested-loop reference row for row, in (probe order,
// build-insert order), at every batch size, on the heap and over the
// columnar copy; the differential harness then runs it under every
// strategy.
func TestJoinTableCollisions(t *testing.T) {
	if types.Int(1).Hash() != types.Float(1).Hash() {
		t.Fatal("INT 1 and FLOAT 1.0 hash differently; the hash join could not match them")
	}
	fx := loadTwice(t, collideDB)
	build, probe := scanRows(t, fx.heap, "bk"), scanRows(t, fx.heap, "pk")

	// The table really is one bucket: build it alone from bk's rows.
	h := &hashJoinBatch{build: newSliceBatchSrc(build, defaultBatchSize), buildKeys: []int{0}, stats: &Stats{}}
	h.joinBuild()
	if got, want := len(h.table.rows), 3*collideDups; got != want {
		t.Fatalf("join table holds %d rows, want %d (NULL keys skipped)", got, want)
	}
	for b := 0; b+1 < len(h.table.start); b++ {
		if n := int(h.table.start[b+1] - h.table.start[b]); n != 0 && n != len(h.table.rows) {
			t.Fatalf("bucket %d holds %d of %d rows; the fixture should put them all in one", b, n, len(h.table.rows))
		}
	}
	for i := 1; i < len(h.table.rows); i++ {
		if h.table.rows[i-1].Tuple[1].AsInt() >= h.table.rows[i].Tuple[1].AsInt() {
			t.Fatalf("bucket rows %d and %d are out of insert order", i-1, i)
		}
	}

	var want [][]types.Value
	for _, p := range probe {
		for _, b := range build {
			if !b.Tuple[0].IsNull() && b.Tuple[0].Equal(p.Tuple[0]) {
				want = append(want, append(append([]types.Value{}, b.Tuple...), p.Tuple...))
			}
		}
	}
	intFloat := 0
	for _, w := range want {
		if w[0].Kind() == types.KindInt && w[0].AsInt() == 1 && w[2].Kind() == types.KindFloat {
			intFloat++
		}
	}
	if intFloat == 0 || len(want) == 0 {
		t.Fatalf("fixture joins %d rows, %d of them INT 1 to FLOAT 1.0; the test would pass vacuously", len(want), intFloat)
	}

	join := &algebra.Join{Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("bk.b_key"), R: expr.ColRef("pk.p_key")},
		Left: &algebra.Scan{Table: "bk"}, Right: &algebra.Scan{Table: "pk"}}
	for _, cat := range []*catalog.Catalog{fx.heap, fx.col} {
		for _, size := range []int{1, 7, 0} {
			label := fmt.Sprintf("columnar=%v size=%d", cat == fx.col, size)
			e := New(cat)
			e.BatchSize = size
			got, err := e.Run(join, Native)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Len() != len(want) {
				t.Fatalf("%s: %d rows, want %d", label, got.Len(), len(want))
			}
			for i, r := range got.Rows {
				if g, w := fmt.Sprintf("%#v", r.Tuple), fmt.Sprintf("%#v", want[i]); g != w {
					t.Fatalf("%s: row %d is %v, want %v", label, i, r.Tuple, want[i])
				}
			}
		}
	}
	scored := &algebra.Prefer{P: pref.New("late", "bk", expr.Cmp("b_seq", expr.OpGe, types.Int(300)),
		pref.Linear("b_seq", 0.001), 0.7), Input: join}
	for _, strategy := range Strategies() {
		crossCheck(t, fx, scored, strategy, "colliding join "+strategy.String())
	}
}

// TestJoinTableBuildAllocs pins that the join table's allocations do not
// grow with the number of distinct keys: building 20,000 rows under
// 20,000 keys allocates exactly what 20,000 rows under one key do, and a
// small number of objects in all (the appends' doublings and the final
// arrays), where a table with a slice per key allocates one per key.
func TestJoinTableBuildAllocs(t *testing.T) {
	if debug.Enabled {
		t.Skip("prefdbdebug assertions allocate per build row")
	}
	const n = 20_000
	rowsOf := func(key func(i int) int64) []prel.Row {
		rows := make([]prel.Row, n)
		for i := range rows {
			rows[i] = prel.Row{Tuple: []types.Value{types.Int(key(i)), types.Int(int64(i))}}
		}
		return rows
	}
	allocs := func(rows []prel.Row) float64 {
		return testing.AllocsPerRun(5, func() {
			h := &hashJoinBatch{build: newSliceBatchSrc(rows, defaultBatchSize), buildKeys: []int{0}, stats: &Stats{}}
			h.joinBuild()
		})
	}
	distinct := allocs(rowsOf(func(i int) int64 { return int64(i) }))
	one := allocs(rowsOf(func(int) int64 { return 7 }))
	if distinct != one || distinct > 100 {
		t.Fatalf("building %d rows allocates %.0f objects under %d distinct keys and %.0f under one; want the same, at most 100",
			n, distinct, n, one)
	}
}
