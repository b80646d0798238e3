package exec

import (
	"fmt"
	"math"
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

// joinArm is one hash-join arm: the generic arm (hashCols, then a
// confirm) or the typed INT arm (intKeyHash, no confirm).
type joinArm struct {
	name   string
	intKey bool
	// probeKind is the fixture's probe key kind: FLOAT keeps an INT build
	// key on the generic arm, INT puts the join on the typed one.
	probeKind types.Kind
}

var joinArms = []joinArm{
	{"generic INT-vs-FLOAT", false, types.KindFloat},
	{"typed INT", true, types.KindInt},
}

// collidingKeys returns n integer keys, starting with 1, whose hashes
// under arm's own hash all fall into one bucket of any join table of up
// to 2^16 buckets: the top 16 bits of hash·fibMul, which the table's
// bucket function reads, agree.
func collidingKeys(arm joinArm, n int) []int64 {
	probe := joinTable{shift: 48}
	h := &hashJoinBatch{intKey: arm.intKey}
	bucketOf := func(k int64) int { return probe.bucket(h.keyHash([]types.Value{types.Int(k)}, []int{0})) }
	want := bucketOf(1)
	keys := []int64{1}
	for k := int64(2); len(keys) < n; k++ {
		if bucketOf(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// collideDB returns a loader of a build table bk whose keys all share one
// bucket under arm's hash — three INT keys (1 among them) repeated
// collideDups times each, interleaved, with a NULL key every tenth round
// — and a segment-scale probe table pk keyed by arm.probeKind. Most probe
// keys match nothing (non-integral on FLOAT, negative on INT); every
// collideStride-th row instead carries, in turn, 1 (on the generic arm
// FLOAT 1.0: equal to INT 1, with the same hash), the other two build
// keys, two keys that hash into the same bucket but are not in bk, and
// NULL.
func collideDB(arm joinArm) func(testing.TB) *catalog.Catalog {
	return func(t testing.TB) *catalog.Catalog {
		t.Helper()
		keys := collidingKeys(arm, 5)
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
			schema.Column{Name: "p_key", Kind: arm.probeKind},
			schema.Column{Name: "p_id", Kind: types.KindInt},
		))
		if err != nil {
			t.Fatal(err)
		}
		key := func(k int64) types.Value { return types.Int(k) }
		miss := func(i int) types.Value { return types.Int(-int64(i) - 1) }
		if arm.probeKind == types.KindFloat {
			key = func(k int64) types.Value { return types.Float(float64(k)) }
			miss = func(i int) types.Value { return types.Float(float64(i) + 0.5) }
		}
		specials := []types.Value{key(1), key(keys[1]), key(keys[3]), key(keys[2]), key(keys[4]), types.Null()}
		for i := 0; i < 5000; i++ {
			k := miss(i)
			if i%collideStride == 0 {
				k = specials[i/collideStride%len(specials)]
			}
			insert(pk, k, types.Int(int64(i)))
		}
		return c
	}
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

// hashJoinOf compiles j on cat and returns its hash join, failing unless
// j compiles to one.
func hashJoinOf(t *testing.T, cat *catalog.Catalog, j *algebra.Join) *hashJoinBatch {
	t.Helper()
	bi, _, err := New(cat).buildBatch(j)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := bi.(*hashJoinBatch)
	if !ok {
		t.Fatalf("%s compiles to %T, want a hash join", j, bi)
	}
	return h
}

// nestedLoopJoin is the reference for an equi-join of build and probe on
// their key columns: every pair whose keys are all non-NULL and Equal, in
// (probe order, build-insert order), laid out left ++ right (the build
// side is the right one when buildRight).
func nestedLoopJoin(build, probe []prel.Row, bKeys, pKeys []int, buildRight bool) [][]types.Value {
	var out [][]types.Value
	for _, p := range probe {
		for _, b := range build {
			if anyNull(b.Tuple, bKeys) || !equalOn(b.Tuple, p.Tuple, bKeys, pKeys) {
				continue
			}
			l, r := b.Tuple, p.Tuple
			if buildRight {
				l, r = r, l
			}
			out = append(out, append(append([]types.Value{}, l...), r...))
		}
	}
	return out
}

// sameTuples fails unless got holds exactly want, row for row, each cell
// of the same kind and payload.
func sameTuples(t *testing.T, label string, got *prel.PRelation, want [][]types.Value) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), len(want))
	}
	for i, r := range got.Rows {
		if g, w := fmt.Sprintf("%#v", r.Tuple), fmt.Sprintf("%#v", want[i]); g != w {
			t.Fatalf("%s: row %d is %v, want %v", label, i, r.Tuple, want[i])
		}
	}
}

// TestJoinTableCollisions drives the flat join table through its worst
// layout, on each arm: every build row in one bucket under the arm's own
// hash, hundreds of duplicates per key, NULL build keys, probe keys that
// share the bucket but not the key and, on the generic arm, an INT build
// key against a FLOAT probe key of equal value. The join must equal a
// nested-loop reference row for row, in (probe order, build-insert
// order), at every batch size, on the heap and over the columnar copy;
// the differential harness then runs it under every strategy.
func TestJoinTableCollisions(t *testing.T) {
	if types.Int(1).Hash() != types.Float(1).Hash() {
		t.Fatal("INT 1 and FLOAT 1.0 hash differently; the hash join could not match them")
	}
	for _, arm := range joinArms {
		t.Run(arm.name, func(t *testing.T) {
			fx := loadTwice(t, collideDB(arm))
			build, probe := scanRows(t, fx.heap, "bk"), scanRows(t, fx.heap, "pk")

			// The table really is one bucket: build it alone from bk's rows.
			h := &hashJoinBatch{build: newSliceBatchSrc(build, defaultBatchSize), buildKeys: []int{0},
				intKey: arm.intKey, stats: &Stats{}}
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

			want := nestedLoopJoin(build, probe, []int{0}, []int{0}, false)
			special := 0
			for _, w := range want {
				if w[0].AsInt() == 1 && w[2].Kind() == arm.probeKind {
					special++
				}
			}
			if special == 0 || len(want) == 0 {
				t.Fatalf("fixture joins %d rows, %d of them INT 1 to %s 1; the test would pass vacuously", len(want), special, arm.probeKind)
			}

			join := &algebra.Join{Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("bk.b_key"), R: expr.ColRef("pk.p_key")},
				Left: &algebra.Scan{Table: "bk"}, Right: &algebra.Scan{Table: "pk"}}
			if got := hashJoinOf(t, fx.heap, join).intKey; got != arm.intKey {
				t.Fatalf("the join compiles with intKey %v, want %v", got, arm.intKey)
			}
			for _, cat := range []*catalog.Catalog{fx.heap, fx.col} {
				for _, size := range []int{1, 7, 0} {
					e := New(cat)
					e.BatchSize = size
					got, err := e.Run(join, Native)
					label := fmt.Sprintf("columnar=%v size=%d", cat == fx.col, size)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameTuples(t, label, got, want)
				}
			}
			scored := &algebra.Prefer{P: pref.New("late", "bk", expr.Cmp("b_seq", expr.OpGe, types.Int(300)),
				pref.Linear("b_seq", 0.001), 0.7), Input: join}
			for _, strategy := range Strategies() {
				crossCheck(t, fx, scored, strategy, "colliding join "+strategy.String())
			}
		})
	}
}

// intEdgeDB holds the typed arm's edge cases: a build table tb and a
// probe table tp keyed by INT k, with math.MinInt64, math.MaxInt64, −1,
// 0 and NULL among both sides' keys (a NULL probe key faces a build key
// 0, whose payload a NULL's shares), duplicates on both sides, a second
// INT column c and a FLOAT column f for composite and INT-vs-FLOAT keys,
// and a one-row table one keyed 0.
func intEdgeDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	create := func(name string, cols ...schema.Column) *catalog.Table {
		tbl, err := c.CreateTable(name, schema.New(cols...))
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	insert := func(tbl *catalog.Table, row ...types.Value) {
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	intCol := func(name string) schema.Column { return schema.Column{Name: name, Kind: types.KindInt} }
	keys := []types.Value{types.Int(0), types.Int(math.MinInt64), types.Int(-1), types.Null(),
		types.Int(math.MaxInt64), types.Int(0), types.Int(7), types.Int(-1)}
	tb := create("tb", intCol("k"), intCol("c"), intCol("seq"))
	for i, k := range keys {
		insert(tb, k, types.Int(int64(i%2)), types.Int(int64(i)))
	}
	tp := create("tp", intCol("k"), intCol("c"), schema.Column{Name: "f", Kind: types.KindFloat}, intCol("id"))
	probes := []types.Value{types.Null(), types.Int(0), types.Int(math.MaxInt64), types.Int(1),
		types.Int(math.MinInt64), types.Int(-1), types.Null(), types.Int(math.MinInt64 + 1),
		types.Int(math.MaxInt64 - 1), types.Int(0), types.Int(7)}
	for i, k := range probes {
		f := types.Float(float64(i%3) - 1) // −1, 0, 1
		if i == 4 {
			f = types.Null()
		}
		insert(tp, k, types.Int(int64(i%2)), f, types.Int(int64(i)))
	}
	one := create("one", intCol("k"), intCol("tag"))
	insert(one, types.Int(0), types.Int(99))
	return c
}

// TestIntKeyJoinEdges checks the typed INT arm against a nested-loop
// reference at batch sizes 1, 7 and the default, on the heap and the
// columnar copy, building on either side: a NULL probe key must not join
// the build key 0, the extreme keys must join exactly their equals, and a
// one-row build must work. INT-vs-FLOAT keys, composite keys and a
// Values leaf of the caller's making must stay on the generic arm, and
// still join like the reference.
func TestIntKeyJoinEdges(t *testing.T) {
	fx := loadTwice(t, intEdgeDB)
	rows := map[string][]prel.Row{}
	for _, name := range []string{"tb", "tp", "one"} {
		rows[name] = scanRows(t, fx.heap, name)
	}
	eq := func(l, r string) expr.Node { return expr.Bin{Op: expr.OpEq, L: expr.ColRef(l), R: expr.ColRef(r)} }
	tb, err := fx.heap.Table("tb")
	if err != nil {
		t.Fatal(err)
	}
	callerValues := &algebra.Values{Rel: &prel.PRelation{Schema: tb.Schema().Rename("tb"), Rows: rows["tb"]}}
	for _, tc := range []struct {
		name         string
		left, right  algebra.Node
		cond         expr.Node
		lRows, rRows []prel.Row
		lKeys, rKeys []int
		intKey       bool
	}{
		{"int", &algebra.Scan{Table: "tb"}, &algebra.Scan{Table: "tp"}, eq("tb.k", "tp.k"),
			rows["tb"], rows["tp"], []int{0}, []int{0}, true},
		{"one-row build", &algebra.Scan{Table: "one"}, &algebra.Scan{Table: "tp"}, eq("one.k", "tp.k"),
			rows["one"], rows["tp"], []int{0}, []int{0}, true},
		{"int-vs-float", &algebra.Scan{Table: "tb"}, &algebra.Scan{Table: "tp"}, eq("tb.k", "tp.f"),
			rows["tb"], rows["tp"], []int{0}, []int{2}, false},
		{"composite", &algebra.Scan{Table: "tb"}, &algebra.Scan{Table: "tp"},
			expr.Bin{Op: expr.OpAnd, L: eq("tb.k", "tp.k"), R: eq("tb.c", "tp.c")},
			rows["tb"], rows["tp"], []int{0, 1}, []int{0, 1}, false},
		{"caller values", callerValues, &algebra.Scan{Table: "tp"}, eq("tb.k", "tp.k"),
			rows["tb"], rows["tp"], []int{0}, []int{0}, false},
	} {
		for _, buildRight := range []bool{false, true} {
			join := &algebra.Join{Cond: tc.cond, Left: tc.left, Right: tc.right, BuildRight: buildRight}
			name := fmt.Sprintf("%s buildRight=%v", tc.name, buildRight)
			if got := hashJoinOf(t, fx.heap, join).intKey; got != tc.intKey {
				t.Fatalf("%s: the join compiles with intKey %v, want %v", name, got, tc.intKey)
			}
			build, probe, bKeys, pKeys := tc.lRows, tc.rRows, tc.lKeys, tc.rKeys
			if buildRight {
				build, probe, bKeys, pKeys = probe, build, pKeys, bKeys
			}
			want := nestedLoopJoin(build, probe, bKeys, pKeys, buildRight)
			if len(want) == 0 {
				t.Fatalf("%s: the reference joins nothing; the test would pass vacuously", name)
			}
			for _, cat := range []*catalog.Catalog{fx.heap, fx.col} {
				for _, size := range []int{1, 7, 0} {
					e := New(cat)
					e.BatchSize = size
					got, err := e.Run(join, Native)
					label := fmt.Sprintf("%s columnar=%v size=%d", name, cat == fx.col, size)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameTuples(t, label, got, want)
				}
			}
		}
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
