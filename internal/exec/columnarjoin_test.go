package exec

import (
	"fmt"
	"math/rand"
	"sync"
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

// columnarJoinDB extends the colstore fixture with two join shapes: a small
// heap-side "names" table whose string keys hit the items dictionary (and
// whose int column pairs up for multi-key joins), and a segment-scale
// "orders" table whose join-key columns are run-heavy — constant for
// hundreds of consecutive rows — the low-distinct-value key shape, where
// every probe batch repeats a handful of keys and every bucket holds many
// candidates.
func columnarJoinDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := colstoreDB(t)

	names := schema.New(
		schema.Column{Name: "n_name", Kind: types.KindString},
		schema.Column{Name: "n_grp", Kind: types.KindInt},
		schema.Column{Name: "rank", Kind: types.KindInt},
	)
	nt, err := c.CreateTable("names", names)
	if err != nil {
		t.Fatal(err)
	}
	// name-0..name-3 exist in items; name-4/name-5 probe dictionary misses.
	for i := 0; i < 6; i++ {
		for g := 0; g < 3; g++ {
			err := nt.Insert([]types.Value{
				types.Str(fmt.Sprintf("name-%d", i)),
				types.Int(int64(g)),
				types.Int(int64(i*10 + g)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	orders := schema.New(
		schema.Column{Name: "o_id", Kind: types.KindInt},
		schema.Column{Name: "o_grp", Kind: types.KindInt},
		schema.Column{Name: "o_cat", Kind: types.KindString},
		schema.Column{Name: "o_val", Kind: types.KindFloat},
	).WithKey("o_id")
	ot, err := c.CreateTable("orders", orders)
	if err != nil {
		t.Fatal(err)
	}
	rows := colstore.SegmentPages*storage.PageSize + storage.PageSize + 50
	for i := 0; i < rows; i++ {
		err := ot.Insert([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(i / 512 % 8)),
			types.Str(fmt.Sprintf("name-%d", i/1024%4)),
			types.Float(float64(i % 31)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Tombstones inside runs: dead slots between equal keys must never
	// surface to live readers.
	ot.DeleteWhere(func(tuple []types.Value) bool {
		id := tuple[0].AsInt()
		return id%113 == 0 || (id >= 600 && id < 700)
	})
	return c
}

func ordersPref() pref.Preference {
	return pref.Preference{
		Name: "bulk", On: []string{"orders"},
		Cond:  expr.Cmp("o_grp", expr.OpGe, types.Int(2)),
		Score: pref.Recency("orders.o_id", 8000),
		Conf:  0.8,
	}
}

// columnarJoinPlans covers the probe/build/key shapes of a join over a
// columnar table: int and string probe keys over the plain columnar
// table, low-distinct int and string probe keys over the run-heavy table
// (the rle-* plans: keys that repeat in long runs), multi-key
// confirmation, a columnar build side, and a residual condition running
// above the hash match.
func columnarJoinPlans() map[string]algebra.Node {
	return map[string]algebra.Node{
		"int-probe": &algebra.TopK{K: 12, By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Join{
				Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("cats.c_id"), R: expr.ColRef("items.grp")},
				Left: &algebra.Scan{Table: "cats"},
				Right: &algebra.Select{
					Cond:  expr.Cmp("id", expr.OpLt, types.Int(900)),
					Input: &algebra.Scan{Table: "items"},
				},
			},
		}},
		"string-probe": &algebra.TopK{K: 9, By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Join{
				Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("names.n_name"), R: expr.ColRef("items.name")},
				Left: &algebra.Scan{Table: "names"},
				Right: &algebra.Select{
					Cond:  expr.Cmp("id", expr.OpLt, types.Int(2500)),
					Input: &algebra.Scan{Table: "items"},
				},
			},
		}},
		"rle-int-probe": &algebra.TopK{K: 15, By: algebra.ByScore, Input: &algebra.Prefer{
			P: ordersPref(), Input: &algebra.Join{
				Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("cats.c_id"), R: expr.ColRef("orders.o_grp")},
				Left:  &algebra.Scan{Table: "cats"},
				Right: &algebra.Scan{Table: "orders"},
			},
		}},
		"rle-multi-key": &algebra.TopK{K: 11, By: algebra.ByConf, Input: &algebra.Prefer{
			P: ordersPref(), Input: &algebra.Join{
				Cond: expr.Bin{Op: expr.OpAnd,
					L: expr.Bin{Op: expr.OpEq, L: expr.ColRef("names.n_name"), R: expr.ColRef("orders.o_cat")},
					R: expr.Bin{Op: expr.OpEq, L: expr.ColRef("names.n_grp"), R: expr.ColRef("orders.o_grp")}},
				Left:  &algebra.Scan{Table: "names"},
				Right: &algebra.Scan{Table: "orders"},
			},
		}},
		"colstore-build": &algebra.TopK{K: 10, By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Join{
				Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("items.grp"), R: expr.ColRef("cats.c_id")},
				Left: &algebra.Select{
					Cond:  expr.Cmp("id", expr.OpLt, types.Int(600)),
					Input: &algebra.Scan{Table: "items"},
				},
				Right: &algebra.Scan{Table: "cats"},
			},
		}},
		"residual": &algebra.Rank{By: algebra.ByScore, Input: &algebra.Prefer{
			P: itemsPref(), Input: &algebra.Join{
				Cond: expr.Bin{Op: expr.OpAnd,
					L: expr.Bin{Op: expr.OpEq, L: expr.ColRef("names.n_name"), R: expr.ColRef("items.name")},
					R: expr.Bin{Op: expr.OpGt, L: expr.ColRef("names.rank"), R: expr.ColRef("items.grp")}},
				Left: &algebra.Scan{Table: "names"},
				Right: &algebra.Select{
					Cond:  expr.Cmp("id", expr.OpLt, types.Int(400)),
					Input: &algebra.Scan{Table: "items"},
				},
			},
		}},
	}
}

// zeroDiagnostics clears the counters the path-equivalence contract
// excludes: batch/segment/materialization shape differs across arms by
// design, everything else must match exactly.
func zeroDiagnostics(s *Stats) {
	s.Batches = 0
	s.SegmentsScanned, s.SegmentsSkipped = 0, 0
	s.ColBatches, s.RowsMaterialized = 0, 0
	s.JoinProbeBatches = 0
}

// TestDirectJoinRowsEquivalence pins joins over columnar tables to the
// heap: across plan shapes × strategies × batch sizes, probing (and
// building) with a columnar table's batches — including string keys and
// keys repeating in long runs — must produce byte-identical rows, order
// and Stats (modulo diagnostic counters) to the same data never
// compacted.
func TestDirectJoinRowsEquivalence(t *testing.T) {
	fx := loadTwice(t, columnarJoinDB)
	for name, plan := range columnarJoinPlans() {
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
					zeroDiagnostics(&refStats)

					e := New(fx.col)
					e.BatchSize = size
					got, err := e.Run(plan, strategy)
					if err != nil {
						t.Fatalf("%s columnar path: %v", label, err)
					}
					mustIdentical(t, want, got, label)
					gotStats := e.Stats()
					if gotStats.SegmentsScanned == 0 {
						t.Fatalf("%s: columnar path read no segments: %+v", label, gotStats)
					}
					zeroDiagnostics(&gotStats)
					if refStats != gotStats {
						t.Fatalf("%s: stats %+v, want %+v", label, gotStats, refStats)
					}
				}
			}
		})
	}
}

// TestDirectJoinBatchOffEquivalence pins the join plans against the
// tuple-at-a-time oracle directly, over the heap and over the columnar
// copy, under every strategy.
func TestDirectJoinBatchOffEquivalence(t *testing.T) {
	fx := loadTwice(t, columnarJoinDB)
	for name, plan := range columnarJoinPlans() {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range Strategies() {
				for _, cat := range []*catalog.Catalog{fx.heap, fx.col} {
					label := fmt.Sprintf("%v columnar=%v", strategy, cat == fx.col)
					e := New(cat)
					got, err := e.Run(plan, strategy)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if segs := e.Stats().SegmentsScanned; (segs > 0) != (cat == fx.col) {
						t.Fatalf("%s: scanned %d segments", label, segs)
					}
					mustMatchOracle(t, fx.heap, plan, got, label)
				}
			}
		})
	}
}

// The fuzz fixture is segment-scale (unlike movieDB, whose tables are too
// small to hold a segment, so FuzzBatchRowEquivalence runs heap arms
// only). Built once: executions are read-only.
var (
	djFuzzOnce sync.Once
	djFuzzFx   fixture
)

func columnarJoinFuzzDB(t testing.TB) fixture {
	djFuzzOnce.Do(func() { djFuzzFx = loadTwice(t, columnarJoinDB) })
	return djFuzzFx
}

// djGen generates random join plans over the join fixture: every key
// shape it holds (int, string, run-heavy int, multi-key over run-heavy
// strings and ints), random probe filters,
// the columnar table on either join side, optional residual conjuncts and
// a random preference/filter stack on top.
type djGen struct{ r *rand.Rand }

func (g *djGen) plan() algebra.Node {
	filt := func(n algebra.Node, col string, max int64) algebra.Node {
		if g.r.Intn(2) == 0 {
			return n
		}
		return &algebra.Select{
			Cond:  expr.Cmp(col, expr.OpLt, types.Int(1+g.r.Int63n(max))),
			Input: n,
		}
	}
	eq := func(l, r string) expr.Node {
		return expr.Bin{Op: expr.OpEq, L: expr.ColRef(l), R: expr.ColRef(r)}
	}
	var core algebra.Node
	var p pref.Preference
	switch g.r.Intn(5) {
	case 0: // int key, items probing
		core = &algebra.Join{Cond: eq("cats.c_id", "items.grp"),
			Left: &algebra.Scan{Table: "cats"}, Right: filt(&algebra.Scan{Table: "items"}, "items.id", 9000)}
		p = itemsPref()
	case 1: // string key
		core = &algebra.Join{Cond: eq("names.n_name", "items.name"),
			Left: &algebra.Scan{Table: "names"}, Right: filt(&algebra.Scan{Table: "items"}, "items.id", 9000)}
		p = itemsPref()
	case 2: // run-heavy int key
		core = &algebra.Join{Cond: eq("cats.c_id", "orders.o_grp"),
			Left: &algebra.Scan{Table: "cats"}, Right: filt(&algebra.Scan{Table: "orders"}, "orders.o_id", 4400)}
		p = ordersPref()
	case 3: // multi-key over run-heavy strings and ints, optional residual
		cond := expr.Node(expr.Bin{Op: expr.OpAnd,
			L: eq("names.n_name", "orders.o_cat"), R: eq("names.n_grp", "orders.o_grp")})
		if g.r.Intn(2) == 0 {
			cond = expr.Bin{Op: expr.OpAnd, L: cond,
				R: expr.Bin{Op: expr.OpGt, L: expr.ColRef("names.rank"), R: expr.ColRef("orders.o_grp")}}
		}
		core = &algebra.Join{Cond: cond,
			Left: &algebra.Scan{Table: "names"}, Right: filt(&algebra.Scan{Table: "orders"}, "orders.o_id", 4400)}
		p = ordersPref()
	default: // columnar build side
		core = &algebra.Join{Cond: eq("items.grp", "cats.c_id"),
			Left: filt(&algebra.Scan{Table: "items"}, "items.id", 2000), Right: &algebra.Scan{Table: "cats"}}
		p = itemsPref()
	}
	if g.r.Intn(2) == 0 {
		core = &algebra.Prefer{P: p, Input: core}
		switch g.r.Intn(3) {
		case 0:
			core = &algebra.TopK{K: 1 + g.r.Intn(20), By: algebra.ByScore, Input: core}
		case 1:
			core = &algebra.Rank{By: algebra.ByConf, Input: core}
		}
	}
	return core
}

// FuzzDirectJoinEquivalence is the fuzz arm of the columnar join contract:
// random join plans over segment-scale tables, checked against the
// oracle and cross-checked over the heap and columnar copies at
// degenerate and default batch sizes (crossCheck). Run
// under `-tags prefdbdebug` to layer the join-table canary over the check.
func FuzzDirectJoinEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 42, 7777, 20120401} {
		f.Add(seed, uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, strategyPick uint8) {
		g := &djGen{r: rand.New(rand.NewSource(seed))}
		strategies := Strategies()
		s := strategies[int(strategyPick)%len(strategies)]
		crossCheck(t, columnarJoinFuzzDB(t), g.plan(), s, s.String())
	})
}

// groupAggPlans builds γ plans directly (the SQL surface has no GROUP BY;
// grouped aggregation is an algebra-level operator).
func groupAggPlans() map[string]algebra.Node {
	return map[string]algebra.Node{
		"int-group": &algebra.GroupAgg{
			By: []expr.Col{expr.ColRef("items.grp")},
			Aggs: []algebra.AggSpec{
				{Fn: algebra.AggCount, Col: expr.ColRef("items.id"), As: "cnt"},
				{Fn: algebra.AggSum, Col: expr.ColRef("items.val"), As: "sv"},
				{Fn: algebra.AggMin, Col: expr.ColRef("items.name"), As: "mn"},
				{Fn: algebra.AggMax, Col: expr.ColRef("items.id"), As: "mx"},
			},
			Input: &algebra.Select{
				Cond:  expr.Cmp("id", expr.OpLt, types.Int(3000)),
				Input: &algebra.Scan{Table: "items"},
			},
		},
		"string-group": &algebra.GroupAgg{
			By: []expr.Col{expr.ColRef("items.name"), expr.ColRef("items.grp")},
			Aggs: []algebra.AggSpec{
				{Fn: algebra.AggCount, Col: expr.ColRef("items.val"), As: "cnt"},
				{Fn: algebra.AggSum, Col: expr.ColRef("items.id"), As: "si"},
			},
			Input: &algebra.Scan{Table: "items"},
		},
		"rle-group": &algebra.GroupAgg{
			By: []expr.Col{expr.ColRef("orders.o_cat"), expr.ColRef("orders.o_grp")},
			Aggs: []algebra.AggSpec{
				{Fn: algebra.AggCount, Col: expr.ColRef("orders.o_id"), As: "cnt"},
				{Fn: algebra.AggSum, Col: expr.ColRef("orders.o_val"), As: "sv"},
				{Fn: algebra.AggMax, Col: expr.ColRef("orders.o_id"), As: "mx"},
			},
			Input: &algebra.Scan{Table: "orders"},
		},
		"agg-above-join": &algebra.GroupAgg{
			By: []expr.Col{expr.ColRef("names.n_name")},
			Aggs: []algebra.AggSpec{
				{Fn: algebra.AggCount, Col: expr.ColRef("items.id"), As: "cnt"},
				{Fn: algebra.AggMin, Col: expr.ColRef("items.val"), As: "mv"},
			},
			Input: &algebra.Join{
				Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("names.n_name"), R: expr.ColRef("items.name")},
				Left: &algebra.Scan{Table: "names"},
				Right: &algebra.Select{
					Cond:  expr.Cmp("id", expr.OpLt, types.Int(1200)),
					Input: &algebra.Scan{Table: "items"},
				},
			},
		},
		// Aggregation over a nullable column: tag holds occasional NULLs,
		// so sum and max must skip them identically on both paths.
		"raw-col-aggs": &algebra.GroupAgg{
			By: []expr.Col{expr.ColRef("items.grp")},
			Aggs: []algebra.AggSpec{
				{Fn: algebra.AggSum, Col: expr.ColRef("items.tag"), As: "st"},
				{Fn: algebra.AggMax, Col: expr.ColRef("items.tag"), As: "mt"},
			},
			Input: &algebra.Scan{Table: "items"},
		},
	}
}

// TestGroupAggEquivalence pins γ against the oracle and across the
// physical arms (crossCheck): heap and columnar batches at every batch
// size must all reproduce the reference byte-for-byte — group order
// (first-seen), sum widening, NULL skipping and all.
func TestGroupAggEquivalence(t *testing.T) {
	fx := loadTwice(t, columnarJoinDB)
	for name, plan := range groupAggPlans() {
		t.Run(name, func(t *testing.T) {
			crossCheck(t, fx, plan, Native, name)
		})
	}
}

// TestColumnarInputsCountOnce pins the materialization counter at the
// operators that read row views: every selected row of a columnar batch
// that enters a hash join, as probe or as build input, or γ counts once
// into RowsMaterialized, whether or not it joins. The probe joins on
// items.id, so only ids 1..7 match cats; all 847 selected rows count.
func TestColumnarInputsCountOnce(t *testing.T) {
	cat := compacted(t, columnarJoinDB(t))
	// Live items with id < 900 (id%17 == 0 is deleted), and with id < 600.
	// Both windows lie in the first segment; cats is smaller than a
	// segment, so its rows stream from the heap tail as row batches.
	const below900, below600 = 847, 564
	items := func(max int64) algebra.Node {
		return &algebra.Select{Cond: expr.Cmp("id", expr.OpLt, types.Int(max)), Input: &algebra.Scan{Table: "items"}}
	}
	for _, tc := range []struct {
		name string
		plan algebra.Node
		want int
	}{
		{"probe", &algebra.Join{
			Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("cats.c_id"), R: expr.ColRef("items.id")},
			Left: &algebra.Scan{Table: "cats"}, Right: items(900)}, below900},
		{"build", &algebra.Join{
			Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("items.grp"), R: expr.ColRef("cats.c_id")},
			Left: items(600), Right: &algebra.Scan{Table: "cats"}}, below600},
		{"group", &algebra.GroupAgg{
			By:    []expr.Col{expr.ColRef("items.grp")},
			Aggs:  []algebra.AggSpec{{Fn: algebra.AggCount, Col: expr.ColRef("items.id"), As: "cnt"}},
			Input: items(900)}, below900},
	} {
		e := New(cat)
		got, err := e.Run(tc.plan, Native)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Len() == 0 {
			t.Fatalf("%s: no rows; the count would pass vacuously", tc.name)
		}
		st := e.Stats()
		if st.ColBatches == 0 {
			t.Fatalf("%s: read no columnar batches: %+v", tc.name, st)
		}
		if st.RowsMaterialized != tc.want {
			t.Errorf("%s: RowsMaterialized = %d, want %d", tc.name, st.RowsMaterialized, tc.want)
		}
	}
}
