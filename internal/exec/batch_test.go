package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/expr"
	"prefdb/internal/optimizer"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// TestBatchRowEquivalence is the acceptance contract of the pipeline:
// for named and randomized plans, every strategy must agree with the
// tuple-at-a-time oracle, and every batch size must reproduce the reference run's rows,
// row order and Stats byte-for-byte (see crossCheck). The fixture carries
// NULLs (nullMovieDB); its tables are too small to hold a segment, so the
// columnar arms live in the segment-scale suites (colstore_test.go,
// columnarjoin_test.go).
func TestBatchRowEquivalence(t *testing.T) {
	fx := fixture{heap: nullMovieDB(t)}
	plans := map[string]algebra.Node{
		"q1-topk-joins": q1Plan(),
		"q2-threshold":  q2Plan(),
		"q3-union-rank": q3Plan(),
		"project-prefer": &algebra.Project{
			Cols: []expr.Col{expr.ColRef("movies.m_id"), expr.ColRef("movies.year")},
			Input: &algebra.Prefer{P: paMovies(), Input: &algebra.Select{
				Cond:  expr.Cmp("year", expr.OpGe, types.Int(2000)),
				Input: &algebra.Scan{Table: "movies"},
			}},
		},
		// A join's Cols run in its gather: after a hash join, after a
		// nested loop, after a residual filter, and composed with a
		// projection above.
		"join-cols":          joinCols(eqMovieGenre),
		"join-cols-residual": joinCols(residualMovieGenre),
		"project-join-cols-residual": &algebra.Project{Cols: []expr.Col{expr.ColRef("genre"), expr.ColRef("year")},
			Input: joinCols(residualMovieGenre)},
		"cross-join-cols": &algebra.Project{Cols: []expr.Col{expr.ColRef("title")}, Input: joinCols(nil)},
	}
	iterations := 20
	if testing.Short() {
		iterations = 5
	}
	g := &planGen{r: rand.New(rand.NewSource(20260806))}
	for i := 0; i < iterations; i++ {
		plans[fmt.Sprintf("rand-%02d", i)] = g.genPlan()
	}

	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range Strategies() {
				crossCheck(t, fx, plan, strategy, strategy.String())
			}
		})
	}
}

var (
	eqMovieGenre       = expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")}
	residualMovieGenre = expr.Bin{Op: expr.OpAnd, L: eqMovieGenre, R: expr.Cmp("movies.year", expr.OpGe, types.Int(2000))}
)

// joinCols joins movies to genres on cond, keeping three columns out of
// order through the join's Cols.
func joinCols(cond expr.Node) *algebra.Join {
	return &algebra.Join{Cond: cond, Left: &algebra.Scan{Table: "movies"}, Right: &algebra.Scan{Table: "genres"},
		Cols: []expr.Col{expr.ColRef("genres.genre"), expr.ColRef("movies.title"), expr.ColRef("movies.year")}}
}

// TestBatchSizeEquivalence sweeps extreme block sizes (including a
// degenerate 1-row batch) to pin boundary behavior: results must match
// the oracle and must not depend on how the pipeline is blocked.
func TestBatchSizeEquivalence(t *testing.T) {
	cat := movieDB(t)
	plans := map[string]algebra.Node{
		"q1-topk-joins": q1Plan(),
		"prefer-chain": &algebra.Prefer{P: paMovies(), Input: &algebra.Prefer{
			P: pbMovies(), Input: &algebra.Select{
				Cond:  expr.Cmp("duration", expr.OpLe, types.Int(150)),
				Input: &algebra.Scan{Table: "movies"},
			},
		}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			ref := New(cat)
			want, err := ref.Run(plan, Native)
			if err != nil {
				t.Fatalf("default size: %v", err)
			}
			mustMatchOracle(t, cat, plan, want, "default size")
			for _, size := range []int{1, 3, 64, 1024, 4096} {
				e := New(cat)
				e.BatchSize = size
				got, err := e.Run(plan, Native)
				if err != nil {
					t.Fatalf("batch size %d: %v", size, err)
				}
				mustIdentical(t, want, got, fmt.Sprintf("batch size %d", size))
				rs, gs := ref.Stats(), e.Stats()
				rs.Batches, gs.Batches = 0, 0
				rs.JoinProbeBatches, gs.JoinProbeBatches = 0, 0
				if rs != gs {
					t.Fatalf("batch size %d: stats %+v, want %+v", size, gs, rs)
				}
			}
		})
	}
}

// nullMovieDB is movieDB plus NULLs where the executor has had to get
// them right: a NULL d_id on both sides of the movies ⋈ directors pair
// (hash-join keys), NULL year and duration under a B+-tree index and a
// NULL d_id under a hash index (index access paths), beside rows that
// join normally.
func nullMovieDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := movieDB(t)
	null := types.Null()
	inserts := map[string][][]types.Value{
		"movies": {
			{types.Int(6), types.Str("Untitled"), null, null, null},
			{types.Int(7), types.Str("Lost Reel"), types.Int(1999), types.Int(101), null},
			{types.Int(8), types.Str("Short Cut"), null, types.Int(88), types.Int(3)},
		},
		"directors": {{null, types.Str("Anonymous")}},
		"genres":    {{types.Int(6), types.Str("Drama")}, {types.Int(7), types.Str("Comedy")}, {types.Int(8), types.Str("Sport")}},
		"ratings":   {{types.Int(7), types.Float(5.9), null}},
	}
	for table, rows := range inserts {
		tbl, err := c.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, err := range []error{
		c.CreateBTreeIndex("movies", "year"),
		c.CreateBTreeIndex("movies", "duration"),
		c.CreateHashIndex("movies", "d_id"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// crossCheck is the shared differential harness. It runs plan under
// strategy on the reference arm (fx.heap, default batch size), checks
// the result against the oracle, then requires every arm of storage
// {heap, columnar} × batch size {1, 7, default} to reproduce the
// reference's rows, order and Stats (modulo the diagnostic counters)
// exactly. The columnar arms run when fx.col is set, and each must read
// at least one segment.
func crossCheck(t *testing.T, fx fixture, plan algebra.Node, strategy Strategy, label string) {
	t.Helper()
	arm := func(cat *catalog.Catalog, size int) *Executor {
		e := New(cat)
		e.BatchSize = size
		return e
	}
	ref := arm(fx.heap, 0)
	want, err := ref.Run(plan, strategy)
	if err != nil {
		t.Fatalf("%s failed on\n%s\n%v", label, algebra.Format(plan), err)
	}
	mustMatchOracle(t, fx.heap, plan, want, label)
	refStats := ref.Stats()
	zeroDiagnostics(&refStats)
	cats := []*catalog.Catalog{fx.heap}
	if fx.col != nil {
		cats = append(cats, fx.col)
	}
	for _, cat := range cats {
		for _, size := range []int{1, 7, 0} {
			name := fmt.Sprintf("%s columnar=%v size=%d", label, cat == fx.col, size)
			e := arm(cat, size)
			got, err := e.Run(plan, strategy)
			if err != nil {
				t.Fatalf("%s failed on\n%s\n%v", name, algebra.Format(plan), err)
			}
			mustIdentical(t, want, got, name)
			gotStats := e.Stats()
			if cat == fx.col && gotStats.SegmentsScanned == 0 {
				t.Fatalf("%s read no segments on\n%s", name, algebra.Format(plan))
			}
			zeroDiagnostics(&gotStats)
			if gotStats != refStats {
				t.Fatalf("%s: Stats differ on\n%s\nref: %v\ngot: %v", name, algebra.Format(plan), refStats, gotStats)
			}
		}
	}
	// The hash join's build side is a physical choice: forcing every join
	// to build on either input must reproduce the reference.
	for _, right := range []bool{false, true} {
		forced, changed := forceBuildSide(plan, right)
		if !changed {
			continue
		}
		for _, cat := range cats {
			name := fmt.Sprintf("%s build-right=%v columnar=%v", label, right, cat == fx.col)
			got, err := arm(cat, 0).Run(forced, strategy)
			if err != nil {
				t.Fatalf("%s failed on\n%s\n%v", name, algebra.Format(forced), err)
			}
			if diff := bitwiseDiff(want, got); diff != "" {
				t.Fatalf("%s differs on\n%s\n%s", name, algebra.Format(forced), diff)
			}
		}
	}
}

// forceBuildSide returns plan with every join's BuildRight set to right,
// and whether any join changed.
func forceBuildSide(plan algebra.Node, right bool) (algebra.Node, bool) {
	changed := false
	out := algebra.Transform(plan, func(n algebra.Node) algebra.Node {
		j, ok := n.(*algebra.Join)
		if !ok || j.BuildRight == right {
			return n
		}
		cp := *j
		cp.BuildRight = right
		changed = true
		return &cp
	})
	return out, changed
}

// bitwiseDiff compares two results as multisets — same schema, same
// tuples, ⟨S,C⟩ pairs equal bit for bit — and explains the first
// difference, or returns "".
func bitwiseDiff(want, got *prel.PRelation) string {
	if want.Schema != nil && got.Schema != nil && want.Schema.String() != got.Schema.String() {
		return fmt.Sprintf("schema %v, want %v", got.Schema, want.Schema)
	}
	if want.Len() != got.Len() {
		return fmt.Sprintf("cardinality %d, want %d", got.Len(), want.Len())
	}
	key := func(r prel.Row) string {
		return fmt.Sprintf("%#v %v %x %x", r.Tuple, r.SC.Known, math.Float64bits(r.SC.Score), math.Float64bits(r.SC.Conf))
	}
	count := map[string]int{}
	for _, r := range want.Rows {
		count[key(r)]++
	}
	for _, r := range got.Rows {
		k := key(r)
		if count[k] == 0 {
			return fmt.Sprintf("row %v %v (score bits %x, conf bits %x) is not in the reference",
				r.Tuple, r.SC, math.Float64bits(r.SC.Score), math.Float64bits(r.SC.Conf))
		}
		count[k]--
	}
	return ""
}

// TestBuildSideEquivalence pins that the build side of a hash join
// changes nothing but row order, where the optimizer's plans put it:
// projections over joins (evaluated inside the join) and optimized
// random join plans go through crossCheck, which runs every join with
// BuildRight forced both ways and requires the same multiset with
// bit-identical ⟨S,C⟩ pairs (F always combines left, right). The
// materialization budget meters whichever input is buffered: a
// WithMaxRows budget below the smaller input trips on the build alone.
func TestBuildSideEquivalence(t *testing.T) {
	cat := nullMovieDB(t)
	fx := fixture{heap: cat}
	projected := &algebra.Project{
		Cols: []expr.Col{expr.ColRef("directors.director"), expr.ColRef("movies.title"), expr.ColRef("movies.year"), expr.ColRef("genres.genre")},
		Input: &algebra.Join{
			Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.d_id"), R: expr.ColRef("directors.d_id")},
			Left:  &algebra.Join{Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")}, Left: &algebra.Scan{Table: "movies"}, Right: &algebra.Scan{Table: "genres"}},
			Right: &algebra.Scan{Table: "directors"},
		},
	}
	plans := []algebra.Node{
		projected,
		&algebra.TopK{K: 3, By: algebra.ByScore, Input: &algebra.Prefer{P: paMovies(), Input: projected}},
		optimizer.New(cat).Optimize(&algebra.Project{Cols: projected.Cols, Input: q1Plan().(*algebra.TopK).Input}),
	}
	g := &planGen{r: rand.New(rand.NewSource(29))}
	for len(plans) < 20 {
		if p := g.genPlan(); algebra.CountOps(p)["join"] > 0 {
			plans = append(plans, optimizer.New(cat).Optimize(p))
		}
	}
	for i, plan := range plans {
		for _, strategy := range Strategies() {
			crossCheck(t, fx, plan, strategy, fmt.Sprintf("plan %d %v", i, strategy))
		}
	}

	t.Run("guard", func(t *testing.T) {
		// big (100 rows) and small (10 rows) share no key, so the join
		// emits nothing and the only materialized state is the build.
		c := catalog.New()
		for table, rows := range map[string]int{"big": 100, "small": 10} {
			tbl, err := c.CreateTable(table, schema.New(schema.Column{Name: "k", Kind: types.KindInt}))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if err := tbl.Insert([]types.Value{types.Int(int64(rows*1000 + i))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, buildRight := range []bool{true, false} {
			plan := &algebra.Join{
				Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("big.k"), R: expr.ColRef("small.k")},
				Left: &algebra.Scan{Table: "big"}, Right: &algebra.Scan{Table: "small"},
				BuildRight: buildRight,
			}
			built := int64(100)
			if buildRight {
				built = 10
			}
			e := New(c)
			e.Limits = Limits{MaxRows: 5}
			_, err := e.RunContext(t.Context(), plan, Native)
			var ge *GuardError
			if !asGuardError(err, &ge) || ge.Limit != LimitRows {
				t.Fatalf("build-right=%v: err = %v, want a max-rows GuardError", buildRight, err)
			}
			if ge.Observed != built {
				t.Fatalf("build-right=%v: tripped at %d rows, want the %d-row build side", buildRight, ge.Observed, built)
			}
		}
	})
}

// mustMatchOracle fails unless got is what the oracle says plan denotes
// (under the executor default F_S).
func mustMatchOracle(t *testing.T, cat *catalog.Catalog, plan algebra.Node, got *prel.PRelation, label string) {
	t.Helper()
	diff, err := oracleDiff(newOracle(cat, pref.FSum{}), plan, got)
	if err != nil {
		t.Fatalf("%s: oracle failed on\n%s\n%v", label, algebra.Format(plan), err)
	}
	if diff != "" {
		t.Fatalf("%s differs from the oracle on\n%s\n%s", label, algebra.Format(plan), diff)
	}
}

// oracleDiff explains how an engine result departs from the oracle, or
// returns "". Results compare as multisets (prel Diff at 1e-9: strategies
// fold F in different orders); the outermost Rank or OrderBy also checks
// the engine's order, and a top-k compares tie-tolerantly — the same k
// best keys, each returned row drawn from the oracle's input.
func oracleDiff(o *oracle, plan algebra.Node, got *prel.PRelation) (string, error) {
	before := func(a, b prel.Row) bool { return false }
	switch x := plan.(type) {
	case *algebra.Rank:
		before = func(a, b prel.Row) bool { return rankBefore(a.SC, b.SC, x.By == algebra.ByConf) }
	case *algebra.OrderBy:
		var err error
		if before, err = orderLess(got.Schema, x.Keys); err != nil {
			return "", err
		}
	}
	for i := 1; i < got.Len(); i++ {
		if before(got.Rows[i], got.Rows[i-1]) {
			return fmt.Sprintf("%s: order broken at row %d", plan, i), nil
		}
	}
	for { // ordering keeps the multiset of its input
		if x, ok := plan.(*algebra.Rank); ok {
			plan = x.Input
		} else if x, ok := plan.(*algebra.OrderBy); ok {
			plan = x.Input
		} else {
			break
		}
	}
	x, ok := plan.(*algebra.TopK)
	if !ok {
		want, err := o.eval(plan)
		if err != nil {
			return "", err
		}
		return want.Diff(got, 1e-9), nil
	}
	in, err := o.eval(x.Input)
	if err != nil {
		return "", err
	}
	byConf := x.By == algebra.ByConf
	best, mine := ranked(in.Rows, byConf)[:min(max(x.K, 0), in.Len())], ranked(got.Rows, byConf)
	if len(mine) != len(best) {
		return fmt.Sprintf("top-%d returned %d rows, want %d", x.K, len(mine), len(best)), nil
	}
	pool := append([]prel.Row(nil), in.Rows...)
	for i, r := range mine {
		if !r.SC.ApproxEqual(best[i].SC, 1e-9) {
			return fmt.Sprintf("top-%d key %d is %v, want %v", x.K, i, r.SC, best[i].SC), nil
		}
		j := 0
		for j < len(pool) && !(types.TupleEqual(pool[j].Tuple, r.Tuple) && pool[j].SC.ApproxEqual(r.SC, 1e-9)) {
			j++
		}
		if j == len(pool) {
			return fmt.Sprintf("top-%d row %v %v is not in its input", x.K, r.Tuple, r.SC), nil
		}
		pool = append(pool[:j], pool[j+1:]...)
	}
	return "", nil
}

// TestLimitStopsScanEarly pins that LIMIT streams its input: a limit of
// five over a 200,000-row scan reads one batch of the heap (or one window
// of the column store), not the whole table, and a prefer chain beneath
// it scores only the batches it pulls — exactly five rows with 1-row
// batches. OFFSETs that cross batch boundaries, over a scan and over an
// index path, must return the [offset:offset+n] slice of the same plan
// without the Limit.
func TestLimitStopsScanEarly(t *testing.T) {
	fx := loadTwice(t, func(t testing.TB) *catalog.Catalog {
		cat := catalog.New()
		tbl, err := cat.CreateTable("wide", schema.New(schema.Column{Name: "id", Kind: types.KindInt}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200_000; i++ {
			if err := tbl.Insert([]types.Value{types.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.CreateBTreeIndex("wide", "id"); err != nil {
			t.Fatal(err)
		}
		return cat
	})
	scan := &algebra.Limit{N: 5, Input: &algebra.Scan{Table: "wide"}}
	prefer := &algebra.Limit{N: 5, Input: &algebra.Prefer{
		P:     pref.New("all", "wide", expr.TrueLiteral(), pref.Around("id", 100), 0.9),
		Input: &algebra.Scan{Table: "wide"},
	}}
	for _, cat := range []*catalog.Catalog{fx.heap, fx.col} {
		for _, size := range []int{1, 0} {
			for _, plan := range []algebra.Node{scan, prefer} {
				e := New(cat)
				e.BatchSize = size
				got, err := e.Run(plan, Native)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("columnar=%v size=%d %s", cat == fx.col, size, algebra.Format(plan))
				if got.Len() != 5 {
					t.Fatalf("%s: %d rows, want 5", label, got.Len())
				}
				st := e.Stats()
				if (st.SegmentsScanned > 0) != (cat == fx.col) {
					t.Fatalf("%s: scanned %d segments", label, st.SegmentsScanned)
				}
				if st.RowsScanned > defaultBatchSize {
					t.Fatalf("%s: scanned=%d, want <= %d", label, st.RowsScanned, defaultBatchSize)
				}
				if plan == prefer && (st.PreferEvals > defaultBatchSize || size == 1 && st.PreferEvals != 5) {
					t.Fatalf("%s: PreferEvals=%d, want 5 with 1-row batches and at most one batch otherwise", label, st.PreferEvals)
				}
			}
		}
	}

	inputs := map[string]algebra.Node{
		"scan": &algebra.Scan{Table: "wide"},
		"index": &algebra.Select{ // a B+-tree range
			Cond:  expr.Cmp("id", expr.OpGe, types.Int(195_000)),
			Input: &algebra.Scan{Table: "wide"},
		},
	}
	for name, in := range inputs {
		for _, cat := range []*catalog.Catalog{fx.heap, fx.col} {
			for _, size := range []int{1, 7, 1024} {
				run := func(plan algebra.Node) (*prel.PRelation, Stats) {
					e := New(cat)
					e.BatchSize = size
					rel, err := e.Run(plan, Native)
					if err != nil {
						t.Fatal(err)
					}
					return rel, e.Stats()
				}
				all, st := run(in)
				if (st.IndexProbes > 0) != (name == "index") {
					t.Fatalf("%s: %d index probes", name, st.IndexProbes)
				}
				for _, lim := range [][2]int{{0, 7}, {6, 3}, {7, 7}, {1020, 10}, {1024, 1}, {1030, 1100}, {4990, 20}, {5000, 3}} {
					off, n := lim[0], lim[1]
					got, _ := run(&algebra.Limit{N: n, Offset: off, Input: in})
					lo := min(off, all.Len())
					want := &prel.PRelation{Schema: all.Schema, Rows: all.Rows[lo:min(lo+n, all.Len())]}
					mustIdentical(t, want, got, fmt.Sprintf("%s columnar=%v size=%d LIMIT %d OFFSET %d", name, cat == fx.col, size, n, off))
				}
			}
		}
	}
}

// TestLimitCountsMaterializedRows pins that columnar rows crossing into
// row form above a Limit or inside a nested-loop join count in
// RowsMaterialized like everywhere else: LIMIT 5000 over a compacted
// 20,000-row table hands 5,000 columnar rows to the pipeline root, and a
// theta join crosses every row of both (filtered) inputs. The theta join
// must also match the oracle on every arm.
func TestLimitCountsMaterializedRows(t *testing.T) {
	fx := loadTwice(t, seqDB)
	side := func(alias string, below int64) algebra.Node {
		return &algebra.Select{Cond: expr.Cmp(alias+".id", expr.OpLt, types.Int(below)),
			Input: &algebra.Scan{Table: "seq", Alias: alias}}
	}
	theta := &algebra.Join{Cond: expr.Bin{Op: expr.OpLt, L: expr.ColRef("a.id"), R: expr.ColRef("b.id")},
		Left: side("a", 100), Right: side("b", 50)}
	for _, tc := range []struct {
		plan algebra.Node
		rows int // result rows
		mat  int // columnar rows crossed into row form
	}{
		{&algebra.Limit{N: 5000, Input: &algebra.Scan{Table: "seq"}}, 5000, 5000},
		{theta, 49 * 50 / 2, 100 + 50},
	} {
		e := New(fx.col)
		got, err := e.Run(tc.plan, Native)
		if err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); got.Len() != tc.rows || st.RowsMaterialized != tc.mat {
			t.Fatalf("%s: %d rows, rowsMaterialized=%d; want %d and %d",
				algebra.Format(tc.plan), got.Len(), st.RowsMaterialized, tc.rows, tc.mat)
		}
	}
	for _, strategy := range Strategies() {
		crossCheck(t, fx, theta, strategy, "theta "+strategy.String())
	}
}

// seqRows is the size of seqDB's table.
const seqRows = 20_000

// seqDB holds one table, seq, whose INT column id runs 0..seqRows-1.
func seqDB(t testing.TB) *catalog.Catalog {
	cat := catalog.New()
	tbl, err := cat.CreateTable("seq", schema.New(schema.Column{Name: "id", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seqRows; i++ {
		if err := tbl.Insert([]types.Value{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestNLJoinEmptyRightSkipsLeft pins that a nested-loop join whose right
// input is empty ends without reading its left input: the result is empty
// and RowsScanned counts only the right side's scan, on the heap and on
// the columnar table alike.
func TestNLJoinEmptyRightSkipsLeft(t *testing.T) {
	fx := loadTwice(t, seqDB)
	theta := &algebra.Join{Cond: expr.Bin{Op: expr.OpLt, L: expr.ColRef("a.id"), R: expr.ColRef("b.id")},
		Left: &algebra.Scan{Table: "seq", Alias: "a"},
		// b.id < b.id rejects every row and no zone map can prove it, so
		// the columnar arm still reads the right side's segments.
		Right: &algebra.Select{Cond: expr.Bin{Op: expr.OpLt, L: expr.ColRef("b.id"), R: expr.ColRef("b.id")},
			Input: &algebra.Scan{Table: "seq", Alias: "b"}}}
	for name, cat := range map[string]*catalog.Catalog{"heap": fx.heap, "columnar": fx.col} {
		for _, size := range []int{1, 7, 0} {
			e := New(cat)
			e.BatchSize = size
			got, err := e.Run(theta, Native)
			if err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); got.Len() != 0 || st.RowsScanned != seqRows {
				t.Fatalf("%s size=%d: %d rows, rowsScanned=%d; want 0 and %d (the right side only)",
					name, size, got.Len(), st.RowsScanned, seqRows)
			}
		}
	}
	for _, strategy := range Strategies() {
		crossCheck(t, fx, theta, strategy, "empty-right theta "+strategy.String())
	}
}

// TestHashJoinEmptyBuildSkipsProbe pins that a hash join whose build
// table is empty ends without reading its probe input: the result is
// empty and RowsScanned counts only the build side's scan, on the heap
// and on the columnar table alike.
func TestHashJoinEmptyBuildSkipsProbe(t *testing.T) {
	fx := loadTwice(t, seqDB)
	equi := &algebra.Join{Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("a.id"), R: expr.ColRef("b.id")},
		// a.id < a.id rejects every row and no zone map can prove it, so
		// the columnar arm still reads the build side's segments.
		Left: &algebra.Select{Cond: expr.Bin{Op: expr.OpLt, L: expr.ColRef("a.id"), R: expr.ColRef("a.id")},
			Input: &algebra.Scan{Table: "seq", Alias: "a"}},
		Right: &algebra.Scan{Table: "seq", Alias: "b"}}
	for name, cat := range map[string]*catalog.Catalog{"heap": fx.heap, "columnar": fx.col} {
		for _, size := range []int{1, 7, 0} {
			e := New(cat)
			e.BatchSize = size
			got, err := e.Run(equi, Native)
			if err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); got.Len() != 0 || st.RowsScanned != seqRows {
				t.Fatalf("%s size=%d: %d rows, rowsScanned=%d; want 0 and %d (the build side only)",
					name, size, got.Len(), st.RowsScanned, seqRows)
			}
		}
	}
	for _, strategy := range Strategies() {
		crossCheck(t, fx, equi, strategy, "empty-build equi-join "+strategy.String())
	}
}

// TestBatchCountsBatches pins that a pipeline root counts the batches it
// drains.
func TestBatchCountsBatches(t *testing.T) {
	e := New(movieDB(t))
	if _, err := e.Run(q1Plan(), Native); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Batches == 0 {
		t.Fatal("execution recorded no batches")
	}
}

// TestBatchGuardTrips verifies the pipeline observes lifecycle guards: a
// tiny row budget must trip ErrResourceExhausted at every batch size.
func TestBatchGuardTrips(t *testing.T) {
	plan := &algebra.Prefer{P: paMovies(), Input: &algebra.Scan{Table: "movies"}}
	for _, size := range []int{1, 0} {
		e := New(movieDB(t))
		e.BatchSize = size
		e.Limits = Limits{MaxRows: 3}
		_, err := e.RunContext(t.Context(), plan, Native)
		if err == nil {
			t.Fatalf("size=%d: tiny MaxRows budget did not trip", size)
		}
		var ge *GuardError
		if !asGuardError(err, &ge) || ge.Limit != LimitRows {
			t.Fatalf("size=%d: err = %v, want max-rows GuardError", size, err)
		}
	}
}

func asGuardError(err error, target **GuardError) bool {
	return errors.As(err, target)
}

// TestSegBatchKernelFusesFilterPrefer pins the fused kernel directly:
// a filter→prefer chain over a batch source must score only the rows the
// filter selected, and leave rejected rows unselected.
func TestSegBatchKernelFusesFilterPrefer(t *testing.T) {
	cat := movieDB(t)
	plan := &algebra.Prefer{P: paMovies(), Input: &algebra.Select{
		Cond:  expr.Cmp("year", expr.OpGe, types.Int(2005)),
		Input: &algebra.Scan{Table: "movies"},
	}}
	// The executor is single-worker; the subtest keeps that case's name.
	t.Run("workers=1", func(t *testing.T) {
		e := New(cat)
		bi, _, err := e.buildBatch(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := bi.(*segBatchIter); !ok {
			t.Fatalf("filter→prefer chain compiled to %T, want *segBatchIter", bi)
		}
		var rows []prel.Row
		for {
			b, ok := bi.nextBatch()
			if !ok {
				break
			}
			rows = b.AppendRows(rows)
		}
		if len(rows) == 0 {
			t.Fatal("fused kernel returned no rows")
		}
		yearOrd := 2 // movies schema: m_id, title, year, ...
		for _, r := range rows {
			if y := r.Tuple[yearOrd].AsInt(); y < 2005 {
				t.Fatalf("row with year %d survived the fused filter", y)
			}
		}
		if e.Stats().PreferEvals != len(rows) {
			t.Fatalf("PreferEvals = %d, want %d (selected rows only)", e.Stats().PreferEvals, len(rows))
		}
	})
}

// TestProjectArenaAliasing pins the projection arena's aliasing contract:
// tuples handed out are stable and appending to one cannot clobber its
// chunk neighbours.
func TestProjectArenaAliasing(t *testing.T) {
	a := projectArena{width: 2}
	t1 := a.tuple()
	t1[0], t1[1] = types.Int(1), types.Int(2)
	t2 := a.tuple()
	t2[0], t2[1] = types.Int(3), types.Int(4)
	grown := append(t1, types.Int(99)) // must reallocate, not spill into t2
	_ = grown
	if !t2[0].Equal(types.Int(3)) || !t2[1].Equal(types.Int(4)) {
		t.Fatalf("append through arena tuple clobbered neighbour: %v", t2)
	}
	// Chunk rollover keeps earlier tuples intact.
	for i := 0; i < projectChunkRows*2; i++ {
		nt := a.tuple()
		nt[0] = types.Int(int64(i))
	}
	if !t1[0].Equal(types.Int(1)) {
		t.Fatalf("chunk rollover invalidated earlier tuple: %v", t1)
	}
}
