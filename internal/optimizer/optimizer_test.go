package optimizer

import (
	"strings"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/exec"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// testDB builds a small movie database with skewed genre frequencies so
// selectivity estimates order preferences deterministically.
func testDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	movies := schema.New(
		schema.Column{Name: "m_id", Kind: types.KindInt},
		schema.Column{Name: "title", Kind: types.KindString},
		schema.Column{Name: "year", Kind: types.KindInt},
		schema.Column{Name: "duration", Kind: types.KindInt},
		schema.Column{Name: "d_id", Kind: types.KindInt},
	).WithKey("m_id")
	directors := schema.New(
		schema.Column{Name: "d_id", Kind: types.KindInt},
		schema.Column{Name: "director", Kind: types.KindString},
	).WithKey("d_id")
	genres := schema.New(
		schema.Column{Name: "m_id", Kind: types.KindInt},
		schema.Column{Name: "genre", Kind: types.KindString},
	).WithKey("m_id", "genre")
	mt, _ := c.CreateTable("movies", movies)
	dt, _ := c.CreateTable("directors", directors)
	gt, _ := c.CreateTable("genres", genres)
	genreNames := []string{"Drama", "Drama", "Drama", "Drama", "Comedy", "Action"}
	for i := 0; i < 120; i++ {
		mt.Insert([]types.Value{
			types.Int(int64(i)), types.Str("t"), types.Int(int64(1980 + i%40)),
			types.Int(int64(80 + i%80)), types.Int(int64(i % 10)),
		})
		gt.Insert([]types.Value{types.Int(int64(i)), types.Str(genreNames[i%len(genreNames)])})
	}
	for d := 0; d < 10; d++ {
		dt.Insert([]types.Value{types.Int(int64(d)), types.Str("dir")})
	}
	return c
}

func joinOn(l, r algebra.Node, lc, rc string) *algebra.Join {
	return &algebra.Join{
		Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef(lc), R: expr.ColRef(rc)},
		Left: l, Right: r,
	}
}

func TestSelectionPushdownThroughJoin(t *testing.T) {
	o := New(testDB(t))
	plan := &algebra.Select{
		Cond: expr.Bin{Op: expr.OpAnd,
			L: expr.Cmp("movies.year", expr.OpGe, types.Int(2010)),
			R: expr.Eq("genres.genre", types.Str("Comedy"))},
		Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
	}
	opt := o.Optimize(plan)
	f := algebra.Format(opt)
	// The top-level select must be gone; each conjunct sits over its scan.
	if strings.HasPrefix(f, "Select") {
		t.Errorf("selection not pushed:\n%s", f)
	}
	if !strings.Contains(f, "Select((movies.year >= 2010))") || !strings.Contains(f, "Select((genres.genre = 'Comedy'))") {
		t.Errorf("split selections missing:\n%s", f)
	}
}

func TestSelectionPushdownBelowPrefer(t *testing.T) {
	o := New(testDB(t))
	p := pref.Constant("p", "movies", expr.Eq("movies.d_id", types.Int(1)), 1, 0.8)
	plan := &algebra.Select{
		Cond:  expr.Cmp("movies.year", expr.OpGe, types.Int(2010)),
		Input: &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}},
	}
	opt := o.Optimize(plan)
	// Property 4.1: prefer above select.
	top, ok := opt.(*algebra.Prefer)
	if !ok {
		t.Fatalf("expected Prefer at root:\n%s", algebra.Format(opt))
	}
	if _, ok := top.Input.(*algebra.Select); !ok {
		t.Fatalf("expected Select below Prefer:\n%s", algebra.Format(opt))
	}
}

func TestPreferPushdownThroughJoin(t *testing.T) {
	o := New(testDB(t))
	p := pref.Constant("pg", "genres", expr.Eq("genre", types.Str("Comedy")), 1, 0.8)
	plan := &algebra.Prefer{P: p,
		Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
	}
	opt := o.Optimize(plan)
	j, ok := opt.(*algebra.Join)
	if !ok {
		t.Fatalf("expected Join at root:\n%s", algebra.Format(opt))
	}
	if _, ok := j.Right.(*algebra.Prefer); !ok {
		t.Fatalf("prefer not pushed to genres side:\n%s", algebra.Format(opt))
	}
}

func TestMultiRelationalPreferStaysAboveJoin(t *testing.T) {
	o := New(testDB(t))
	p := pref.Preference{Name: "p6", On: []string{"movies", "genres"},
		Cond: expr.Eq("genre", types.Str("Action")), Score: pref.Recency("movies.year", 2011), Conf: 0.8}
	plan := &algebra.Prefer{P: p,
		Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
	}
	opt := o.Optimize(plan)
	if _, ok := opt.(*algebra.Prefer); !ok {
		t.Fatalf("multi-relational prefer must stay above join:\n%s", algebra.Format(opt))
	}
}

func TestPreferOrderingBySelectivity(t *testing.T) {
	o := New(testDB(t))
	// Action (1/6) is more selective than Drama (4/6).
	pDrama := pref.Constant("pDrama", "genres", expr.Eq("genre", types.Str("Drama")), 1, 0.8)
	pAction := pref.Constant("pAction", "genres", expr.Eq("genre", types.Str("Action")), 1, 0.8)
	plan := &algebra.Prefer{P: pDrama, Input: &algebra.Prefer{P: pAction, Input: &algebra.Scan{Table: "genres"}}}
	// pAction already innermost: ordering keeps it.
	opt := o.Optimize(plan)
	top := opt.(*algebra.Prefer)
	if top.P.Name != "pDrama" {
		t.Fatalf("order changed unexpectedly:\n%s", algebra.Format(opt))
	}
	// Reversed input gets fixed: the selective one moves innermost.
	plan2 := &algebra.Prefer{P: pAction, Input: &algebra.Prefer{P: pDrama, Input: &algebra.Scan{Table: "genres"}}}
	opt2 := o.Optimize(plan2)
	top2 := opt2.(*algebra.Prefer)
	if top2.P.Name != "pDrama" {
		t.Fatalf("heuristic 5 did not reorder:\n%s", algebra.Format(opt2))
	}
	inner := top2.Input.(*algebra.Prefer)
	if inner.P.Name != "pAction" {
		t.Fatalf("selective prefer should be innermost:\n%s", algebra.Format(opt2))
	}
}

func TestJoinReorderingSmallestFirst(t *testing.T) {
	o := New(testDB(t))
	// directors (10 rows) should start the left-deep chain.
	plan := joinOn(
		joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
		&algebra.Scan{Table: "directors"}, "movies.d_id", "directors.d_id")
	opt := o.Optimize(plan)
	// Walk to the leftmost leaf.
	n := algebra.Node(opt)
	for {
		children := n.Children()
		if len(children) == 0 {
			break
		}
		n = children[0]
	}
	scan, ok := n.(*algebra.Scan)
	if !ok || scan.Table != "directors" {
		t.Fatalf("leftmost factor should be directors:\n%s", algebra.Format(opt))
	}
	// No predicate may be lost: result must match the unoptimized plan.
	e := exec.New(testDB(t))
	ref, err := e.Run(plan, exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(opt, exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() != got.Len() {
		t.Fatalf("reordered join changed cardinality: %d vs %d", ref.Len(), got.Len())
	}
}

// TestProjectionPruning pins heuristic 2 on a two-way join: the join
// keeps only the column the root projection reads — its own predicate
// reads its inputs, not its output — no projection is added, and the
// ablation leaves the join whole.
func TestProjectionPruning(t *testing.T) {
	cat := testDB(t)
	plan := &algebra.Project{
		Cols: []expr.Col{expr.ColRef("movies.title")},
		Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"},
			"movies.m_id", "genres.m_id"),
	}
	opt := New(cat).Optimize(plan)
	f := algebra.Format(opt)
	if got := joinOutputs(t, cat, opt); len(got) != 1 || got[0] != "movies.title" {
		t.Errorf("join outputs %v, want movies.title:\n%s", got, f)
	}
	if strings.Count(f, "Project") != 1 {
		t.Errorf("pruning added a projection:\n%s", f)
	}
	mustAgree(t, cat, plan, opt)
	// Disabled pruning leaves the join's columns alone.
	o2 := New(cat)
	o2.DisableProjectionPushdown = true
	opt2 := o2.Optimize(plan)
	if j := opt2.(*algebra.Project).Input.(*algebra.Join); j.Cols != nil {
		t.Errorf("pruning ran despite being disabled:\n%s", algebra.Format(opt2))
	}
	// An unqualified column counts for every relation in scope, so both
	// m_id columns stay and the optimized plan still reports the
	// ambiguity.
	ambiguous := &algebra.Project{Cols: []expr.Col{expr.ColRef("m_id")}, Input: plan.Input}
	if _, err := exec.New(cat).Run(New(cat).Optimize(ambiguous), exec.Native); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("optimized ambiguous plan: err = %v, want an ambiguous-column error", err)
	}
}

// TestStarQueryNotPruned: without a root projection every column is
// output, so no join drops one.
func TestStarQueryNotPruned(t *testing.T) {
	cat := testDB(t)
	plan := joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id")
	opt := New(cat).Optimize(plan)
	if j, ok := opt.(*algebra.Join); !ok || j.Cols != nil || strings.Contains(algebra.Format(opt), "Project") {
		t.Errorf("SELECT * plan must not be pruned:\n%s", algebra.Format(opt))
	}
}

// TestFigure7Example reproduces Example 12 / Fig. 7: selections and prefers
// pushed to relation R, prefers reordered by selectivity.
func TestFigure7Example(t *testing.T) {
	o := New(testDB(t))
	// λp1 λp2 σφ1 over Join(movies, genres): φ1 and p2 involve only movies;
	// p2's condition is more restrictive than p1's.
	p1 := pref.Constant("p1", "movies", expr.Cmp("movies.year", expr.OpGe, types.Int(1980)), 1, 0.8) // matches all
	p2 := pref.Constant("p2", "movies", expr.Eq("movies.year", types.Int(2015)), 1, 0.8)             // 1/40
	plan := &algebra.Prefer{P: p1, Input: &algebra.Prefer{P: p2, Input: &algebra.Select{
		Cond:  expr.Cmp("movies.duration", expr.OpLt, types.Int(100)),
		Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
	}}}
	opt := o.Optimize(plan)
	f := algebra.Format(opt)
	// Expected shape: Join at the root; movies side has prefers over select
	// over scan with p2 (restrictive) innermost.
	j, ok := opt.(*algebra.Join)
	if !ok {
		t.Fatalf("expected join at root:\n%s", f)
	}
	side := j.Left
	if _, ok := side.(*algebra.Prefer); !ok {
		side = j.Right
	}
	outer, ok := side.(*algebra.Prefer)
	if !ok {
		t.Fatalf("prefers not pushed to movies side:\n%s", f)
	}
	if outer.P.Name != "p1" {
		t.Fatalf("outer prefer should be p1 (less selective):\n%s", f)
	}
	inner, ok := outer.Input.(*algebra.Prefer)
	if !ok || inner.P.Name != "p2" {
		t.Fatalf("inner prefer should be p2 (more selective):\n%s", f)
	}
	if _, ok := inner.Input.(*algebra.Select); !ok {
		t.Fatalf("selection should sit below the prefers:\n%s", f)
	}
	// Equivalence check.
	e := exec.New(testDB(t))
	ref, err := e.Run(plan, exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(opt, exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ref.Diff(got, 1e-9); diff != "" {
		t.Errorf("optimized plan differs: %s", diff)
	}
}

func TestOptimizedEquivalenceAcrossStrategies(t *testing.T) {
	// The optimizer must preserve semantics for every strategy.
	o := New(testDB(t))
	p1 := pref.Constant("p1", "genres", expr.Eq("genre", types.Str("Comedy")), 1, 0.8)
	p2 := pref.New("p2", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2020), 0.9)
	plan := &algebra.TopK{K: 10, By: algebra.ByScore, Input: &algebra.Project{
		Cols: []expr.Col{expr.ColRef("movies.title"), expr.ColRef("movies.year"), expr.ColRef("genres.genre")},
		Input: &algebra.Prefer{P: p2, Input: &algebra.Prefer{P: p1, Input: &algebra.Select{
			Cond:  expr.Cmp("movies.duration", expr.OpLt, types.Int(150)),
			Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
		}}},
	}}
	opt := o.Optimize(plan)
	e := exec.New(testDB(t))
	ref, err := e.Run(plan, exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range exec.Strategies() {
		e2 := exec.New(testDB(t))
		got, err := e2.Run(opt, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if diff := ref.Diff(got, 1e-9); diff != "" {
			t.Errorf("%v on optimized plan differs: %s", s, diff)
		}
	}
}

// fanoutDB gives every movie several cast rows, so the join product is much
// larger than the base relation a preference targets.
func fanoutDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := testDB(t)
	cast := schema.New(
		schema.Column{Name: "m_id", Kind: types.KindInt},
		schema.Column{Name: "a_id", Kind: types.KindInt},
	).WithKey("m_id", "a_id")
	ct, _ := c.CreateTable("cast", cast)
	for i := 0; i < 120; i++ {
		for a := 0; a < 5; a++ {
			ct.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(a))})
		}
	}
	return c
}

func TestOptimizationReducesMaterialization(t *testing.T) {
	// The point of Fig. 7: pushing a prefer below a fan-out join shrinks the
	// score relations (R_P) materialized under BU/GBU.
	p1 := pref.New("p1", "movies", expr.Cmp("movies.year", expr.OpGe, types.Int(2000)),
		pref.Recency("movies.year", 2020), 0.9)
	baseline := &algebra.Prefer{P: p1,
		Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "cast"}, "movies.m_id", "cast.m_id"),
	}
	o := New(fanoutDB(t))
	opt := o.Optimize(baseline)
	for _, strat := range []exec.Strategy{exec.BU, exec.GBU} {
		eBase := exec.New(fanoutDB(t))
		ref, err := eBase.Run(baseline, strat)
		if err != nil {
			t.Fatal(err)
		}
		eOpt := exec.New(fanoutDB(t))
		got, err := eOpt.Run(opt, strat)
		if err != nil {
			t.Fatal(err)
		}
		if diff := ref.Diff(got, 1e-9); diff != "" {
			t.Fatalf("%v: optimized plan differs: %s", strat, diff)
		}
		// Heuristic 3's goal is "reducing the input size of prefer
		// operators": the pushed prefer reads the 120-row base relation
		// instead of the 600-row join product.
		if eOpt.Stats().PreferEvals >= eBase.Stats().PreferEvals {
			t.Errorf("%v: optimization did not shrink prefer input: %d >= %d",
				strat, eOpt.Stats().PreferEvals, eBase.Stats().PreferEvals)
		}
		if eOpt.Stats().TuplesMaterialized > eBase.Stats().TuplesMaterialized {
			t.Errorf("%v: optimization increased materialization: %d > %d",
				strat, eOpt.Stats().TuplesMaterialized, eBase.Stats().TuplesMaterialized)
		}
	}
}

func TestSelectDistributesOverSetOps(t *testing.T) {
	o := New(testDB(t))
	u := &algebra.Set{Op: algebra.SetUnion,
		Left:  &algebra.Scan{Table: "genres", Alias: "g1"},
		Right: &algebra.Scan{Table: "genres", Alias: "g2"},
	}
	plan := &algebra.Select{Cond: expr.Eq("genre", types.Str("Comedy")), Input: u}
	opt := o.Optimize(plan)
	if _, stillTop := opt.(*algebra.Select); stillTop {
		t.Fatalf("select not distributed over union:\n%s", algebra.Format(opt))
	}
	// Qualified conditions stay put (they would not resolve on both sides).
	plan2 := &algebra.Select{Cond: expr.Eq("g1.genre", types.Str("Comedy")), Input: u}
	opt2 := o.Optimize(plan2)
	if _, stillTop := opt2.(*algebra.Select); !stillTop {
		t.Fatalf("qualified select should stay above union:\n%s", algebra.Format(opt2))
	}
	// Semantics preserved for the distributed case.
	e := exec.New(testDB(t))
	ref, _ := e.Run(plan, exec.Native)
	got, err := e.Run(opt, exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ref.Diff(got, 1e-9); diff != "" {
		t.Errorf("distributed select differs: %s", diff)
	}
}

func TestDisableJoinReorder(t *testing.T) {
	o := New(testDB(t))
	o.DisableJoinReorder = true
	plan := joinOn(
		joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
		&algebra.Scan{Table: "directors"}, "movies.d_id", "directors.d_id")
	opt := o.Optimize(plan)
	n := algebra.Node(opt)
	for {
		children := n.Children()
		if len(children) == 0 {
			break
		}
		n = children[0]
	}
	if scan, ok := n.(*algebra.Scan); !ok || scan.Table != "movies" {
		t.Fatalf("join order changed despite DisableJoinReorder:\n%s", algebra.Format(opt))
	}
}

// TestReorderWholeJoinTree pins the top-down join reordering: a 4-relation
// tree is ordered as a whole, so its smallest factor leads even when the
// query writes it last. Bottom-up, the inner three joins were reordered
// first and wrapped in a column-restoring projection, which hid them from
// the top join: the last factor could never move.
func TestReorderWholeJoinTree(t *testing.T) {
	cat := fanoutDB(t)
	plan := joinOn(
		joinOn(
			joinOn(&algebra.Scan{Table: "cast"}, &algebra.Scan{Table: "movies"}, "cast.m_id", "movies.m_id"),
			&algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
		&algebra.Scan{Table: "directors"}, "movies.d_id", "directors.d_id")
	opt := New(cat).Optimize(plan)
	n := algebra.Node(opt)
	for len(n.Children()) > 0 {
		n = n.Children()[0]
	}
	if scan, ok := n.(*algebra.Scan); !ok || scan.Table != "directors" {
		t.Fatalf("leftmost factor should be directors, the smallest:\n%s", algebra.Format(opt))
	}
	if got := algebra.CountOps(opt)["join"]; got != 3 {
		t.Fatalf("reordered tree has %d joins, want 3:\n%s", got, algebra.Format(opt))
	}
	mustAgree(t, cat, plan, opt)
}
