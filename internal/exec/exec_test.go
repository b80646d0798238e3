package exec

import (
	"math"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// movieDB builds the running example of the paper (Fig. 1 / Fig. 3):
// MOVIES, DIRECTORS, GENRES, RATINGS with the five movies of Fig. 3(a).
func movieDB(t testing.TB) *catalog.Catalog {
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
	ratings := schema.New(
		schema.Column{Name: "m_id", Kind: types.KindInt},
		schema.Column{Name: "rating", Kind: types.KindFloat},
		schema.Column{Name: "votes", Kind: types.KindInt},
	).WithKey("m_id")

	mt, _ := c.CreateTable("movies", movies)
	dt, _ := c.CreateTable("directors", directors)
	gt, _ := c.CreateTable("genres", genres)
	rt, _ := c.CreateTable("ratings", ratings)

	type m struct {
		id       int64
		title    string
		year     int64
		duration int64
		dID      int64
	}
	for _, r := range []m{
		{1, "Gran Torino", 2008, 116, 1},
		{2, "Wall Street", 1987, 126, 3},
		{3, "Million Dollar Baby", 2004, 132, 1},
		{4, "Match Point", 2005, 124, 2},
		{5, "Scoop", 2006, 96, 2},
	} {
		if err := mt.Insert([]types.Value{types.Int(r.id), types.Str(r.title), types.Int(r.year), types.Int(r.duration), types.Int(r.dID)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		id   int64
		name string
	}{{1, "C. Eastwood"}, {2, "W. Allen"}, {3, "O. Stone"}} {
		if err := dt.Insert([]types.Value{types.Int(r.id), types.Str(r.name)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		id    int64
		genre string
	}{
		{1, "Drama"}, {2, "Drama"}, {3, "Drama"}, {3, "Sport"},
		{4, "Thriller"}, {4, "Comedy"}, {5, "Comedy"},
	} {
		if err := gt.Insert([]types.Value{types.Int(r.id), types.Str(r.genre)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		id     int64
		rating float64
		votes  int64
	}{{1, 8.2, 900}, {2, 7.4, 600}, {3, 8.1, 1200}, {4, 7.7, 400}, {5, 6.8, 300}} {
		if err := rt.Insert([]types.Value{types.Int(r.id), types.Float(r.rating), types.Int(r.votes)}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func run(t *testing.T, e *Executor, plan algebra.Node) *prel.PRelation {
	t.Helper()
	rel, err := e.Run(plan, Native)
	if err != nil {
		t.Fatalf("run %s: %v", plan, err)
	}
	return rel
}

func scoreOf(t *testing.T, rel *prel.PRelation, keyCol string, key int64) types.SC {
	t.Helper()
	idx := rel.Schema.MustIndexOf(keyCol)
	for _, row := range rel.Rows {
		if row.Tuple[idx].Kind() == types.KindInt && row.Tuple[idx].AsInt() == key {
			return row.SC
		}
	}
	t.Fatalf("key %d not found in relation", key)
	return types.SC{}
}

func TestScanDefaults(t *testing.T) {
	e := New(movieDB(t))
	rel := run(t, e, &algebra.Scan{Table: "movies"})
	if rel.Len() != 5 {
		t.Fatalf("rows = %d", rel.Len())
	}
	for _, row := range rel.Rows {
		if !row.SC.IsBottom() {
			t.Errorf("base tuples must default to ⟨⊥,0⟩, got %v", row.SC)
		}
	}
	if e.Stats().RowsScanned != 5 {
		t.Errorf("RowsScanned = %d", e.Stats().RowsScanned)
	}
}

func TestSelectAndProject(t *testing.T) {
	e := New(movieDB(t))
	plan := &algebra.Project{
		Cols: []expr.Col{expr.ColRef("title")},
		Input: &algebra.Select{
			Cond:  expr.Cmp("year", expr.OpGe, types.Int(2005)),
			Input: &algebra.Scan{Table: "movies"},
		},
	}
	rel := run(t, e, plan)
	if rel.Len() != 3 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if rel.Schema.Len() != 1 {
		t.Errorf("projected width = %d", rel.Schema.Len())
	}
}

func TestIndexPaths(t *testing.T) {
	c := movieDB(t)
	if err := c.CreateHashIndex("genres", "genre"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBTreeIndex("movies", "year"); err != nil {
		t.Fatal(err)
	}
	e := New(c)
	// Hash-index equality.
	rel := run(t, e, &algebra.Select{
		Cond:  expr.Eq("genre", types.Str("Comedy")),
		Input: &algebra.Scan{Table: "genres"},
	})
	if rel.Len() != 2 {
		t.Fatalf("Comedy rows = %d", rel.Len())
	}
	if e.Stats().IndexProbes != 1 {
		t.Errorf("IndexProbes = %d", e.Stats().IndexProbes)
	}
	if e.Stats().RowsScanned != 2 {
		t.Errorf("index path RowsScanned = %d, want 2", e.Stats().RowsScanned)
	}
	// B-tree range + residual conjunct.
	e.ResetStats()
	rel = run(t, e, &algebra.Select{
		Cond: expr.Bin{Op: expr.OpAnd,
			L: expr.Cmp("year", expr.OpGe, types.Int(2005)),
			R: expr.Cmp("duration", expr.OpLt, types.Int(120))},
		Input: &algebra.Scan{Table: "movies"},
	})
	// year ≥ 2005 ∧ duration < 120: Gran Torino (116) and Scoop (96).
	if rel.Len() != 2 {
		t.Fatalf("range+residual = %v", rel)
	}
	if e.Stats().IndexProbes != 1 {
		t.Errorf("IndexProbes = %d", e.Stats().IndexProbes)
	}
	// BETWEEN uses the btree too.
	e.ResetStats()
	rel = run(t, e, &algebra.Select{
		Cond:  expr.Between{X: expr.ColRef("year"), Lo: expr.Lit{Val: types.Int(2004)}, Hi: expr.Lit{Val: types.Int(2006)}},
		Input: &algebra.Scan{Table: "movies"},
	})
	if rel.Len() != 3 {
		t.Fatalf("between rows = %d", rel.Len())
	}
	if e.Stats().IndexProbes != 1 {
		t.Errorf("between IndexProbes = %d", e.Stats().IndexProbes)
	}
	// Flipped literal-first comparison also uses the index.
	e.ResetStats()
	rel = run(t, e, &algebra.Select{
		Cond:  expr.Bin{Op: expr.OpGt, L: expr.Lit{Val: types.Int(2006)}, R: expr.ColRef("year")},
		Input: &algebra.Scan{Table: "movies"},
	})
	if rel.Len() != 3 {
		t.Fatalf("flipped rows = %d", rel.Len())
	}
	if e.Stats().IndexProbes != 1 {
		t.Errorf("flipped IndexProbes = %d", e.Stats().IndexProbes)
	}
}

// TestPreferExample8 reproduces Example 8: p_a = (σ_year≥2000,
// S_m(year,2011), 1) and p_b = (σ_duration≤120, S_d(duration,120), 0.5).
func TestPreferExample8(t *testing.T) {
	e := New(movieDB(t))
	pa := pref.New("pa", "movies",
		expr.Cmp("year", expr.OpGe, types.Int(2000)),
		pref.Recency("year", 2011), 1)
	pb := pref.New("pb", "movies",
		expr.Cmp("duration", expr.OpLe, types.Int(120)),
		pref.Around("duration", 120), 0.5)

	rel := run(t, e, &algebra.Prefer{P: pa, Input: &algebra.Scan{Table: "movies"}})
	// Gran Torino (2008): scored 2008/2011 with conf 1.
	sc := scoreOf(t, rel, "m_id", 1)
	if !sc.Known || math.Abs(sc.Score-2008.0/2011.0) > 1e-9 || sc.Conf != 1 {
		t.Errorf("λ_pa Gran Torino = %v", sc)
	}
	// Wall Street (1987): condition fails, stays ⊥.
	if !scoreOf(t, rel, "m_id", 2).IsBottom() {
		t.Errorf("λ_pa Wall Street should stay ⊥")
	}

	rel2 := run(t, e, &algebra.Prefer{P: pb, Input: &algebra.Prefer{P: pa, Input: &algebra.Scan{Table: "movies"}}})
	// Gran Torino: duration 116 ≤ 120 → second pair ⟨1−4/120, 0.5⟩ combined
	// with first via F_S.
	got := scoreOf(t, rel2, "m_id", 1)
	first := types.NewSC(2008.0/2011.0, 1)
	second := types.NewSC(1-4.0/120.0, 0.5)
	want := (pref.FSum{}).Combine(first, second)
	if !got.ApproxEqual(want, 1e-9) {
		t.Errorf("λ_pb λ_pa Gran Torino = %v, want %v", got, want)
	}
	// Million Dollar Baby (132 min): only pa applies.
	got3 := scoreOf(t, rel2, "m_id", 3)
	want3 := types.NewSC(2004.0/2011.0, 1)
	if !got3.ApproxEqual(want3, 1e-9) {
		t.Errorf("MDB = %v, want %v", got3, want3)
	}
	if e.Stats().PreferEvals == 0 {
		t.Error("PreferEvals not counted")
	}
}

func TestPreferNullScoreLeavesUnchanged(t *testing.T) {
	c := catalog.New()
	s := schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "x", Kind: types.KindFloat},
	).WithKey("id")
	tbl, _ := c.CreateTable("t", s)
	tbl.Insert([]types.Value{types.Int(1), types.Null()})
	tbl.Insert([]types.Value{types.Int(2), types.Float(0.4)})
	e := New(c)
	p := pref.New("p", "t", expr.TrueLiteral(), pref.Linear("x", 1), 0.9)
	rel := run(t, e, &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "t"}})
	if !scoreOf(t, rel, "id", 1).IsBottom() {
		t.Error("NULL score must leave the pair at ⊥")
	}
	got := scoreOf(t, rel, "id", 2)
	if !got.ApproxEqual(types.NewSC(0.4, 0.9), 1e-9) {
		t.Errorf("scored row = %v", got)
	}
}

func TestPreferClampsLiteralScores(t *testing.T) {
	e := New(movieDB(t))
	p := pref.New("p", "movies", expr.TrueLiteral(), expr.Lit{Val: types.Float(7.5)}, 1)
	rel := run(t, e, &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}})
	if got := scoreOf(t, rel, "m_id", 1); got.Score != 1 {
		t.Errorf("score should clamp to 1, got %v", got)
	}
}

// TestJoinCombinesSC mirrors Fig. 3(c): joining pre-scored p-relations
// combines pairs with F.
func TestJoinCombinesSC(t *testing.T) {
	mSchema := schema.New(
		schema.Column{Table: "m", Name: "m_id", Kind: types.KindInt},
		schema.Column{Table: "m", Name: "d_id", Kind: types.KindInt},
	).WithKey("m_id")
	dSchema := schema.New(
		schema.Column{Table: "d", Name: "d_id", Kind: types.KindInt},
		schema.Column{Table: "d", Name: "director", Kind: types.KindString},
	).WithKey("d_id")
	m := prel.New(mSchema)
	m.Append(prel.Row{Tuple: []types.Value{types.Int(1), types.Int(10)}, SC: types.NewSC(0.9, 1)})
	m.Append(prel.Row{Tuple: []types.Value{types.Int(2), types.Int(20)}, SC: types.Bottom()})
	d := prel.New(dSchema)
	d.Append(prel.Row{Tuple: []types.Value{types.Int(10), types.Str("Eastwood")}, SC: types.NewSC(0.8, 1)})
	d.Append(prel.Row{Tuple: []types.Value{types.Int(20), types.Str("Allen")}, SC: types.NewSC(0.9, 0.9)})

	e := New(catalog.New())
	plan := &algebra.Join{
		Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("m.d_id"), R: expr.ColRef("d.d_id")},
		Left:  &algebra.Values{Rel: m},
		Right: &algebra.Values{Rel: d},
	}
	rel := run(t, e, plan)
	if rel.Len() != 2 {
		t.Fatalf("join rows = %d", rel.Len())
	}
	got1 := scoreOf(t, rel, "m.m_id", 1)
	want1 := (pref.FSum{}).Combine(types.NewSC(0.9, 1), types.NewSC(0.8, 1))
	if !got1.ApproxEqual(want1, 1e-9) {
		t.Errorf("joined SC = %v, want %v", got1, want1)
	}
	// ⊥ ⋈ known = known (identity).
	got2 := scoreOf(t, rel, "m.m_id", 2)
	if !got2.ApproxEqual(types.NewSC(0.9, 0.9), 1e-9) {
		t.Errorf("⊥-side join SC = %v", got2)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	e := New(movieDB(t))
	// Non-equi join: movies before a director's other movies (theta join).
	plan := &algebra.Join{
		Cond: expr.Bin{Op: expr.OpLt, L: expr.ColRef("a.year"), R: expr.ColRef("b.year")},
		Left: &algebra.Scan{Table: "movies", Alias: "a"}, Right: &algebra.Scan{Table: "movies", Alias: "b"},
	}
	rel := run(t, e, plan)
	// 5 movies with distinct years: C(5,2) = 10 ordered pairs.
	if rel.Len() != 10 {
		t.Fatalf("theta join rows = %d, want 10", rel.Len())
	}
}

func TestJoinResidualCondition(t *testing.T) {
	e := New(movieDB(t))
	plan := &algebra.Join{
		Cond: expr.Bin{Op: expr.OpAnd,
			L: expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.d_id"), R: expr.ColRef("directors.d_id")},
			R: expr.Cmp("year", expr.OpGe, types.Int(2005))},
		Left: &algebra.Scan{Table: "movies"}, Right: &algebra.Scan{Table: "directors"},
	}
	rel := run(t, e, plan)
	if rel.Len() != 3 {
		t.Fatalf("join w/ residual rows = %d, want 3", rel.Len())
	}
}

func TestSetOperations(t *testing.T) {
	e := New(movieDB(t))
	recent := &algebra.Project{Cols: []expr.Col{expr.ColRef("m_id")}, Input: &algebra.Select{
		Cond: expr.Cmp("year", expr.OpGe, types.Int(2005)), Input: &algebra.Scan{Table: "movies"}}}
	short := &algebra.Project{Cols: []expr.Col{expr.ColRef("m_id")}, Input: &algebra.Select{
		Cond: expr.Cmp("duration", expr.OpLe, types.Int(120)), Input: &algebra.Scan{Table: "movies"}}}
	// recent = {1,4,5}, short = {1,5}.
	union := run(t, e, &algebra.Set{Op: algebra.SetUnion, Left: recent, Right: short})
	if union.Len() != 3 {
		t.Errorf("union = %d rows", union.Len())
	}
	inter := run(t, e, &algebra.Set{Op: algebra.SetIntersect, Left: recent, Right: short})
	if inter.Len() != 2 {
		t.Errorf("intersect = %d rows", inter.Len())
	}
	diff := run(t, e, &algebra.Set{Op: algebra.SetDiff, Left: recent, Right: short})
	if diff.Len() != 1 || diff.Rows[0].Tuple[0].AsInt() != 4 {
		t.Errorf("diff = %v", diff.Rows)
	}
	// Incompatible layouts error.
	bad := &algebra.Set{Op: algebra.SetUnion, Left: &algebra.Scan{Table: "movies"}, Right: &algebra.Scan{Table: "directors"}}
	if _, err := e.Run(bad, Native); err == nil {
		t.Error("incompatible union should fail")
	}
}

func TestUnionCombinesScores(t *testing.T) {
	s := schema.New(schema.Column{Name: "id", Kind: types.KindInt}).WithKey("id")
	a := prel.New(s)
	a.Append(prel.Row{Tuple: []types.Value{types.Int(1)}, SC: types.NewSC(1, 1)})
	b := prel.New(s)
	b.Append(prel.Row{Tuple: []types.Value{types.Int(1)}, SC: types.NewSC(0, 1)})
	b.Append(prel.Row{Tuple: []types.Value{types.Int(2)}, SC: types.NewSC(0.5, 0.5)})
	e := New(catalog.New())
	rel := run(t, e, &algebra.Set{Op: algebra.SetUnion, Left: &algebra.Values{Rel: a}, Right: &algebra.Values{Rel: b}})
	if rel.Len() != 2 {
		t.Fatalf("union rows = %d", rel.Len())
	}
	got := scoreOf(t, rel, "id", 1)
	if !got.ApproxEqual(types.NewSC(0.5, 2), 1e-9) {
		t.Errorf("combined duplicate = %v", got)
	}
	got2 := scoreOf(t, rel, "id", 2)
	if !got2.ApproxEqual(types.NewSC(0.5, 0.5), 1e-9) {
		t.Errorf("right-only tuple = %v", got2)
	}
}

func TestFilteringOperators(t *testing.T) {
	e := New(movieDB(t))
	p := pref.New("p", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 1)
	base := &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}}

	top2 := run(t, e, &algebra.TopK{K: 2, By: algebra.ByScore, Input: base})
	if top2.Len() != 2 {
		t.Fatalf("top2 = %d rows", top2.Len())
	}
	// Highest score = most recent = Gran Torino (2008), then Scoop (2006).
	if top2.Rows[0].Tuple[0].AsInt() != 1 || top2.Rows[1].Tuple[0].AsInt() != 5 {
		t.Errorf("top2 order = %v, %v", top2.Rows[0].Tuple, top2.Rows[1].Tuple)
	}
	// k larger than input.
	topAll := run(t, e, &algebra.TopK{K: 100, By: algebra.ByScore, Input: base})
	if topAll.Len() != 5 {
		t.Errorf("top100 = %d rows", topAll.Len())
	}
	// Confidence threshold: 4 movies qualify (conf 1), Wall Street has 0.
	thr := run(t, e, &algebra.Threshold{By: algebra.ByConf, Op: expr.OpGe, Value: 0.5, Input: base})
	if thr.Len() != 4 {
		t.Errorf("conf threshold = %d rows", thr.Len())
	}
	// Score threshold drops ⊥ rows by definition.
	sThr := run(t, e, &algebra.Threshold{By: algebra.ByScore, Op: expr.OpGe, Value: 0, Input: base})
	if sThr.Len() != 4 {
		t.Errorf("score threshold = %d rows (⊥ must not pass)", sThr.Len())
	}
	// Rank returns everything ordered.
	rank := run(t, e, &algebra.Rank{By: algebra.ByScore, Input: base})
	if rank.Len() != 5 {
		t.Errorf("rank = %d rows", rank.Len())
	}
	for i := 1; i < 4; i++ {
		if rank.Rows[i-1].SC.Score < rank.Rows[i].SC.Score {
			t.Errorf("rank order violated at %d", i)
		}
	}
	if rank.Rows[4].SC.Known {
		t.Error("⊥ rows must rank last")
	}
}

func TestSkyline(t *testing.T) {
	s := schema.New(schema.Column{Name: "id", Kind: types.KindInt}).WithKey("id")
	rel := prel.New(s)
	add := func(id int64, sc types.SC) {
		rel.Append(prel.Row{Tuple: []types.Value{types.Int(id)}, SC: sc})
	}
	add(1, types.NewSC(0.9, 0.2)) // skyline
	add(2, types.NewSC(0.5, 0.5)) // skyline
	add(3, types.NewSC(0.4, 0.4)) // dominated by 2
	add(4, types.NewSC(0.2, 0.9)) // skyline
	add(5, types.NewSC(0.5, 0.5)) // tie with 2: both survive
	add(6, types.Bottom())        // dominated by any known
	e := New(catalog.New())
	out := run(t, e, &algebra.Skyline{Input: &algebra.Values{Rel: rel}})
	ids := map[int64]bool{}
	for _, r := range out.Rows {
		ids[r.Tuple[0].AsInt()] = true
	}
	if len(ids) != 4 || !ids[1] || !ids[2] || !ids[4] || !ids[5] {
		t.Errorf("skyline ids = %v", ids)
	}
}

func TestSkylineAgainstBruteForce(t *testing.T) {
	// Property-style: the sweep matches the O(n²) definition.
	s := schema.New(schema.Column{Name: "id", Kind: types.KindInt})
	seeds := [][]types.SC{
		{types.NewSC(0.1, 0.1), types.NewSC(0.1, 0.1)},
		{types.Bottom(), types.Bottom()},
		{types.NewSC(1, 1), types.NewSC(0, 0), types.Bottom()},
	}
	// Add a pseudo-random batch.
	rng := []float64{0.13, 0.87, 0.44, 0.99, 0.31, 0.62, 0.05, 0.71, 0.44, 0.31}
	var batch []types.SC
	for i := 0; i < len(rng); i++ {
		batch = append(batch, types.NewSC(rng[i], rng[(i+3)%len(rng)]))
	}
	seeds = append(seeds, batch)
	for _, scs := range seeds {
		rel := prel.New(s)
		for i, sc := range scs {
			rel.Append(prel.Row{Tuple: []types.Value{types.Int(int64(i))}, SC: sc})
		}
		e := New(catalog.New())
		got := run(t, e, &algebra.Skyline{Input: &algebra.Values{Rel: rel}})
		want := map[int64]bool{}
		for i, sc := range scs {
			dominated := false
			for _, other := range scs {
				if other.Dominates(sc) {
					dominated = true
					break
				}
			}
			if !dominated {
				want[int64(i)] = true
			}
		}
		gotIDs := map[int64]bool{}
		for _, r := range got.Rows {
			gotIDs[r.Tuple[0].AsInt()] = true
		}
		if len(gotIDs) != len(want) {
			t.Fatalf("skyline = %v, want %v (input %v)", gotIDs, want, scs)
		}
		for id := range want {
			if !gotIDs[id] {
				t.Fatalf("missing %d: skyline = %v, want %v", id, gotIDs, want)
			}
		}
	}
}

func TestFlipCmpAllOps(t *testing.T) {
	// 2006 < year, 2006 <= year, 2006 > year, 2006 >= year all take the
	// index path with flipped bounds.
	c := movieDB(t)
	if err := c.CreateBTreeIndex("movies", "year"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op   expr.Op
		want int
	}{
		{expr.OpLt, 1}, // 2006 < year: {2008}
		{expr.OpLe, 2}, // 2006 <= year: {2006, 2008}
		{expr.OpGt, 3}, // 2006 > year: {1987, 2004, 2005}
		{expr.OpGe, 4}, // 2006 >= year
	}
	for _, tc := range cases {
		e := New(c)
		rel, err := e.Run(&algebra.Select{
			Cond:  expr.Bin{Op: tc.op, L: expr.Lit{Val: types.Int(2006)}, R: expr.ColRef("year")},
			Input: &algebra.Scan{Table: "movies"},
		}, Native)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != tc.want {
			t.Errorf("2006 %v year: %d rows, want %d", tc.op, rel.Len(), tc.want)
		}
		if e.Stats().IndexProbes != 1 {
			t.Errorf("2006 %v year: probes = %d", tc.op, e.Stats().IndexProbes)
		}
	}
}

func TestEvaluateDoesNotCountNativeCall(t *testing.T) {
	e := New(movieDB(t))
	if _, err := e.Evaluate(&algebra.Scan{Table: "movies"}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().NativeCalls != 0 {
		t.Errorf("Evaluate counted a native call: %d", e.Stats().NativeCalls)
	}
	if e.Stats().TuplesMaterialized == 0 {
		t.Error("Evaluate should still count materialization")
	}
}

// TestPassThroughProjectKeepsScoreRelationRows: ScoreRelationRows counts
// the R_P writes of prefer operators only. A π over a λ chain carries the
// chain's pairs without writing any, so under BU, GBU and FtP wrapping the
// chain in a π that keeps every column leaves the count unchanged.
func TestPassThroughProjectKeepsScoreRelationRows(t *testing.T) {
	cat := movieDB(t)
	chain := &algebra.Prefer{P: pbMovies(), Input: &algebra.Prefer{
		P: paMovies(), Input: &algebra.Scan{Table: "movies"}}}
	var cols []expr.Col
	for _, c := range []string{"m_id", "title", "year", "duration", "d_id"} {
		cols = append(cols, expr.ColRef("movies."+c))
	}
	wrapped := &algebra.Project{Cols: cols, Input: chain}
	for _, strategy := range []Strategy{BU, GBU, FtP} {
		count := func(plan algebra.Node) int {
			e := New(cat)
			if _, err := e.Run(plan, strategy); err != nil {
				t.Fatalf("%v: %v", strategy, err)
			}
			return e.Stats().ScoreRelationRows
		}
		want := count(chain)
		if want == 0 {
			t.Fatalf("%v: the λ chain wrote no R_P rows", strategy)
		}
		if got := count(wrapped); got != want {
			t.Errorf("%v: ScoreRelationRows = %d under a pass-through π, %d without", strategy, got, want)
		}
	}
}
