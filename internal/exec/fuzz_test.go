package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/expr"
	"prefdb/internal/optimizer"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// planGen builds random-but-valid extended query plans over the movie
// database, used to cross-check every execution strategy (and the
// optimizer) against the native reference on inputs nobody hand-picked.
type planGen struct {
	r *rand.Rand
}

// genPlan produces a plan over movies [⋈ genres] [⋈ directors]
// [⋈ ratings] with random selections, 0–4 preferences and a random
// filtering operator. The directors join is an equi-join (a hash join)
// or, one time in three, a theta join (a nested-loop join under a
// filter). Four relations reach the optimizer's whole-tree join
// reordering, and thresholds with every comparison, by score and by
// conf, at τ ∈ {0, 0.6, 1, random}, reach its derived selections.
func (g *planGen) genPlan() algebra.Node {
	// Join shape.
	var core algebra.Node = &algebra.Scan{Table: "movies"}
	rels := []string{"movies"}
	if g.r.Intn(4) > 0 {
		core = &algebra.Join{
			Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")},
			Left: core, Right: &algebra.Scan{Table: "genres"},
		}
		rels = append(rels, "genres")
	}
	if g.r.Intn(3) == 0 {
		op := expr.OpEq
		if g.r.Intn(3) == 0 {
			op = expr.OpGt
		}
		core = &algebra.Join{
			Cond: expr.Bin{Op: op, L: expr.ColRef("movies.d_id"), R: expr.ColRef("directors.d_id")},
			Left: core, Right: &algebra.Scan{Table: "directors"},
		}
		rels = append(rels, "directors")
	}
	if g.r.Intn(2) == 0 {
		core = &algebra.Join{
			Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("ratings.m_id")},
			Left: core, Right: &algebra.Scan{Table: "ratings"},
		}
		rels = append(rels, "ratings")
	}

	// Random WHERE.
	if g.r.Intn(2) == 0 {
		core = &algebra.Select{Cond: g.genCond(rels), Input: core}
	}

	// Occasionally wrap in a set operation against another filtered slice
	// of the same shape (branches share base relations, so preferences
	// above the operation stay well-defined).
	if g.r.Intn(4) == 0 && len(rels) == 1 {
		other := &algebra.Select{Cond: g.genCond(rels), Input: &algebra.Scan{Table: "movies"}}
		mine := core
		if _, isSel := core.(*algebra.Select); !isSel {
			mine = &algebra.Select{Cond: g.genCond(rels), Input: core}
		}
		op := []algebra.SetOp{algebra.SetUnion, algebra.SetIntersect, algebra.SetDiff}[g.r.Intn(3)]
		core = &algebra.Set{Op: op, Left: mine, Right: other}
	}

	// Occasionally narrow single-relation plans below the preferences —
	// where the planner puts π (prefers and filtering operators above it,
	// FtP's contract). Projection preserves ⟨S,C⟩ and the kept columns
	// cover every preference and ordering key the generator can emit, so
	// the plan stays deterministic while exercising the project paths
	// (row arena and batch kernel).
	if len(rels) == 1 && g.r.Intn(4) == 0 {
		core = &algebra.Project{Cols: []expr.Col{
			expr.ColRef("movies.m_id"), expr.ColRef("movies.year"),
			expr.ColRef("movies.duration"), expr.ColRef("movies.d_id"),
		}, Input: core}
	}

	// Random preferences, anywhere above the core (baseline placement).
	for i, n := 0, g.r.Intn(5); i < n; i++ {
		core = &algebra.Prefer{P: g.genPref(rels, i), Input: core}
	}

	// Random filtering operator.
	switch g.r.Intn(5) {
	case 0:
		core = &algebra.TopK{K: 1 + g.r.Intn(6), By: g.genBy(), Input: core}
	case 1:
		ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
		taus := []float64{0, 0.6, 1, g.r.Float64() * 1.5}
		core = &algebra.Threshold{By: g.genBy(), Op: ops[g.r.Intn(len(ops))], Value: taus[g.r.Intn(len(taus))], Input: core}
	case 2:
		core = &algebra.Skyline{Input: core}
	case 3:
		core = &algebra.Rank{By: g.genBy(), Input: core}
	}
	// Occasionally add attribute ordering; a limit only goes on top of an
	// ordering that is total for the plan's rows (single-relation plans
	// ordered by the key), since LIMIT over an unordered or tied relation
	// is legitimately nondeterministic and would flag false mismatches.
	if g.r.Intn(3) == 0 {
		core = &algebra.OrderBy{Keys: []algebra.OrderKey{
			{Col: expr.ColRef("movies.year"), Desc: g.r.Intn(2) == 0},
			{Col: expr.ColRef("movies.m_id")},
		}, Input: core}
		if len(rels) == 1 && g.r.Intn(2) == 0 {
			core = &algebra.Limit{N: g.r.Intn(8), Offset: g.r.Intn(3), Input: core}
		}
	}
	return core
}

func (g *planGen) genBy() algebra.RankBy {
	if g.r.Intn(2) == 0 {
		return algebra.ByConf
	}
	return algebra.ByScore
}

// genCond produces a condition over the available relations.
func (g *planGen) genCond(rels []string) expr.Node {
	conds := []func() expr.Node{
		func() expr.Node { return expr.Cmp("movies.year", expr.OpGe, types.Int(int64(1985+g.r.Intn(25)))) },
		func() expr.Node { return expr.Cmp("movies.duration", expr.OpLe, types.Int(int64(90+g.r.Intn(60)))) },
		func() expr.Node { return expr.Eq("movies.d_id", types.Int(int64(1+g.r.Intn(3)))) },
		// NULL literals: a comparison with NULL is never true.
		func() expr.Node {
			ops := []expr.Op{expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
			cols := []string{"movies.year", "movies.duration", "movies.d_id"}
			return expr.Cmp(cols[g.r.Intn(len(cols))], ops[g.r.Intn(len(ops))], types.Null())
		},
		func() expr.Node {
			lo, hi := expr.Node(expr.Lit{Val: types.Null()}), expr.Node(expr.Lit{Val: types.Int(int64(1990 + g.r.Intn(20)))})
			if g.r.Intn(2) == 0 {
				lo, hi = hi, lo
			}
			return expr.Between{X: expr.ColRef("movies.year"), Lo: lo, Hi: hi}
		},
	}
	if contains(rels, "genres") {
		conds = append(conds, func() expr.Node {
			return expr.Eq("genres.genre", types.Str([]string{"Drama", "Comedy", "Sport"}[g.r.Intn(3)]))
		})
	}
	if contains(rels, "ratings") {
		conds = append(conds, func() expr.Node {
			return expr.Cmp("ratings.votes", expr.OpGt, types.Int(int64(300+100*g.r.Intn(8))))
		})
	}
	c := conds[g.r.Intn(len(conds))]()
	if g.r.Intn(3) == 0 {
		op := expr.OpAnd
		if g.r.Intn(2) == 0 {
			op = expr.OpOr
		}
		return expr.Bin{Op: op, L: c, R: conds[g.r.Intn(len(conds))]()}
	}
	return c
}

// genPref produces a random single- or multi-relational preference,
// now and then a membership preference (a TRUE condition) or one whose
// condition is NULL on every row.
func (g *planGen) genPref(rels []string, i int) pref.Preference {
	conf := 0.1 + 0.9*g.r.Float64()
	score := []expr.Node{
		expr.Lit{Val: types.Float(g.r.Float64())},
		pref.Recency("movies.year", 2011),
		pref.Around("movies.duration", 120),
	}[g.r.Intn(3)]
	name := fmt.Sprintf("fz%d", i)
	switch g.r.Intn(8) {
	case 0:
		return pref.Membership(name, rels, g.r.Float64(), conf)
	case 1:
		return pref.Preference{Name: name, On: []string{"movies"},
			Cond: expr.Cmp("movies.year", expr.OpEq, types.Null()), Score: score, Conf: conf}
	}
	if contains(rels, "ratings") && g.r.Intn(3) == 0 {
		return pref.Preference{Name: name, On: []string{"ratings"},
			Cond:  expr.Cmp("ratings.votes", expr.OpGt, types.Int(int64(300+100*g.r.Intn(8)))),
			Score: pref.Linear("ratings.rating", 0.1), Conf: conf}
	}
	if contains(rels, "genres") && g.r.Intn(2) == 0 {
		cond := expr.Eq("genres.genre", types.Str([]string{"Drama", "Comedy", "Thriller"}[g.r.Intn(3)]))
		if g.r.Intn(3) == 0 {
			// Multi-relational preference over the product.
			return pref.Preference{Name: name, On: []string{"movies", "genres"}, Cond: cond, Score: score, Conf: conf}
		}
		return pref.Preference{Name: name, On: []string{"genres"}, Cond: cond,
			Score: expr.Lit{Val: types.Float(g.r.Float64())}, Conf: conf}
	}
	cond := g.genCond([]string{"movies"})
	return pref.Preference{Name: name, On: []string{"movies"}, Cond: cond, Score: score, Conf: conf}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// ablation is an optimizer with exactly one of its Disable* flags set.
type ablation struct {
	flag string
	o    *optimizer.Optimizer
}

// ablations returns one optimizer over cat per Disable* flag, each with
// only that flag set.
func ablations(cat *catalog.Catalog) []ablation {
	sets := []struct {
		flag string
		set  func(*optimizer.Optimizer)
	}{
		{"DisableSelectPushdown", func(o *optimizer.Optimizer) { o.DisableSelectPushdown = true }},
		{"DisableProjectionPushdown", func(o *optimizer.Optimizer) { o.DisableProjectionPushdown = true }},
		{"DisablePreferPushdown", func(o *optimizer.Optimizer) { o.DisablePreferPushdown = true }},
		{"DisablePreferReorder", func(o *optimizer.Optimizer) { o.DisablePreferReorder = true }},
		{"DisableJoinReorder", func(o *optimizer.Optimizer) { o.DisableJoinReorder = true }},
	}
	out := make([]ablation, len(sets))
	for i, a := range sets {
		o := optimizer.New(cat)
		a.set(o)
		out[i] = ablation{flag: a.flag, o: o}
	}
	return out
}

// checkAblations requires plan, optimized with each Disable* flag set
// alone, to return what want(s) returns under every strategy s; same
// compares two results.
func checkAblations(t *testing.T, cat *catalog.Catalog, plan algebra.Node,
	want func(Strategy) *prel.PRelation, same func(want, got *prel.PRelation) string) {
	t.Helper()
	for _, a := range ablations(cat) {
		opt := a.o.Optimize(plan)
		for _, s := range Strategies() {
			got, err := New(cat).Run(opt, s)
			if err != nil {
				t.Fatalf("%s, %v failed on\n%s\n%v", a.flag, s, algebra.Format(opt), err)
			}
			if diff := same(want(s), got); diff != "" {
				t.Fatalf("%s, %v differs\noriginal:\n%s\noptimized:\n%s\n%s",
					a.flag, s, algebra.Format(plan), algebra.Format(opt), diff)
			}
		}
	}
}

// sameRows compares two results as multisets of rows and pairs.
func sameRows(want, got *prel.PRelation) string { return want.Diff(got, 1e-9) }

// FuzzBatchRowEquivalence fuzzes the pipeline contract (DESIGN.md §10):
// for any generated plan and any strategy, the result must match the
// tuple-at-a-time oracle, and every batch-size arm must reproduce the reference run's exact rows, order and Stats (modulo
// the diagnostic counters) — including degenerate size 1, where every
// compaction edge case fires. Run it under `-tags prefdbdebug` to layer
// the runtime assertions (selection-vector shape, column alignment) over
// the check.
func FuzzBatchRowEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 42, 7777, 20120401} {
		f.Add(seed, uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, strategyPick uint8) {
		g := &planGen{r: rand.New(rand.NewSource(seed))}
		plan := g.genPlan()
		strategies := Strategies()
		s := strategies[int(strategyPick)%len(strategies)]
		fx := fixture{heap: nullMovieDB(t)}
		crossCheck(t, fx, plan, s, s.String())
		// The optimized plan (derived selections, whole-tree join order)
		// must pass the same checks and return the unoptimized result.
		opt := optimizer.New(fx.heap).Optimize(plan)
		crossCheck(t, fx, opt, s, s.String()+" optimized")
		want, err := New(fx.heap).Run(plan, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(fx.heap).Run(opt, s)
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got, 1e-9); diff != "" {
			t.Fatalf("optimized %v differs\noriginal:\n%s\noptimized:\n%s\n%s", s, algebra.Format(plan), algebra.Format(opt), diff)
		}
		// Each ablation alone must return the unoptimized result too.
		unoptimized := map[Strategy]*prel.PRelation{s: want}
		checkAblations(t, fx.heap, plan, func(s Strategy) *prel.PRelation {
			if unoptimized[s] == nil {
				rel, err := New(fx.heap).Run(plan, s)
				if err != nil {
					t.Fatal(err)
				}
				unoptimized[s] = rel
			}
			return unoptimized[s]
		}, sameRows)
	})
}

// TestRandomPlansAllStrategiesAgree cross-checks 150 random plans: every
// strategy, with the optimizer, without it and with each of its Disable*
// flags set alone, must return the native reference result.
func TestRandomPlansAllStrategiesAgree(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 25
	}
	g := &planGen{r: rand.New(rand.NewSource(20120401))}
	for i := 0; i < iterations; i++ {
		plan := g.genPlan()
		e := New(movieDB(t))
		ref, err := e.Run(plan, Native)
		if err != nil {
			t.Fatalf("iter %d: native failed on\n%s\n%v", i, algebra.Format(plan), err)
		}
		for _, s := range []Strategy{BU, GBU, FtP} {
			e2 := New(movieDB(t))
			got, err := e2.Run(plan, s)
			if err != nil {
				t.Fatalf("iter %d: %v failed on\n%s\n%v", i, s, algebra.Format(plan), err)
			}
			if diff := ref.Diff(got, 1e-9); diff != "" {
				t.Fatalf("iter %d: %v differs on\n%s\n%s", i, s, algebra.Format(plan), diff)
			}
		}
		// Optimizer preserves semantics under every strategy.
		cat := movieDB(t)
		opt := optimizer.New(cat).Optimize(plan)
		for _, s := range Strategies() {
			e3 := New(movieDB(t))
			got, err := e3.Run(opt, s)
			if err != nil {
				t.Fatalf("iter %d: optimized %v failed on\n%s\n%v", i, s, algebra.Format(opt), err)
			}
			if diff := ref.Diff(got, 1e-9); diff != "" {
				t.Fatalf("iter %d: optimized %v differs\noriginal:\n%s\noptimized:\n%s\n%s",
					i, s, algebra.Format(plan), algebra.Format(opt), diff)
			}
		}
		checkAblations(t, cat, plan, func(Strategy) *prel.PRelation { return ref }, sameRows)
	}
}
