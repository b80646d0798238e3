package exec

import (
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// Semantic tests for the algebraic properties of the prefer operator
// (§IV-C). Each property is verified by executing both plan forms and
// comparing the resulting p-relations as multisets.

const eps = 1e-9

func mustEqualPlans(t *testing.T, e *Executor, a, b algebra.Node, label string) {
	t.Helper()
	ra, err := e.Run(a, Native)
	if err != nil {
		t.Fatalf("%s: left plan: %v", label, err)
	}
	rb, err := e.Run(b, Native)
	if err != nil {
		t.Fatalf("%s: right plan: %v", label, err)
	}
	if diff := ra.Diff(rb, eps); diff != "" {
		t.Errorf("%s: plans differ: %s\nleft:\n%s\nright:\n%s", label, diff, ra, rb)
	}
}

func paMovies() pref.Preference {
	return pref.New("pa", "movies",
		expr.Cmp("year", expr.OpGe, types.Int(2000)),
		pref.Recency("year", 2011), 0.9)
}

func pbMovies() pref.Preference {
	return pref.New("pb", "movies",
		expr.Cmp("duration", expr.OpLe, types.Int(120)),
		pref.Around("duration", 120), 0.5)
}

// Property 4.1: σ_φ λ_p(R) = λ_p σ_φ(R) for score-free φ.
func TestProperty41SelectPreferCommute(t *testing.T) {
	e := New(movieDB(t))
	cond := expr.Cmp("duration", expr.OpLt, types.Int(130))
	p := paMovies()
	left := &algebra.Select{Cond: cond, Input: &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}}}
	right := &algebra.Prefer{P: p, Input: &algebra.Select{Cond: cond, Input: &algebra.Scan{Table: "movies"}}}
	mustEqualPlans(t, e, left, right, "Prop 4.1")
}

// Property 4.2: σ_φ λ_p(R) = σ_φ λ_{p'}(R) with p' = (σ_{φ∧φ_p}, S, C).
func TestProperty42ConditionFolding(t *testing.T) {
	e := New(movieDB(t))
	cond := expr.Cmp("duration", expr.OpLt, types.Int(130))
	p := paMovies()
	folded := p
	folded.Cond = expr.Bin{Op: expr.OpAnd, L: cond, R: p.Cond}
	left := &algebra.Select{Cond: cond, Input: &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}}}
	right := &algebra.Select{Cond: cond, Input: &algebra.Prefer{P: folded, Input: &algebra.Scan{Table: "movies"}}}
	mustEqualPlans(t, e, left, right, "Prop 4.2")
}

// Property 4.3: prefer is commutative: λ_{p1}λ_{p2}(R) = λ_{p2}λ_{p1}(R).
func TestProperty43PreferCommutes(t *testing.T) {
	e := New(movieDB(t))
	p1, p2 := paMovies(), pbMovies()
	left := &algebra.Prefer{P: p1, Input: &algebra.Prefer{P: p2, Input: &algebra.Scan{Table: "movies"}}}
	right := &algebra.Prefer{P: p2, Input: &algebra.Prefer{P: p1, Input: &algebra.Scan{Table: "movies"}}}
	mustEqualPlans(t, e, left, right, "Prop 4.3")
	// Also under F_max and F_mult.
	for _, agg := range []pref.Aggregate{pref.FMax{}, pref.FMult{}} {
		e2 := New(movieDB(t))
		e2.Agg = agg
		mustEqualPlans(t, e2, left, right, "Prop 4.3 ("+agg.Name()+")")
	}
}

// Property 4.4: λ_p(R_i ⋈ R_j) = λ_p(R_i) ⋈ R_j when p uses only R_i's
// attributes.
func TestProperty44PreferPushesThroughJoin(t *testing.T) {
	e := New(movieDB(t))
	p := paMovies()
	joinCond := expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.d_id"), R: expr.ColRef("directors.d_id")}
	join := func(l, r algebra.Node) algebra.Node { return &algebra.Join{Cond: joinCond, Left: l, Right: r} }
	left := &algebra.Prefer{P: p, Input: join(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "directors"})}
	right := join(&algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}}, &algebra.Scan{Table: "directors"})
	mustEqualPlans(t, e, left, right, "Prop 4.4 (join)")
}

// Property 4.4 over set operations, with both branches over the same base
// relation so the preference applies to either side identically.
func TestProperty44PreferPushesThroughSetOps(t *testing.T) {
	e := New(movieDB(t))
	p := paMovies()
	recent := func() algebra.Node {
		return &algebra.Select{Cond: expr.Cmp("year", expr.OpGe, types.Int(2005)), Input: &algebra.Scan{Table: "movies"}}
	}
	shortM := func() algebra.Node {
		return &algebra.Select{Cond: expr.Cmp("duration", expr.OpLe, types.Int(120)), Input: &algebra.Scan{Table: "movies"}}
	}
	// For intersection and difference, pushing the prefer to the left branch
	// preserves results: right-branch tuples carry ⊥ (identity).
	for _, op := range []algebra.SetOp{algebra.SetIntersect, algebra.SetDiff} {
		left := &algebra.Prefer{P: p, Input: &algebra.Set{Op: op, Left: recent(), Right: shortM()}}
		right := &algebra.Set{Op: op, Left: &algebra.Prefer{P: p, Input: recent()}, Right: shortM()}
		mustEqualPlans(t, e, left, right, "Prop 4.4 ("+op.String()+")")
	}
}

// The optimizer's heuristic 5 reorders prefers by selectivity; correctness
// relies on commutativity over longer chains too.
func TestPreferChainPermutationInvariance(t *testing.T) {
	e := New(movieDB(t))
	ps := []pref.Preference{
		paMovies(),
		pbMovies(),
		pref.Constant("pc", "movies", expr.Eq("d_id", types.Int(2)), 0.7, 0.8),
	}
	build := func(order []int) algebra.Node {
		var n algebra.Node = &algebra.Scan{Table: "movies"}
		for _, i := range order {
			n = &algebra.Prefer{P: ps[i], Input: n}
		}
		return n
	}
	ref, err := e.Run(build([]int{0, 1, 2}), Native)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		got, err := e.Run(build(order), Native)
		if err != nil {
			t.Fatal(err)
		}
		if diff := ref.Diff(got, eps); diff != "" {
			t.Errorf("order %v differs: %s", order, diff)
		}
	}
}

// --- cross-strategy equivalence ---

// q1Plan builds a Q1-style plan (Example 9): recent movies joined with
// genres and directors, three preferences, top-k by score.
func q1Plan() algebra.Node {
	p1 := pref.Constant("p1", "genres", expr.Eq("genre", types.Str("Comedy")), 0.8, 0.9)
	p2 := pref.Constant("p2", "directors", expr.Eq("director", types.Str("C. Eastwood")), 0.9, 0.8)
	core := &algebra.Join{
		Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.d_id"), R: expr.ColRef("directors.d_id")},
		Left: &algebra.Join{
			Cond: expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")},
			Left: &algebra.Select{
				Cond:  expr.Cmp("year", expr.OpGe, types.Int(2004)),
				Input: &algebra.Scan{Table: "movies"},
			},
			Right: &algebra.Prefer{P: p1, Input: &algebra.Scan{Table: "genres"}},
		},
		Right: &algebra.Prefer{P: p2, Input: &algebra.Scan{Table: "directors"}},
	}
	return &algebra.TopK{K: 4, By: algebra.ByScore, Input: core}
}

// q2Plan adds a confidence threshold and a multi-relational preference.
func q2Plan() algebra.Node {
	p1 := pref.Constant("p1", "genres", expr.Eq("genre", types.Str("Drama")), 1, 0.8)
	p6 := pref.Preference{
		Name: "p6", On: []string{"movies", "genres"},
		Cond:  expr.Eq("genre", types.Str("Comedy")),
		Score: pref.Recency("year", 2011), Conf: 0.8,
	}
	core := &algebra.Prefer{P: p6, Input: &algebra.Join{
		Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")},
		Left:  &algebra.Scan{Table: "movies"},
		Right: &algebra.Prefer{P: p1, Input: &algebra.Scan{Table: "genres"}},
	}}
	return &algebra.Threshold{By: algebra.ByConf, Op: expr.OpGt, Value: 0, Input: core}
}

// q3Plan exercises union with prefers above the set operation plus rank.
func q3Plan() algebra.Node {
	pa := paMovies()
	recent := &algebra.Select{Cond: expr.Cmp("year", expr.OpGe, types.Int(2005)), Input: &algebra.Scan{Table: "movies"}}
	shortM := &algebra.Select{Cond: expr.Cmp("duration", expr.OpLe, types.Int(126)), Input: &algebra.Scan{Table: "movies"}}
	core := &algebra.Prefer{P: pa, Input: &algebra.Set{Op: algebra.SetUnion, Left: recent, Right: shortM}}
	return &algebra.Rank{By: algebra.ByScore, Input: core}
}

func TestStrategiesAgree(t *testing.T) {
	plans := map[string]algebra.Node{
		"q1-topk-joins": q1Plan(),
		"q2-threshold":  q2Plan(),
		"q3-union-rank": q3Plan(),
		"plain-scan":    &algebra.Scan{Table: "movies"},
		"prefer-only":   &algebra.Prefer{P: paMovies(), Input: &algebra.Scan{Table: "movies"}},
		"skyline-top":   &algebra.Skyline{Input: &algebra.Prefer{P: paMovies(), Input: &algebra.Prefer{P: pbMovies(), Input: &algebra.Scan{Table: "movies"}}}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			e := New(movieDB(t))
			ref, err := e.Run(plan, Native)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			for _, s := range []Strategy{BU, GBU, FtP} {
				e2 := New(movieDB(t))
				got, err := e2.Run(plan, s)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if diff := ref.Diff(got, eps); diff != "" {
					t.Errorf("%v differs from native: %s", s, diff)
				}
			}
		})
	}
}

func TestStrategyCostSignatures(t *testing.T) {
	plan := q1Plan()
	stats := map[Strategy]Stats{}
	for _, s := range Strategies() {
		e := New(movieDB(t))
		if _, err := e.Run(plan, s); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		stats[s] = e.Stats()
	}
	// BU delegates one native call per non-prefer operator; GBU groups them.
	if stats[BU].NativeCalls <= stats[GBU].NativeCalls {
		t.Errorf("BU native calls (%d) should exceed GBU (%d)", stats[BU].NativeCalls, stats[GBU].NativeCalls)
	}
	// Native materializes the least; BU the most.
	if stats[Native].TuplesMaterialized > stats[BU].TuplesMaterialized {
		t.Errorf("native materialized %d > BU %d", stats[Native].TuplesMaterialized, stats[BU].TuplesMaterialized)
	}
	// FtP issues exactly one native query for Q_NP.
	if stats[FtP].NativeCalls != 1 {
		t.Errorf("FtP native calls = %d, want 1", stats[FtP].NativeCalls)
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	e := New(movieDB(t))
	if _, err := e.Run(&algebra.Scan{Table: "movies"}, Strategy(99)); err == nil {
		t.Error("unknown strategy should error")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy String should not be empty")
	}
}

func TestValuesRoundTrip(t *testing.T) {
	// Values nodes run through every strategy unchanged.
	s := prel.New(schema.New(schema.Column{Name: "id", Kind: types.KindInt}))
	s.Append(prel.Row{Tuple: []types.Value{types.Int(1)}, SC: types.NewSC(0.5, 1)})
	plan := &algebra.Values{Rel: s, Label: "fixed"}
	for _, strat := range Strategies() {
		e := New(movieDB(t))
		got, err := e.Run(plan, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if got.Len() != 1 || !got.Rows[0].SC.ApproxEqual(types.NewSC(0.5, 1), eps) {
			t.Errorf("%v: values round trip = %v", strat, got.Rows)
		}
	}
}
