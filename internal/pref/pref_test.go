package pref

import (
	"math"
	"testing"
	"testing/quick"

	"prefdb/internal/expr"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

func TestPreferenceConstructorsAndValidate(t *testing.T) {
	p := Constant("p3", "GENRES", expr.Eq("genre", types.Str("Comedy")), 1, 0.8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.On[0] != "genres" {
		t.Errorf("relation should be lower-cased: %v", p.On)
	}
	if p.IsMultiRelational() {
		t.Error("single-relation preference misreported")
	}

	a := Atomic("p1", "movies", "m_id", types.Int(3), 0.8)
	if a.Conf != 1 {
		t.Errorf("atomic preference conf = %v, want 1", a.Conf)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}

	m := Membership("p7", []string{"MOVIES", "AWARDS"}, 1, 0.9)
	if !m.IsMultiRelational() {
		t.Error("membership preference should be multi-relational")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := []Preference{
		{},
		{On: []string{"r"}},
		{On: []string{"r"}, Cond: expr.TrueLiteral()},
		{On: []string{"r"}, Cond: expr.TrueLiteral(), Score: expr.TrueLiteral(), Conf: 1.5},
		{On: []string{"r"}, Cond: expr.TrueLiteral(), Score: expr.TrueLiteral(), Conf: -0.1},
		{On: []string{""}, Cond: expr.TrueLiteral(), Score: expr.TrueLiteral(), Conf: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad preference %d validated", i)
		}
	}
}

func TestCovers(t *testing.T) {
	p := Membership("p7", []string{"movies", "awards"}, 1, 0.9)
	if !p.Covers(map[string]bool{"movies": true, "awards": true, "genres": true}) {
		t.Error("Covers should hold")
	}
	if p.Covers(map[string]bool{"movies": true}) {
		t.Error("Covers should fail for missing relation")
	}
}

func TestStringAndLabel(t *testing.T) {
	p := Constant("p3", "genres", expr.Eq("genre", types.Str("Comedy")), 1, 0.8)
	want := "p3[genres] = (σ (genre = 'Comedy'), 1, 0.80)"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if p.Label() != "p3" {
		t.Errorf("Label = %q", p.Label())
	}
	p.Name = ""
	if p.Label() == "" {
		t.Error("unnamed Label should fall back to rendering")
	}
}

func TestSortByName(t *testing.T) {
	ps := []Preference{
		Constant("b", "r", expr.TrueLiteral(), 1, 1),
		Constant("a", "r", expr.TrueLiteral(), 1, 1),
	}
	SortByName(ps)
	if ps[0].Name != "a" {
		t.Errorf("sorted order = %v", []string{ps[0].Name, ps[1].Name})
	}
}

// --- aggregate functions ---

func allAggregates() []Aggregate {
	return []Aggregate{FSum{}, FMax{}, FMaxScore{}, FMult{}}
}

func TestAggregateIdentity(t *testing.T) {
	x := types.NewSC(0.7, 0.4)
	for _, f := range allAggregates() {
		if got := f.Combine(types.Bottom(), x); got != x {
			t.Errorf("%s: F(⊥, x) = %v, want %v", f.Name(), got, x)
		}
		if got := f.Combine(x, types.Bottom()); got != x {
			t.Errorf("%s: F(x, ⊥) = %v, want %v", f.Name(), got, x)
		}
		if got := f.Combine(types.Bottom(), types.Bottom()); !got.IsBottom() {
			t.Errorf("%s: F(⊥, ⊥) = %v, want ⊥", f.Name(), got)
		}
	}
}

func TestFSumWeightedSum(t *testing.T) {
	// Paper's F_S: score = Σ C_k·S_k / Σ C_k, conf = Σ C_k.
	got := FSum{}.Combine(types.NewSC(1.0, 0.8), types.NewSC(0.5, 0.2))
	wantScore := (0.8*1.0 + 0.2*0.5) / 1.0
	if math.Abs(got.Score-wantScore) > 1e-12 || math.Abs(got.Conf-1.0) > 1e-12 {
		t.Errorf("FSum = %v, want ⟨%v,1⟩", got, wantScore)
	}
	// Lower-confidence scores contribute less.
	hi := FSum{}.Combine(types.NewSC(1.0, 0.9), types.NewSC(0.0, 0.1))
	lo := FSum{}.Combine(types.NewSC(1.0, 0.1), types.NewSC(0.0, 0.9))
	if hi.Score <= lo.Score {
		t.Errorf("confidence weighting broken: %v vs %v", hi, lo)
	}
	// Zero total confidence: score collapses to 0 rather than dividing by 0.
	z := FSum{}.Combine(types.NewSC(1, 0), types.NewSC(1, 0))
	if z.Score != 0 || z.Conf != 0 || z.IsBottom() {
		t.Errorf("zero-conf FSum = %v", z)
	}
}

func TestFMaxPicksHighestConfidence(t *testing.T) {
	a, b := types.NewSC(0.2, 0.9), types.NewSC(0.9, 0.5)
	if got := (FMax{}).Combine(a, b); got != a {
		t.Errorf("FMax = %v, want %v", got, a)
	}
	// Tie on confidence → higher score wins, both orders.
	x, y := types.NewSC(0.3, 0.5), types.NewSC(0.6, 0.5)
	if (FMax{}).Combine(x, y) != y || (FMax{}).Combine(y, x) != y {
		t.Error("FMax tie-break not commutative")
	}
}

func TestFMaxScoreAndFMult(t *testing.T) {
	a, b := types.NewSC(0.2, 0.9), types.NewSC(0.9, 0.5)
	if got := (FMaxScore{}).Combine(a, b); got != b {
		t.Errorf("FMaxScore = %v, want %v", got, b)
	}
	got := FMult{}.Combine(types.NewSC(0.5, 0.8), types.NewSC(0.5, 0.5))
	if math.Abs(got.Score-0.25) > 1e-12 || math.Abs(got.Conf-0.4) > 1e-12 {
		t.Errorf("FMult = %v", got)
	}
}

func randSC(s, c uint8, known bool) types.SC {
	if !known {
		return types.Bottom()
	}
	return types.NewSC(float64(s)/255, float64(c)/255)
}

func TestAggregateCommutativityProperty(t *testing.T) {
	for _, f := range allAggregates() {
		f := f
		prop := func(s1, c1, s2, c2 uint8, k1, k2 bool) bool {
			a, b := randSC(s1, c1, k1), randSC(s2, c2, k2)
			return f.Combine(a, b).ApproxEqual(f.Combine(b, a), 1e-9)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s not commutative: %v", f.Name(), err)
		}
	}
}

func TestAggregateAssociativityProperty(t *testing.T) {
	for _, f := range allAggregates() {
		f := f
		prop := func(s1, c1, s2, c2, s3, c3 uint8, k1, k2, k3 bool) bool {
			a, b, c := randSC(s1, c1, k1), randSC(s2, c2, k2), randSC(s3, c3, k3)
			l := f.Combine(f.Combine(a, b), c)
			r := f.Combine(a, f.Combine(b, c))
			return l.ApproxEqual(r, 1e-9)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s not associative: %v", f.Name(), err)
		}
	}
}

func TestCombineAll(t *testing.T) {
	got := CombineAll(FSum{}, types.NewSC(1, 1), types.NewSC(0, 1))
	if math.Abs(got.Score-0.5) > 1e-12 || math.Abs(got.Conf-2) > 1e-12 {
		t.Errorf("CombineAll = %v", got)
	}
	if !CombineAll(FSum{}).IsBottom() {
		t.Error("empty CombineAll should be ⊥")
	}
}

func TestLookupAggregate(t *testing.T) {
	for _, name := range AggregateNames() {
		f, err := LookupAggregate(name)
		if err != nil || f == nil {
			t.Errorf("LookupAggregate(%q): %v", name, err)
		}
	}
	if f, err := LookupAggregate("SUM"); err != nil || f.Name() != "sum" {
		t.Error("lookup should be case-insensitive")
	}
	if _, err := LookupAggregate("nope"); err == nil {
		t.Error("unknown aggregate should error")
	}
}

// --- scoring functions ---

func scoreSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "rating", Kind: types.KindFloat},
		schema.Column{Name: "year", Kind: types.KindInt},
		schema.Column{Name: "duration", Kind: types.KindInt},
	)
}

func evalScore(t *testing.T, n expr.Node, row []types.Value) types.Value {
	t.Helper()
	c, err := expr.Compile(n, scoreSchema(), Functions())
	if err != nil {
		t.Fatalf("compile %s: %v", n, err)
	}
	return c.Eval(row)
}

func TestScoringFunctions(t *testing.T) {
	row := []types.Value{types.Float(8.0), types.Int(2008), types.Int(100)}
	cases := []struct {
		n    expr.Node
		want float64
	}{
		{Linear("rating", 0.1), 0.8},              // S_r(rating) = 0.1·rating
		{Recency("year", 2011), 2008.0 / 2011.0},  // S_m(year, 2011)
		{Around("duration", 120), 1 - 20.0/120.0}, // S_d(duration, 120)
		{expr.Call{Name: "step", Args: []expr.Node{expr.ColRef("year"), expr.Lit{Val: types.Int(2000)}}}, 1},
		{expr.Call{Name: "step", Args: []expr.Node{expr.ColRef("year"), expr.Lit{Val: types.Int(2010)}}}, 0},
		{expr.Call{Name: "ramp", Args: []expr.Node{expr.ColRef("year"), expr.Lit{Val: types.Int(2000)}, expr.Lit{Val: types.Int(2010)}}}, 0.8},
		{expr.Call{Name: "gauss", Args: []expr.Node{expr.ColRef("duration"), expr.Lit{Val: types.Int(100)}, expr.Lit{Val: types.Int(10)}}}, 1},
		{expr.Call{Name: "inverse", Args: []expr.Node{expr.ColRef("duration"), expr.Lit{Val: types.Int(100)}}}, 0.5},
		{expr.Call{Name: "clamp", Args: []expr.Node{expr.Lit{Val: types.Float(1.7)}}}, 1},
		{expr.Call{Name: "clamp", Args: []expr.Node{expr.Lit{Val: types.Float(-0.3)}}}, 0},
	}
	for _, c := range cases {
		got := evalScore(t, c.n, row)
		if got.IsNull() || math.Abs(got.AsFloat()-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestScoringClampedAndNullSafe(t *testing.T) {
	// linear(rating, 0.5) with rating 8 = 4 → clamped to 1.
	row := []types.Value{types.Float(8.0), types.Int(0), types.Int(0)}
	if got := evalScore(t, Linear("rating", 0.5), row); got.AsFloat() != 1 {
		t.Errorf("clamp high = %v", got)
	}
	// NULL input yields NULL (⊥ score for the tuple).
	nullRow := []types.Value{types.Null(), types.Int(2000), types.Int(100)}
	if got := evalScore(t, Linear("rating", 0.1), nullRow); !got.IsNull() {
		t.Errorf("NULL input = %v, want NULL", got)
	}
	// Division-by-zero style guards.
	if got := evalScore(t, Recency("year", 0), row); got.AsFloat() != 0 {
		t.Errorf("recency ref=0 = %v", got)
	}
	if got := evalScore(t, Around("year", 0), row); got.AsFloat() != 0 {
		t.Errorf("around target=0 = %v", got)
	}
}

func TestWeightedScoring(t *testing.T) {
	// The paper's p5: 0.5·S_m(year,2011) + 0.5·S_d(duration,120).
	row := []types.Value{types.Float(5), types.Int(2008), types.Int(100)}
	n := Weighted(0.5, Recency("year", 2011), 0.5, Around("duration", 120))
	want := 0.5*(2008.0/2011.0) + 0.5*(1-20.0/120.0)
	got := evalScore(t, n, row)
	if math.Abs(got.AsFloat()-want) > 1e-12 {
		t.Errorf("weighted = %v, want %v", got, want)
	}
}

func TestScoringRangeProperty(t *testing.T) {
	// Property: every scoring function stays within [0,1] for random input.
	reg := Functions()
	names := []string{"linear", "recency", "around", "step", "inverse"}
	prop := func(x, p int16) bool {
		for _, name := range names {
			f, _ := reg.Lookup(name)
			v := f.Eval([]types.Value{types.Int(int64(x)), types.Int(int64(p))})
			if v.IsNull() {
				continue
			}
			s := v.AsFloat()
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.5, 0.5}, {-1, 0}, {2, 1}, {0, 0}, {1, 1}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestScoringCallBatchAllocFree pins that a scoring call's batch
// evaluators keep their argument scratch across batches: after the
// first batch, EvalBatch of linear(id, 0.001) over 1,024 rows, and its
// direct-column twin EvalFloats, allocate nothing, and both still agree
// with the scalar evaluator.
func TestScoringCallBatchAllocFree(t *testing.T) {
	const n = 1024
	s := schema.New(schema.Column{Table: "t", Name: "id", Kind: types.KindInt})
	c, err := expr.Compile(Linear("id", 0.001), s, Functions())
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([][]types.Value, n)
	ints := make([]int64, n)
	sel := make([]int32, n)
	for i := range tuples {
		tuples[i] = []types.Value{types.Int(int64(i))}
		ints[i] = int64(i)
		sel[i] = int32(i)
	}
	out := make([]types.Value, n)
	if allocs := testing.AllocsPerRun(20, func() { c.EvalBatch(tuples, sel, out) }); allocs != 0 {
		t.Errorf("EvalBatch allocates %.0f objects per %d-row batch, want 0", allocs, n)
	}
	if !c.CanEvalCols() {
		t.Fatal("linear(id, 0.001) has no direct-column kernel")
	}
	cols := []types.ColVec{{Ints: ints}}
	fout, null := make([]float64, n), make([]bool, n)
	if allocs := testing.AllocsPerRun(20, func() {
		c.EvalFloats(cols, sel, fout, null)
	}); allocs != 0 {
		t.Errorf("EvalFloats allocates %.0f objects per %d-row batch, want 0", allocs, n)
	}
	for i, tuple := range tuples {
		want := c.Eval(tuple)
		if !out[i].Equal(want) || null[i] || fout[i] != want.AsFloat() {
			t.Fatalf("row %d: EvalBatch %v, EvalFloats (%v, null=%v), want %v", i, out[i], fout[i], null[i], want)
		}
	}
}
