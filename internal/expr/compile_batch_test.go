package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prefdb/internal/types"
)

// TestTruthyBatchMatchesTruthy checks the vectorized condition kernel
// against the scalar path on randomized tuples and conditions, including
// AND roots (which TruthyBatch splits into conjunct-wise passes) and
// NULL-producing comparisons.
func TestTruthyBatchMatchesTruthy(t *testing.T) {
	s := testSchema()
	reg := NewRegistry()
	r := rand.New(rand.NewSource(7))

	conds := []Node{
		Cmp("year", OpGe, types.Int(2000)),
		Bin{OpAnd, Cmp("year", OpGe, types.Int(2000)), Cmp("rating", OpGt, types.Float(5))},
		Bin{OpAnd, Cmp("year", OpGe, types.Int(1990)),
			Bin{OpAnd, Cmp("rating", OpGt, types.Float(3)), ColRef("hit")}},
		Bin{OpOr, Eq("title", types.Str("x")), Cmp("year", OpLt, types.Int(1995))},
		Un{Op: OpNot, X: ColRef("hit")},
		// Shapes the typed column-vs-literal filter kernel specializes:
		Bin{OpLt, Lit{Val: types.Int(2000)}, ColRef("year")}, // literal on the left
		Cmp("year", OpLe, types.Float(1999.5)),               // float literal on INT column
		Cmp("title", OpGt, types.Str("x")),                   // string ordering
		Eq("hit", types.Bool(true)),                          // bool equality
		Cmp("hit", OpLt, types.Bool(true)),                   // bool ordering (false < true)
		Cmp("title", OpEq, types.Int(3)),                     // incomparable kinds: rejects all
		Cmp("year", OpGe, types.Null()),                      // NULL comparand: rejects all
	}

	for ci, n := range conds {
		c, err := CompileCondition(n, s, reg)
		if err != nil {
			t.Fatalf("cond %d: %v", ci, err)
		}
		tuples := make([][]types.Value, 64)
		for i := range tuples {
			title := "x"
			if r.Intn(2) == 0 {
				title = "y"
			}
			tuples[i] = row(int64(i), title, int64(1980+r.Intn(40)), float64(r.Intn(10)), r.Intn(2) == 0)
			if r.Intn(8) == 0 {
				tuples[i][2] = types.Null() // NULL year: comparisons go UNKNOWN
			}
		}
		sel := make([]int32, 0, len(tuples))
		for i := range tuples {
			if r.Intn(4) > 0 { // start from a partial selection too
				sel = append(sel, int32(i))
			}
		}
		var want []int32
		for _, i := range sel {
			if c.Truthy(tuples[i]) {
				want = append(want, i)
			}
		}
		got := c.TruthyBatch(tuples, append([]int32(nil), sel...))
		if len(got) != len(want) {
			t.Fatalf("cond %d (%s): TruthyBatch kept %d rows, Truthy keeps %d", ci, n, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("cond %d (%s): sel[%d] = %d, want %d", ci, n, k, got[k], want[k])
			}
		}
	}
}

// TestTruthyBatchCompactsInPlace pins the selection-vector contract: the
// result is a prefix reuse of the input's backing array.
func TestTruthyBatchCompactsInPlace(t *testing.T) {
	c, err := CompileCondition(Cmp("year", OpGe, types.Int(2000)), testSchema(), NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	tuples := [][]types.Value{
		row(1, "a", 1999, 1, true),
		row(2, "b", 2005, 1, true),
		row(3, "c", 2010, 1, true),
	}
	sel := []int32{0, 1, 2}
	got := c.TruthyBatch(tuples, sel)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("TruthyBatch = %v, want [1 2]", got)
	}
	if &got[0] != &sel[0] {
		t.Fatal("TruthyBatch did not compact into the input selection vector")
	}
}

// TestMixedNumericLiteralExact pins that every condition path compares an
// INT against a FLOAT exactly, as types.Compare does: the scalar Truthy,
// the tuple kernel (TruthyBatch) and the direct-column kernel
// (TruthyBatchCols) agree with each other and with types.Compare on
// values a float64 rounds, such as the INT 2^53+1 against the FLOAT 2^53.
func TestMixedNumericLiteralExact(t *testing.T) {
	const p53 = 1 << 53
	ints := []int64{p53 - 1, p53, p53 + 1, -(p53 + 1), math.MaxInt64, math.MinInt64, 0}
	floats := []float64{p53, p53 + 2, 0x1p63, -0x1p63, math.Copysign(0, -1), math.NaN(), 0.5}
	n := len(ints) + 1 // the last row holds NULLs
	tuples := make([][]types.Value, n)
	intVec, floatVec, nulls := make([]int64, n), make([]float64, n), make([]bool, n)
	for i := range tuples {
		tuples[i] = row(int64(i), "x", 0, 0, true)
		if i == n-1 {
			tuples[i][2], tuples[i][3] = types.Null(), types.Null()
			nulls[i] = true
			continue
		}
		tuples[i][2], tuples[i][3] = types.Int(ints[i]), types.Float(floats[i])
		intVec[i], floatVec[i] = ints[i], floats[i]
	}
	cols := []types.ColVec{2: {Ints: intVec, Nulls: nulls}, 3: {Floats: floatVec, Nulls: nulls}}
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	lits := []types.Value{types.Float(p53), types.Float(0x1p63), types.Float(-0x1p63), types.Float(-0.5), types.Int(p53 + 1), types.Int(math.MinInt64)}
	for _, colName := range []string{"year", "rating"} {
		for _, lit := range lits {
			for _, op := range ops {
				for _, flip := range []bool{false, true} {
					cond := Cmp(colName, op, lit)
					if flip {
						cond = Bin{Op: op, L: Lit{Val: lit}, R: ColRef(colName)}
					}
					c, err := CompileCondition(cond, testSchema(), NewRegistry())
					if err != nil {
						t.Fatal(err)
					}
					var want []int32
					sel := make([]int32, len(tuples))
					for i := range tuples {
						sel[i] = int32(i)
						if c.Truthy(tuples[i]) {
							want = append(want, int32(i))
						}
					}
					got := c.TruthyBatch(tuples, append([]int32(nil), sel...))
					gotC, _ := c.TruthyBatchCols(cols, tuples, append([]int32(nil), sel...), &ColScratch{})
					if !c.CanFilterCols() {
						t.Fatalf("%s: no direct-column kernel", cond)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(gotC) != fmt.Sprint(want) {
						t.Errorf("%s: Truthy keeps %v, TruthyBatch %v, TruthyBatchCols %v", cond, want, got, gotC)
					}
				}
			}
		}
	}
	// The case that motivated the exact order, against types.Compare.
	c, err := CompileCondition(Cmp("year", OpGt, types.Float(p53)), testSchema(), NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if cmp, _ := types.Compare(types.Int(p53+1), types.Float(p53)); cmp != 1 || !c.Truthy(row(0, "x", p53+1, 0, true)) {
		t.Error("INT 2^53+1 is not greater than FLOAT 2^53")
	}
}
