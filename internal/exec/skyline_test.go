package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// TestSkylineOnePass pins the one-pass ⟨S,C⟩ skyline against the
// oracle's definition — a row survives iff no row dominates it pairwise —
// on generated inputs full of the edge cases: tied scores, equal
// confidences, duplicate tuples, ⊥ rows, +0 and -0 scores, all-⊥ and
// empty inputs. Survivors must match as multisets with bit-identical
// pairs, and come out in exactly the order of the sort-then-sweep
// algorithm it replaces (sortSweepSkyline).
func TestSkylineOnePass(t *testing.T) {
	scores := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1}
	confs := []float64{0, 0.3, 0.8, 1.7}
	r := rand.New(rand.NewSource(398))
	gen := func(n int, bottom float64) []prel.Row {
		rows := make([]prel.Row, n)
		for i := range rows {
			rows[i].Tuple = []types.Value{types.Int(int64(r.Intn(4)))}
			if r.Float64() >= bottom {
				rows[i].SC = types.NewSC(scores[r.Intn(len(scores))], confs[r.Intn(len(confs))])
			}
		}
		return rows
	}
	cases := map[string][]prel.Row{
		"empty":      nil,
		"all-bottom": gen(6, 1),
		"signed-zeros": {
			{Tuple: []types.Value{types.Int(1)}, SC: types.NewSC(math.Copysign(0, -1), 0.5)},
			{Tuple: []types.Value{types.Int(2)}, SC: types.NewSC(0, 0.5)},
			{Tuple: []types.Value{types.Int(3)}, SC: types.NewSC(0, 0.4)},
			{Tuple: []types.Value{types.Int(4)}},
		},
	}
	for i := 0; i < 300; i++ {
		cases[fmt.Sprintf("rand-%03d", i)] = gen(r.Intn(30), []float64{0, 0.2, 0.9}[i%3])
	}
	for name, rows := range cases {
		in := append([]prel.Row(nil), rows...)
		got := skyline(in)
		var want []prel.Row
		for _, x := range rows {
			dominated := false
			for _, y := range rows {
				dominated = dominated || y.SC.Dominates(x.SC)
			}
			if !dominated {
				want = append(want, x)
			}
		}
		if diff := bitwiseDiff(&prel.PRelation{Rows: want}, &prel.PRelation{Rows: got}); diff != "" {
			t.Fatalf("%s: skyline differs from pairwise dominance: %s\ninput: %v", name, diff, rows)
		}
		old := sortSweepSkyline(rows)
		if len(old) != len(got) {
			t.Fatalf("%s: %d rows, sort-then-sweep keeps %d", name, len(got), len(old))
		}
		for i := range old {
			if !types.TupleEqual(old[i].Tuple, got[i].Tuple) || old[i].SC != got[i].SC ||
				math.Signbit(old[i].SC.Score) != math.Signbit(got[i].SC.Score) {
				t.Fatalf("%s: row %d is %v %v, sort-then-sweep order has %v %v",
					name, i, got[i].Tuple, got[i].SC, old[i].Tuple, old[i].SC)
			}
		}
	}
}

// sortSweepSkyline is the skyline algorithm the one-pass version
// replaced, kept as the reference for its output order: sort every known
// row by score then confidence descending, then sweep equal-score groups,
// keeping a group's maximum-confidence rows when that confidence beats
// every higher score's.
func sortSweepSkyline(rows []prel.Row) []prel.Row {
	var known, unknown []prel.Row
	for _, r := range rows {
		if r.SC.Known {
			known = append(known, r)
		} else {
			unknown = append(unknown, r)
		}
	}
	if len(known) == 0 {
		return unknown
	}
	tmp := prel.PRelation{Rows: known}
	tmp.SortByScore()
	var out []prel.Row
	bestConfAbove := -1.0
	for i := 0; i < len(tmp.Rows); {
		j, groupMax := i, -1.0
		for ; j < len(tmp.Rows) && tmp.Rows[j].SC.Score == tmp.Rows[i].SC.Score; j++ {
			groupMax = max(groupMax, tmp.Rows[j].SC.Conf)
		}
		if groupMax > bestConfAbove {
			for k := i; k < j; k++ {
				if tmp.Rows[k].SC.Conf == groupMax {
					out = append(out, tmp.Rows[k])
				}
			}
			bestConfAbove = groupMax
		}
		i = j
	}
	return out
}
