package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/debug"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// valuesRel returns an n-row relation over (id INT, tag STRING) with ⊥
// pairs, ids 0..n-1.
func valuesRel(n int) *prel.PRelation {
	rel := prel.New(schema.New(
		schema.Column{Table: "v", Name: "id", Kind: types.KindInt},
		schema.Column{Table: "v", Name: "tag", Kind: types.KindString},
	))
	rel.Rows = make([]prel.Row, n)
	for i := range rel.Rows {
		rel.Rows[i] = prel.Row{Tuple: []types.Value{types.Int(int64(i)), types.Str("t")}}
	}
	return rel
}

// TestStreamingTopKMatchesFullSort pins the streaming top-k to prel's
// full-sort ranking: over random inputs full of ties (few distinct scores
// and confidences, repeated ids, ⊥ rows, the k-th pair planted on further
// rows), every k from 0 past n, both ranking dimensions and batch sizes
// {1, 7, 1024}, the operator returns exactly the first k rows of the
// stable SortByScore / SortByConf, and it charges Stats as a materialized
// copy of its input — the counter model of the paper's filtering UDF.
func TestStreamingTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	scores := []float64{0.2, 0.5, 0.5, 0.9}
	confs := []float64{0.4, 0.8}
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(300)
		rel := valuesRel(n)
		for i := range rel.Rows {
			rel.Rows[i].Tuple[0] = types.Int(int64(r.Intn(n/2 + 1)))
			if r.Intn(6) > 0 {
				rel.Rows[i].SC = types.NewSC(scores[r.Intn(len(scores))], confs[r.Intn(len(confs))])
			}
		}
		for _, byConf := range []bool{false, true} {
			full := rel.Clone()
			if byConf {
				full.SortByConf()
			} else {
				full.SortByScore()
			}
			for _, k := range []int{0, 1, r.Intn(n + 1), n - 1, n, n + 5} {
				if k < 0 {
					continue
				}
				in := rel
				want := full.Rows[:min(k, n)]
				if k > 0 && k < n {
					// Plant the k-th pair on extra rows, so the cut falls
					// inside a run of equal pairs.
					in = rel.Clone()
					for j := 0; j < 3; j++ {
						in.Rows = append(in.Rows, prel.Row{
							Tuple: []types.Value{types.Int(int64(r.Intn(n))), types.Str("t")},
							SC:    full.Rows[k-1].SC,
						})
					}
					sorted := in.Clone()
					if byConf {
						sorted.SortByConf()
					} else {
						sorted.SortByScore()
					}
					want = sorted.Rows[:k]
				}
				by := algebra.ByScore
				if byConf {
					by = algebra.ByConf
				}
				plan := &algebra.TopK{K: k, By: by, Input: &algebra.Values{Rel: in, Label: "R"}}
				for _, size := range []int{1, 7, 1024} {
					label := fmt.Sprintf("trial %d n=%d k=%d byConf=%v size=%d", trial, len(in.Rows), k, byConf, size)
					e := New(catalog.New())
					e.BatchSize = size
					bi, s, err := e.buildBatch(plan)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					st := e.Stats()
					if st.TuplesMaterialized != len(in.Rows) || st.CellsMaterialized != len(in.Rows)*(s.Len()+2) {
						t.Fatalf("%s: charged %d tuples / %d cells, want its input's %d / %d", label,
							st.TuplesMaterialized, st.CellsMaterialized, len(in.Rows), len(in.Rows)*(s.Len()+2))
					}
					got := &prel.PRelation{Schema: s, Rows: e.drainBatches(bi)}
					mustIdentical(t, &prel.PRelation{Schema: s, Rows: want}, got, label)
				}
			}
		}
	}
}

// TestDrainAllocatesResultOnce pins that a drain spools its rows and
// copies them once into an exactly sized slice: draining a 120,000-row
// Values through a Prefer allocates at most 2.5× the result's row slice.
// Growing the slice by append allocates about 5× before the cells are
// even counted.
func TestDrainAllocatesResultOnce(t *testing.T) {
	if debug.Enabled {
		t.Skip("prefdbdebug assertions allocate on every batch")
	}
	const n = 120_000
	plan := &algebra.Prefer{
		P:     pref.Constant("p", "v", expr.Cmp("id", expr.OpGe, types.Int(n/2)), 0.7, 0.9),
		Input: &algebra.Values{Rel: valuesRel(n), Label: "R"},
	}
	e := New(catalog.New())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out, err := e.Run(plan, Native)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != n || cap(out.Rows) != n {
		t.Fatalf("drained %d rows into capacity %d, want %d in %d", out.Len(), cap(out.Rows), n, n)
	}
	final := float64(n * unsafe.Sizeof(prel.Row{}))
	ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / final
	t.Logf("drain allocated %.2f× its %.0f-byte row slice", ratio, final)
	if ratio > 2.5 {
		t.Fatalf("drain allocated %.2f× its row slice, want ≤ 2.5×", ratio)
	}
}

// TestTopKAllocIndependentOfInput pins that TOP 10 keeps ten rows, not its
// input: over 10,000 and 100,000 rows it allocates within 10 % of the same
// bytes.
func TestTopKAllocIndependentOfInput(t *testing.T) {
	if debug.Enabled {
		t.Skip("prefdbdebug assertions allocate on every batch")
	}
	alloc := func(n int) uint64 {
		in := &algebra.Values{Rel: valuesRel(n), Label: "R"}
		for i := range in.Rel.Rows {
			in.Rel.Rows[i].SC = types.NewSC(float64(i%997)/997, 0.5)
		}
		plan := &algebra.TopK{K: 10, By: algebra.ByScore, Input: in}
		e := New(catalog.New())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := e.Run(plan, Native)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 10 {
			t.Fatalf("TOP 10 over %d rows returned %d", n, out.Len())
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	small, large := alloc(10_000), alloc(100_000)
	t.Logf("TOP 10 allocated %d B over 10k rows, %d B over 100k rows", small, large)
	if float64(large) > 1.1*float64(small) || float64(small) > 1.1*float64(large) {
		t.Fatalf("TOP 10 allocated %d B over 10k rows but %d B over 100k rows, want within 10 %%", small, large)
	}
}

// TestNestedDrains runs blocking operators over blocking operators and set
// operations — each level drains inside its parent's pipeline build — and
// checks every strategy against the oracle, at every batch size and with
// identical Stats (crossCheck): two drains in flight at once must not
// share spool state.
func TestNestedDrains(t *testing.T) {
	fx := fixture{heap: nullMovieDB(t)}
	recent := &algebra.Prefer{P: paMovies(), Input: &algebra.Select{
		Cond: expr.Cmp("year", expr.OpGe, types.Int(2005)), Input: &algebra.Scan{Table: "movies"}}}
	short := &algebra.Prefer{P: pbMovies(), Input: &algebra.Select{
		Cond: expr.Cmp("duration", expr.OpLe, types.Int(126)), Input: &algebra.Scan{Table: "movies"}}}
	plans := map[string]algebra.Node{
		"top-union-tops": &algebra.TopK{K: 4, By: algebra.ByScore, Input: &algebra.Set{Op: algebra.SetUnion,
			Left:  &algebra.TopK{K: 3, By: algebra.ByScore, Input: recent},
			Right: &algebra.TopK{K: 5, By: algebra.ByConf, Input: short}}},
		"orderby-skyline": &algebra.OrderBy{
			Keys:  []algebra.OrderKey{{Col: expr.ColRef("movies.year"), Desc: true}, {Col: expr.ColRef("movies.m_id")}},
			Input: &algebra.Skyline{Input: &algebra.Prefer{P: pbMovies(), Input: recent}}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range []Strategy{Native, BU, GBU, FtP} {
				crossCheck(t, fx, plan, strategy, strategy.String())
			}
		})
	}
}
