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

// swapCols is the non-identity projection the top-k and threshold tests
// run under: π(tag, id) over valuesRel's (id, tag), applied to rel as the
// executor must apply it.
var swapCols = []expr.Col{expr.ColRef("v.tag"), expr.ColRef("v.id")}

func swapped(rel *prel.PRelation) *prel.PRelation {
	out := &prel.PRelation{Schema: rel.Schema.Project([]int{1, 0}), Rows: make([]prel.Row, len(rel.Rows))}
	for i, r := range rel.Rows {
		out.Rows[i] = prel.Row{Tuple: []types.Value{r.Tuple[1], r.Tuple[0]}, SC: r.SC}
	}
	return out
}

// TestStreamingTopKMatchesFullSort pins the streaming top-k to prel's
// full-sort ranking: over random inputs full of ties (few distinct scores
// and confidences, repeated ids and tags, ⊥ rows, the k-th pair planted on
// further rows), every k from 0 past n, both ranking dimensions and batch
// sizes {1, 7, 1024}, the operator returns exactly the first k rows of the
// stable SortByScore / SortByConf, and it charges Stats as a materialized
// copy of its input — the counter model of the paper's filtering UDF. Each
// case runs over the input as is and under π(tag, id), which top-k applies
// only to the rows it cannot reject on ⟨S,C⟩: the ranking then breaks
// ties on the projected tuples, and every input row is still charged. A
// threshold over the same projection, which filters before it projects,
// keeps exactly the projected rows that pass, in input order.
func TestStreamingTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	scores := []float64{0.2, 0.5, 0.5, 0.9}
	confs := []float64{0.4, 0.8}
	tags := []string{"a", "b", "t"}
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(300)
		rel := valuesRel(n)
		for i := range rel.Rows {
			rel.Rows[i].Tuple[0] = types.Int(int64(r.Intn(n/2 + 1)))
			rel.Rows[i].Tuple[1] = types.Str(tags[r.Intn(len(tags))])
			if r.Intn(6) > 0 {
				rel.Rows[i].SC = types.NewSC(scores[r.Intn(len(scores))], confs[r.Intn(len(confs))])
			}
		}
		checkThresholdOverProject(t, rel, fmt.Sprintf("trial %d", trial))
		for _, byConf := range []bool{false, true} {
			sorted := func(rel *prel.PRelation) *prel.PRelation {
				out := rel.Clone()
				if byConf {
					out.SortByConf()
				} else {
					out.SortByScore()
				}
				return out
			}
			full := sorted(rel)
			for _, k := range []int{0, 1, r.Intn(n + 1), n - 1, n, n + 5} {
				if k < 0 {
					continue
				}
				in := rel
				if k > 0 && k < n {
					// Plant the k-th pair on extra rows, so the cut falls
					// inside a run of equal pairs.
					in = rel.Clone()
					for j := 0; j < 3; j++ {
						in.Rows = append(in.Rows, prel.Row{
							Tuple: []types.Value{types.Int(int64(r.Intn(n))), types.Str(tags[r.Intn(len(tags))])},
							SC:    full.Rows[k-1].SC,
						})
					}
				}
				by := algebra.ByScore
				if byConf {
					by = algebra.ByConf
				}
				for _, project := range []bool{false, true} {
					var input algebra.Node = &algebra.Values{Rel: in, Label: "R"}
					ranked := sorted(in)
					if project {
						input = &algebra.Project{Cols: swapCols, Input: input}
						ranked = sorted(swapped(in))
					}
					want := &prel.PRelation{Schema: ranked.Schema, Rows: ranked.Rows[:min(k, len(in.Rows))]}
					plan := &algebra.TopK{K: k, By: by, Input: input}
					for _, size := range []int{1, 7, 1024} {
						label := fmt.Sprintf("trial %d n=%d k=%d byConf=%v π=%v size=%d", trial, len(in.Rows), k, byConf, project, size)
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
						mustIdentical(t, want, got, label)
					}
				}
			}
		}
	}
}

// checkThresholdOverProject runs THRESHOLD score >= 0.5 and conf >= 0.8
// over π(tag, id) of rel at several batch sizes and requires exactly the
// projected rows that pass, in input order.
func checkThresholdOverProject(t *testing.T, rel *prel.PRelation, label string) {
	t.Helper()
	proj := swapped(rel)
	for _, th := range []*algebra.Threshold{
		{By: algebra.ByScore, Op: expr.OpGe, Value: 0.5},
		{By: algebra.ByConf, Op: expr.OpGe, Value: 0.8},
	} {
		want := &prel.PRelation{Schema: proj.Schema}
		for _, row := range proj.Rows {
			pass := row.SC.Conf >= th.Value
			if th.By == algebra.ByScore {
				pass = row.SC.Known && row.SC.Score >= th.Value
			}
			if pass {
				want.Rows = append(want.Rows, row)
			}
		}
		plan := &algebra.Threshold{By: th.By, Op: th.Op, Value: th.Value,
			Input: &algebra.Project{Cols: swapCols, Input: &algebra.Values{Rel: rel, Label: "R"}}}
		for _, size := range []int{1, 7, 1024} {
			e := New(catalog.New())
			e.BatchSize = size
			got, err := e.Run(plan, Native)
			if err != nil {
				t.Fatalf("%s threshold by %v size=%d: %v", label, th.By, size, err)
			}
			mustIdentical(t, want, got, fmt.Sprintf("%s threshold by %v size=%d", label, th.By, size))
			if st := e.Stats(); st.TuplesMaterialized != want.Len() || st.CellsMaterialized != want.Len()*4 {
				t.Fatalf("%s threshold by %v size=%d: charged %d tuples / %d cells, want %d / %d", label, th.By, size,
					st.TuplesMaterialized, st.CellsMaterialized, want.Len(), want.Len()*4)
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
// bytes, directly over its input and over a projection, whose tuples it
// builds only for the rows it keeps.
func TestTopKAllocIndependentOfInput(t *testing.T) {
	if debug.Enabled {
		t.Skip("prefdbdebug assertions allocate on every batch")
	}
	alloc := func(n int, project bool) uint64 {
		var in algebra.Node = &algebra.Values{Rel: valuesRel(n), Label: "R"}
		for i := range in.(*algebra.Values).Rel.Rows {
			in.(*algebra.Values).Rel.Rows[i].SC = types.NewSC(float64(i%997)/997, 0.5)
		}
		if project {
			in = &algebra.Project{Cols: swapCols, Input: in}
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
	for _, project := range []bool{false, true} {
		small, large := alloc(10_000, project), alloc(100_000, project)
		t.Logf("TOP 10 (π=%v) allocated %d B over 10k rows, %d B over 100k rows", project, small, large)
		if float64(large) > 1.1*float64(small) || float64(small) > 1.1*float64(large) {
			t.Fatalf("TOP 10 (π=%v) allocated %d B over 10k rows but %d B over 100k rows, want within 10 %%", project, small, large)
		}
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
