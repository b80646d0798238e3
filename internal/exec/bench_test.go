package exec

import (
	"fmt"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/datagen"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/types"
)

func benchCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	cat := catalog.New()
	if _, err := datagen.LoadIMDB(cat, datagen.Config{Scale: 0.1, Seed: 9}); err != nil {
		b.Fatal(err)
	}
	return cat
}

func drainAll(b *testing.B, e *Executor, plan algebra.Node) int {
	b.Helper()
	rel, err := e.Run(plan, Native)
	if err != nil {
		b.Fatal(err)
	}
	return rel.Len()
}

// BenchmarkPreferOperator measures the λ operator's per-tuple throughput.
func BenchmarkPreferOperator(b *testing.B) {
	cat := benchCatalog(b)
	e := New(cat)
	plan := &algebra.Prefer{
		P:     pref.New("p", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9),
		Input: &algebra.Scan{Table: "movies"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if drainAll(b, e, plan) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHashJoin measures the extended hash join (with SC combination).
func BenchmarkHashJoin(b *testing.B) {
	cat := benchCatalog(b)
	e := New(cat)
	plan := &algebra.Join{
		Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")},
		Left:  &algebra.Scan{Table: "movies"},
		Right: &algebra.Scan{Table: "genres"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if drainAll(b, e, plan) == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkSkylineOperator measures the (score, conf) skyline sweep.
func BenchmarkSkylineOperator(b *testing.B) {
	cat := benchCatalog(b)
	e := New(cat)
	plan := &algebra.Skyline{Input: &algebra.Prefer{
		P:     pref.New("p", "movies", expr.TrueLiteral(), pref.Recency("year", 2011), 0.9),
		Input: &algebra.Scan{Table: "movies"},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainAll(b, e, plan)
	}
}

// BenchmarkIndexVsScan contrasts the two access paths for one selective
// equality condition.
func BenchmarkIndexVsScan(b *testing.B) {
	cat := benchCatalog(b)
	cond := expr.Eq("genre", types.Str("Film-Noir"))
	plan := &algebra.Select{Cond: cond, Input: &algebra.Scan{Table: "genres"}}
	b.Run("hash-index", func(b *testing.B) {
		e := New(cat)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainAll(b, e, plan)
		}
	})
	b.Run("seq-scan", func(b *testing.B) {
		// A fresh catalog without the genre index forces the scan path.
		noIdx := catalog.New()
		if _, err := datagen.LoadDBLP(noIdx, datagen.Config{Scale: 0.01, Seed: 9}); err != nil {
			b.Fatal(err)
		}
		scanPlan := &algebra.Select{
			Cond:  expr.Eq("location", types.Str("Athens")),
			Input: &algebra.Scan{Table: "conferences"},
		}
		e := New(noIdx)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainAll(b, e, scanPlan)
		}
	})
}

// fullIMDBCatalog is a full-scale load (20k movies, ~130k cast rows).
func fullIMDBCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	cat := catalog.New()
	if _, err := datagen.LoadIMDB(cat, datagen.Config{Scale: 1.0, Seed: 9}); err != nil {
		b.Fatal(err)
	}
	return cat
}

// BenchmarkBatchFilterPrefer measures the fused filter→prefer kernel
// across block sizes and filter selectivities (cache off, so
// the measurement isolates the kernel). Expected: throughput grows as the
// filter keeps fewer rows (the fused kernel never scores filtered-out
// tuples) and flattens once the block size amortizes per-batch overhead.
func BenchmarkBatchFilterPrefer(b *testing.B) {
	cat := fullIMDBCatalog(b)
	tbl, err := cat.Table("movies")
	if err != nil {
		b.Fatal(err)
	}
	total := tbl.Len()
	for _, sel := range []float64{0.01, 0.5, 0.99} {
		cut := int64(float64(total) * sel)
		plan := &algebra.Prefer{
			P: pref.New("recent", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9),
			Input: &algebra.Select{
				Cond:  expr.Cmp("m_id", expr.OpLe, types.Int(cut)),
				Input: &algebra.Scan{Table: "movies"},
			},
		}
		run := func(b *testing.B, size int) {
			e := New(cat)
			e.BatchSize = size
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainAll(b, e, plan)
			}
		}
		for _, size := range []int{64, 256, 1024, 4096} {
			b.Run(fmt.Sprintf("sel=%g/batch=%d", sel, size), func(b *testing.B) { run(b, size) })
		}
	}
}

// BenchmarkAggregateCombine measures the raw pair-combination cost.
func BenchmarkAggregateCombine(b *testing.B) {
	for _, f := range []pref.Aggregate{pref.FSum{}, pref.FMax{}, pref.FMult{}} {
		b.Run(f.Name(), func(b *testing.B) {
			a, c := types.NewSC(0.7, 0.8), types.NewSC(0.4, 0.3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a = f.Combine(a, c)
			}
			_ = a
		})
	}
}
