package exec

import (
	"fmt"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/datagen"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// parallelCatalog is large enough (5 000 movies, ~32 000 cast rows) that
// both parallel operators — partitioned join build with morsel probe, and
// top-k merge — actually engage (> morselSize rows).
func parallelCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if _, err := datagen.LoadIMDB(cat, datagen.Config{Scale: 0.25, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// parallelPlans pairs the shapes Workers affects — hash joins (join-*)
// and top-k above them — with σ/λ-only shapes (prefer chains over scans,
// index-backed selects under prefers, skyline) that run in the one fused
// kernel at every worker count and so check that the join and top-k
// fan-out leaves everything around it untouched.
func parallelPlans() map[string]algebra.Node {
	pRecency := pref.New("recent", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9)
	pShort := pref.New("short", "movies", expr.Cmp("duration", expr.OpLe, types.Int(120)), pref.Around("duration", 100), 0.6)
	pDrama := pref.New("drama", "genres", expr.Eq("genre", types.Str("Drama")), pref.Recency("year", 2011), 0.8)
	join := func() algebra.Node {
		return &algebra.Join{
			Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")},
			Left:  &algebra.Scan{Table: "movies"},
			Right: &algebra.Scan{Table: "genres"},
		}
	}
	return map[string]algebra.Node{
		"prefer-chain": &algebra.Prefer{P: pShort, Input: &algebra.Prefer{P: pRecency, Input: &algebra.Scan{Table: "movies"}}},
		"select-prefer": &algebra.Prefer{P: pRecency, Input: &algebra.Select{
			Cond:  expr.Cmp("year", expr.OpGe, types.Int(1990)),
			Input: &algebra.Scan{Table: "movies"},
		}},
		"join-prefer-topk": &algebra.TopK{K: 50, By: algebra.ByScore,
			Input: &algebra.Prefer{P: pDrama, Input: join()}},
		"join-prefer-threshold": &algebra.Threshold{By: algebra.ByConf, Op: expr.OpGe, Value: 0.5,
			Input: &algebra.Prefer{P: pDrama, Input: join()}},
		"skyline": &algebra.Skyline{Input: &algebra.Prefer{P: pRecency, Input: &algebra.Scan{Table: "movies"}}},
	}
}

// mustIdentical fails unless the relations match exactly: same
// cardinality, same row order, same tuples, bit-identical ⟨S,C⟩ pairs.
func mustIdentical(t *testing.T, want, got *prel.PRelation, label string) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: cardinality %d, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		if !types.TupleEqual(want.Rows[i].Tuple, got.Rows[i].Tuple) {
			t.Fatalf("%s: row %d tuple = %v, want %v", label, i, got.Rows[i].Tuple, want.Rows[i].Tuple)
		}
		if want.Rows[i].SC != got.Rows[i].SC {
			t.Fatalf("%s: row %d SC = %v, want %v", label, i, got.Rows[i].SC, want.Rows[i].SC)
		}
	}
}

// TestParallelIdenticalToSequential asserts the determinism contract of
// the morsel executor: for every strategy and every pipeline shape,
// Workers=N produces exactly the rows, row order and Stats of the
// sequential Workers=1 run.
func TestParallelIdenticalToSequential(t *testing.T) {
	cat := parallelCatalog(t)
	for name, plan := range parallelPlans() {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range Strategies() {
				ref := New(cat)
				ref.Workers = 1
				want, err := ref.Run(plan, strategy)
				if err != nil {
					t.Fatalf("%v sequential: %v", strategy, err)
				}
				for _, workers := range []int{2, 4, 0} {
					e := New(cat)
					e.Workers = workers
					got, err := e.Run(plan, strategy)
					if err != nil {
						t.Fatalf("%v workers=%d: %v", strategy, workers, err)
					}
					label := fmt.Sprintf("%v workers=%d", strategy, workers)
					mustIdentical(t, want, got, label)
					// Batches and JoinProbeBatches are diagnostic and depend
					// on how the join consumes its probe side; every cost
					// counter must match exactly.
					refStats, gotStats := ref.Stats(), e.Stats()
					refStats.Batches, gotStats.Batches = 0, 0
					refStats.JoinProbeBatches, gotStats.JoinProbeBatches = 0, 0
					if refStats != gotStats {
						t.Fatalf("%s: stats %+v, want %+v", label, gotStats, refStats)
					}
				}
			}
		})
	}
}

// TestParallelLimitKeepsLazyStats pins laziness under a Limit: a limit
// stops pulling its input early, so the prefer chain beneath it must be
// evaluated lazily — one batch at a time — at every worker count for
// PreferEvals to remain comparable. With 1-row batches that is exactly the
// ten rows the limit takes.
func TestParallelLimitKeepsLazyStats(t *testing.T) {
	cat := parallelCatalog(t)
	plan := &algebra.Limit{N: 10, Input: &algebra.Prefer{
		P:     pref.New("recent", "movies", expr.TrueLiteral(), pref.Recency("year", 2011), 0.9),
		Input: &algebra.Scan{Table: "movies"},
	}}
	for _, size := range []int{1, 0} {
		ref := New(cat)
		ref.Workers, ref.BatchSize = 1, size
		want, err := ref.Run(plan, Native)
		if err != nil {
			t.Fatal(err)
		}
		e := New(cat)
		e.Workers, e.BatchSize = 4, size
		got, err := e.Run(plan, Native)
		if err != nil {
			t.Fatal(err)
		}
		mustIdentical(t, want, got, "limit-over-prefer")
		if ref.Stats() != e.Stats() {
			t.Fatalf("size=%d: stats %+v, want %+v", size, e.Stats(), ref.Stats())
		}
		evals := e.Stats().PreferEvals
		if size == 1 && evals != 10 || evals > defaultBatchSize {
			t.Fatalf("size=%d: PreferEvals = %d, want 10 with 1-row batches and at most one batch (lazy evaluation under Limit)", size, evals)
		}
	}
}

// TestWorkerCountResolution checks the 0 = GOMAXPROCS convention.
func TestWorkerCountResolution(t *testing.T) {
	e := New(parallelCatalog(t))
	if e.Workers != 0 {
		t.Fatalf("default Workers = %d, want 0", e.Workers)
	}
	if e.workerCount() < 1 {
		t.Fatalf("workerCount() = %d, want >= 1", e.workerCount())
	}
	e.Workers = 3
	if e.workerCount() != 3 {
		t.Fatalf("workerCount() = %d, want 3", e.workerCount())
	}
}
