package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// TestBatchRowEquivalence is the acceptance contract of the vectorized
// path: for named and randomized plans, every strategy × worker count ×
// cache mode must produce byte-identical rows, row order and Stats
// (modulo the diagnostic Batches counter) with batch execution on and
// off.
func TestBatchRowEquivalence(t *testing.T) {
	cat := movieDB(t)
	plans := map[string]algebra.Node{
		"q1-topk-joins": q1Plan(),
		"q2-threshold":  q2Plan(),
		"q3-union-rank": q3Plan(),
		"project-prefer": &algebra.Project{
			Cols: []expr.Col{expr.ColRef("movies.m_id"), expr.ColRef("movies.year")},
			Input: &algebra.Prefer{P: paMovies(), Input: &algebra.Select{
				Cond:  expr.Cmp("year", expr.OpGe, types.Int(2000)),
				Input: &algebra.Scan{Table: "movies"},
			}},
		},
	}
	iterations := 20
	if testing.Short() {
		iterations = 5
	}
	g := &planGen{r: rand.New(rand.NewSource(20260806))}
	for i := 0; i < iterations; i++ {
		plans[fmt.Sprintf("rand-%02d", i)] = g.genPlan()
	}

	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range Strategies() {
				for _, workers := range []int{1, 4} {
					for _, cache := range []CacheMode{CacheOff, CacheOn} {
						label := fmt.Sprintf("%v workers=%d cache=%v", strategy, workers, cache)

						ref := New(cat)
						ref.Workers = workers
						ref.ScoreCache = cache
						ref.Batch = BatchOff
						want, err := ref.Run(plan, strategy)
						if err != nil {
							t.Fatalf("%s row path: %v", label, err)
						}
						if ref.Stats().Batches != 0 {
							t.Fatalf("%s: row path counted %d batches", label, ref.Stats().Batches)
						}

						e := New(cat)
						e.Workers = workers
						e.ScoreCache = cache
						e.Batch = BatchOn
						got, err := e.Run(plan, strategy)
						if err != nil {
							t.Fatalf("%s batch path: %v", label, err)
						}

						mustIdentical(t, want, got, label)
						rs, gs := ref.Stats(), e.Stats()
						rs.Batches, gs.Batches = 0, 0
						rs.JoinProbeBatches, gs.JoinProbeBatches = 0, 0
						rs.JoinProbeBatches, gs.JoinProbeBatches = 0, 0
						if rs != gs {
							t.Fatalf("%s: batch stats %+v, want %+v", label, gs, rs)
						}
					}
				}
			}
		})
	}
}

// TestBatchSizeEquivalence sweeps extreme block sizes (including a
// degenerate 1-row batch) to pin boundary behavior: results must not
// depend on how the pipeline is blocked.
func TestBatchSizeEquivalence(t *testing.T) {
	cat := movieDB(t)
	plans := map[string]algebra.Node{
		"q1-topk-joins": q1Plan(),
		"prefer-chain": &algebra.Prefer{P: paMovies(), Input: &algebra.Prefer{
			P: pbMovies(), Input: &algebra.Select{
				Cond:  expr.Cmp("duration", expr.OpLe, types.Int(150)),
				Input: &algebra.Scan{Table: "movies"},
			},
		}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			ref := New(cat)
			ref.Batch = BatchOff
			want, err := ref.Run(plan, Native)
			if err != nil {
				t.Fatalf("row path: %v", err)
			}
			for _, size := range []int{1, 3, 64, 1024, 4096} {
				e := New(cat)
				e.BatchSize = size
				got, err := e.Run(plan, Native)
				if err != nil {
					t.Fatalf("batch size %d: %v", size, err)
				}
				mustIdentical(t, want, got, fmt.Sprintf("batch size %d", size))
				rs, gs := ref.Stats(), e.Stats()
				rs.Batches, gs.Batches = 0, 0
				rs.JoinProbeBatches, gs.JoinProbeBatches = 0, 0
				if rs != gs {
					t.Fatalf("batch size %d: stats %+v, want %+v", size, gs, rs)
				}
			}
		})
	}
}

// TestBatchCountsBatches pins that the default mode actually takes the
// vectorized path (the equivalence tests would pass vacuously if the
// batch mode silently fell back to rows everywhere).
func TestBatchCountsBatches(t *testing.T) {
	e := New(movieDB(t))
	if _, err := e.Run(q1Plan(), Native); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Batches == 0 {
		t.Fatal("default (batch) execution recorded no batches")
	}
}

// TestParseBatchMode covers the flag surface.
func TestParseBatchMode(t *testing.T) {
	for name, want := range map[string]BatchMode{"on": BatchOn, "Off": BatchOff} {
		got, err := ParseBatchMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseBatchMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseBatchMode("sometimes"); err == nil {
		t.Fatal("ParseBatchMode accepted an unknown mode")
	}
}

// TestBatchGuardTrips verifies the vectorized path observes lifecycle
// guards: a tiny row budget must trip ErrResourceExhausted exactly as on
// the row path.
func TestBatchGuardTrips(t *testing.T) {
	plan := &algebra.Prefer{P: paMovies(), Input: &algebra.Scan{Table: "movies"}}
	for _, mode := range []BatchMode{BatchOn, BatchOff} {
		e := New(movieDB(t))
		e.Batch = mode
		e.Limits = Limits{MaxRows: 3}
		_, err := e.RunContext(t.Context(), plan, Native)
		if err == nil {
			t.Fatalf("batch=%v: tiny MaxRows budget did not trip", mode)
		}
		var ge *GuardError
		if !asGuardError(err, &ge) || ge.Limit != LimitRows {
			t.Fatalf("batch=%v: err = %v, want max-rows GuardError", mode, err)
		}
	}
}

func asGuardError(err error, target **GuardError) bool {
	return errors.As(err, target)
}

// TestSegBatchKernelFusesFilterPrefer pins the fused kernel directly:
// a filter→prefer chain over a batch source must score only the rows the
// filter selected, and leave rejected rows unselected — at every worker
// count, since σ/λ chains never fan out.
func TestSegBatchKernelFusesFilterPrefer(t *testing.T) {
	cat := movieDB(t)
	plan := &algebra.Prefer{P: paMovies(), Input: &algebra.Select{
		Cond:  expr.Cmp("year", expr.OpGe, types.Int(2005)),
		Input: &algebra.Scan{Table: "movies"},
	}}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(cat)
			e.Workers = workers
			bi, _, err := e.buildBatch(plan)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := bi.(*segBatchIter); !ok {
				t.Fatalf("filter→prefer chain compiled to %T, want *segBatchIter", bi)
			}
			var rows []prel.Row
			for {
				b, ok := bi.nextBatch()
				if !ok {
					break
				}
				rows = b.AppendRows(rows)
			}
			if len(rows) == 0 {
				t.Fatal("fused kernel returned no rows")
			}
			yearOrd := 2 // movies schema: m_id, title, year, ...
			for _, r := range rows {
				if y := r.Tuple[yearOrd].AsInt(); y < 2005 {
					t.Fatalf("row with year %d survived the fused filter", y)
				}
			}
			if e.Stats().PreferEvals != len(rows) {
				t.Fatalf("PreferEvals = %d, want %d (selected rows only)", e.Stats().PreferEvals, len(rows))
			}
		})
	}
}

// TestProjectArenaAliasing pins the projection arena's aliasing contract:
// tuples handed out are stable and appending to one cannot clobber its
// chunk neighbours.
func TestProjectArenaAliasing(t *testing.T) {
	a := projectArena{width: 2}
	t1 := a.tuple()
	t1[0], t1[1] = types.Int(1), types.Int(2)
	t2 := a.tuple()
	t2[0], t2[1] = types.Int(3), types.Int(4)
	grown := append(t1, types.Int(99)) // must reallocate, not spill into t2
	_ = grown
	if !t2[0].Equal(types.Int(3)) || !t2[1].Equal(types.Int(4)) {
		t.Fatalf("append through arena tuple clobbered neighbour: %v", t2)
	}
	// Chunk rollover keeps earlier tuples intact.
	for i := 0; i < projectChunkRows*2; i++ {
		nt := a.tuple()
		nt[0] = types.Int(int64(i))
	}
	if !t1[0].Equal(types.Int(1)) {
		t.Fatalf("chunk rollover invalidated earlier tuple: %v", t1)
	}
}
