package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/types"
)

// guardPlan is a join-heavy pipeline — hash join, prefer and top-k over
// imdbCatalog — so cancellation tests cover every blocking operator.
func guardPlan() algebra.Node {
	pDrama := pref.New("drama", "genres", expr.Eq("genre", types.Str("Drama")), pref.Recency("year", 2011), 0.8)
	return &algebra.TopK{K: 50, By: algebra.ByScore,
		Input: &algebra.Prefer{P: pDrama, Input: &algebra.Join{
			Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")},
			Left:  &algebra.Scan{Table: "movies"},
			Right: &algebra.Scan{Table: "genres"},
		}},
	}
}

// TestPreCanceledContext asserts the cancellation contract across every
// strategy: a canceled context fails the query with a
// *GuardError matching both the exec sentinel and the context error, and
// never returns a relation.
func TestPreCanceledContext(t *testing.T) {
	cat := imdbCatalog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strategy := range Strategies() {
		label := strategy.String()
		e := New(cat)
		rel, err := e.RunContext(ctx, guardPlan(), strategy)
		if rel != nil {
			t.Fatalf("%s: got a relation from a canceled query", label)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", label, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want to match context.Canceled", label, err)
		}
		var ge *GuardError
		if !errors.As(err, &ge) || ge.Limit != LimitCanceled {
			t.Fatalf("%s: err = %#v, want *GuardError{Limit: canceled}", label, err)
		}
	}
}

// TestDeadlineExceeded asserts an expired deadline surfaces as
// ErrDeadlineExceeded (and context.DeadlineExceeded).
func TestDeadlineExceeded(t *testing.T) {
	cat := imdbCatalog(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	e := New(cat)
	_, err := e.RunContext(ctx, guardPlan(), GBU)
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	var ge *GuardError
	if !errors.As(err, &ge) || ge.Limit != LimitDeadline {
		t.Fatalf("err = %#v, want *GuardError{Limit: deadline}", err)
	}
}

// cancelAfterRegistry returns a scoring registry with a cancelafter(x)
// function that cancels ctx after n evaluations — a deterministic way to
// cancel a query in the middle of its prefer pipeline.
func cancelAfterRegistry(t *testing.T, cancel context.CancelFunc, n int64) *expr.Registry {
	t.Helper()
	reg := pref.Functions()
	var calls atomic.Int64
	if err := reg.Register(&expr.Func{
		Name: "cancelafter", MinArgs: 1, MaxArgs: 1, Kind: types.KindFloat,
		Eval: func(a []types.Value) types.Value {
			if calls.Add(1) == n {
				cancel()
			}
			return types.Float(0.5)
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestMidQueryCancellation cancels the context from inside the scoring
// function, after the pipeline is already streaming rows: the query must
// abort with ErrCanceled rather than run to completion.
func TestMidQueryCancellation(t *testing.T) {
	cat := imdbCatalog(t)
	plan := &algebra.Prefer{
		P: pref.New("cancel", "movies", expr.TrueLiteral(),
			expr.Call{Name: "cancelafter", Args: []expr.Node{expr.ColRef("year")}}, 0.9),
		Input: &algebra.Scan{Table: "movies"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := New(cat)
	e.Funcs = cancelAfterRegistry(t, cancel, 100)
	_, err := e.RunContext(ctx, plan, Native)
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestCancellationLatency asserts the acceptance bound: a query canceled
// mid-flight returns within 100ms of the cancel.
func TestCancellationLatency(t *testing.T) {
	cat := imdbCatalog(t)
	for _, strategy := range Strategies() {
		ctx, cancel := context.WithCancel(context.Background())
		e := New(cat)
		done := make(chan error, 1)
		go func() {
			_, err := e.RunContext(ctx, guardPlan(), strategy)
			done <- err
		}()
		time.Sleep(2 * time.Millisecond) // let the pipeline start
		start := time.Now()
		cancel()
		select {
		case err := <-done:
			// Completing before observing the cancel is legal on a fast
			// machine; only an error must be the canceled kind.
			if err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("%v: err = %v", strategy, err)
			}
			if lat := time.Since(start); lat > 100*time.Millisecond {
				t.Fatalf("%v: returned %v after cancel, want <100ms", strategy, lat)
			}
		case <-time.After(time.Second):
			t.Fatalf("%v: query did not return within 1s of cancel", strategy)
		}
	}
}

// TestResourceLimits asserts each budget trips with ErrResourceExhausted
// and a GuardError identifying the limit, its budget and the overshoot.
func TestResourceLimits(t *testing.T) {
	cat := imdbCatalog(t)
	cases := []struct {
		name   string
		limits Limits
		kind   LimitKind
		budget int64
	}{
		{"max-rows", Limits{MaxRows: 500}, LimitRows, 500},
		{"max-cells", Limits{MaxCells: 2000}, LimitCells, 2000},
		{"memory-budget", Limits{MemoryBudget: 32 << 10}, LimitMemory, 32 << 10},
	}
	for _, tc := range cases {
		label := tc.name
		e := New(cat)
		e.Limits = tc.limits
		_, err := e.RunContext(context.Background(), guardPlan(), GBU)
		if !errors.Is(err, ErrResourceExhausted) {
			t.Fatalf("%s: err = %v, want ErrResourceExhausted", label, err)
		}
		var ge *GuardError
		if !errors.As(err, &ge) {
			t.Fatalf("%s: err = %T, want *GuardError", label, err)
		}
		if ge.Limit != tc.kind || ge.Budget != tc.budget || ge.Observed <= ge.Budget {
			t.Fatalf("%s: GuardError = %+v, want limit %s observed > %d", label, ge, tc.kind, tc.budget)
		}
		if ge.Stats == (Stats{}) {
			t.Fatalf("%s: GuardError carries no partial stats", label)
		}
	}
}

// TestGuardedNoTripIsByteIdentical asserts the zero-cost contract: running
// under a live context with generous limits yields exactly the relation,
// row order and Stats of the legacy unguarded Run.
func TestGuardedNoTripIsByteIdentical(t *testing.T) {
	cat := imdbCatalog(t)
	for name, plan := range planShapes() {
		for _, strategy := range Strategies() {
			label := fmt.Sprintf("%s %v", name, strategy)
			ref := New(cat)
			want, err := ref.Run(plan, strategy)
			if err != nil {
				t.Fatalf("%s unguarded: %v", label, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			e := New(cat)
			e.Limits = Limits{MaxRows: 1 << 30, MaxCells: 1 << 40, MemoryBudget: 1 << 50}
			got, err := e.RunContext(ctx, plan, strategy)
			cancel()
			if err != nil {
				t.Fatalf("%s guarded: %v", label, err)
			}
			mustIdentical(t, want, got, label)
			if ref.Stats() != e.Stats() {
				t.Fatalf("%s: stats %+v, want %+v", label, e.Stats(), ref.Stats())
			}
		}
	}
}

// TestCancellationLeaksNoGoroutines runs many canceled queries and asserts
// the goroutine count settles back to the baseline: the executor runs on
// the caller's goroutine and leaves nothing behind when canceled.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	cat := imdbCatalog(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		e := New(cat)
		if i%2 == 0 {
			cancel() // pre-canceled: the query must not even start work
		} else {
			// prefdb:fire-and-forget bounded delayed cancel; the test polls NumGoroutine back to baseline below
			go func() {
				time.Sleep(time.Duration(i) * 100 * time.Microsecond)
				cancel()
			}()
		}
		_, err := e.RunContext(ctx, guardPlan(), GBU)
		cancel()
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
	}
	// The test's own delayed-cancel goroutines exit asynchronously; poll
	// briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after canceled queries",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGuardErrorShape pins the error formatting and the WrapContextErr
// bridge used by engine layers.
func TestGuardErrorShape(t *testing.T) {
	ge := &GuardError{Limit: LimitRows, Budget: 10, Observed: 12,
		sentinel: ErrResourceExhausted, Stats: Stats{TuplesMaterialized: 12}}
	if s := ge.Error(); s == "" || !errors.Is(ge, ErrResourceExhausted) {
		t.Fatalf("GuardError = %q, Is(ErrResourceExhausted) = %v", s, errors.Is(ge, ErrResourceExhausted))
	}
	if err := WrapContextErr(nil); err != nil {
		t.Fatalf("WrapContextErr(nil) = %v", err)
	}
	plain := errors.New("boom")
	if err := WrapContextErr(plain); err != plain {
		t.Fatalf("WrapContextErr(plain) = %v", err)
	}
	if err := WrapContextErr(context.Canceled); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("WrapContextErr(Canceled) = %v", err)
	}
	if err := WrapContextErr(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("WrapContextErr(DeadlineExceeded) = %v", err)
	}
}
