// Query lifecycle: cooperative cancellation and per-query resource guards.
//
// Every query execution can be bound to a context.Context and a Limits
// budget. The executor polls both cooperatively in its hot loops —
// amortized (every guardInterval streamed rows / every guardStep
// materialized rows) so the fast path pays a single predictable branch.
// When the context is canceled, its deadline passes, or a budget is
// exceeded, the query fails fast with a typed *GuardError wrapping one of
// the sentinel errors below plus the execution Stats at failure; no
// partial rows are observable by the caller.
//
// An executor with no context and no limits (the zero configuration, used
// by Run and by all pre-existing call sites) skips every check: results,
// order and Stats are byte-identical to the unguarded executor.
package exec

import (
	"context"
	"errors"
	"fmt"

	"prefdb/internal/debug"
)

// Sentinel errors for query-lifecycle failures; match them with errors.Is.
// The concrete error returned is always a *GuardError, which also unwraps
// to the underlying context error (context.Canceled /
// context.DeadlineExceeded) when a context caused the failure.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = errors.New("exec: query canceled")
	// ErrDeadlineExceeded reports that the query's deadline passed.
	ErrDeadlineExceeded = errors.New("exec: query deadline exceeded")
	// ErrResourceExhausted reports that a per-query resource budget
	// (rows, cells or estimated memory) was exceeded.
	ErrResourceExhausted = errors.New("exec: query resource budget exhausted")
)

// Limits bounds a single query execution. The zero value imposes no
// bounds. Counters accumulate across the whole query (all strategies and
// all materialization points), not per operator.
type Limits struct {
	// MaxRows caps the tuples materialized by the query (intermediate
	// relations included); 0 means unlimited.
	MaxRows int
	// MaxCells caps the attribute values materialized (rows × width);
	// 0 means unlimited.
	MaxCells int
	// MemoryBudget caps the estimated bytes of materialized state,
	// computed as cells × BytesPerCell; 0 means unlimited.
	MemoryBudget int64
}

// active reports whether any bound is set.
func (l Limits) active() bool {
	return l.MaxRows > 0 || l.MaxCells > 0 || l.MemoryBudget > 0
}

// BytesPerCell is the per-value cost estimate used by the memory guard:
// a types.Value header plus an amortized share of tuple-slice and string
// payload overhead.
const BytesPerCell = 24

// LimitKind names the guard that tripped a query.
type LimitKind string

// Guard identifiers carried by GuardError.Limit.
const (
	LimitCanceled LimitKind = "canceled"
	LimitDeadline LimitKind = "deadline"
	LimitRows     LimitKind = "max-rows"
	LimitCells    LimitKind = "max-cells"
	LimitMemory   LimitKind = "memory-budget"
)

// GuardError is the structured failure of a guarded query: which limit
// tripped, the budget and the observed value (for resource limits), and
// the execution Stats at the moment the failure surfaced. It unwraps to
// the matching sentinel (ErrCanceled, ErrDeadlineExceeded,
// ErrResourceExhausted) and, for context failures, to the context error.
type GuardError struct {
	// Limit identifies the tripped guard.
	Limit LimitKind
	// Budget and Observed describe resource trips (0 for cancellation).
	Budget, Observed int64
	// Stats holds the execution counters at failure (partial work).
	Stats Stats

	sentinel error
	cause    error
}

// Error implements the error interface.
func (g *GuardError) Error() string {
	switch g.Limit {
	case LimitCanceled, LimitDeadline:
		return fmt.Sprintf("%v (%s)", g.sentinel, g.Stats)
	default:
		return fmt.Sprintf("%v: %s %d exceeds budget %d (%s)",
			g.sentinel, g.Limit, g.Observed, g.Budget, g.Stats)
	}
}

// Unwrap exposes the sentinel and (when present) the causing context
// error, so errors.Is(err, ErrCanceled) and errors.Is(err,
// context.Canceled) both hold.
func (g *GuardError) Unwrap() []error {
	if g.cause != nil {
		return []error{g.sentinel, g.cause}
	}
	return []error{g.sentinel}
}

// NewGuardError reconstructs a guard failure from its serialized parts.
// The network client uses it to rebuild server-side trips from error
// frames, so errors.Is(err, ErrCanceled) / errors.As(&GuardError{})
// contracts hold across the wire exactly as they do embedded.
func NewGuardError(kind LimitKind, budget, observed int64, stats Stats) *GuardError {
	sentinel := ErrResourceExhausted
	switch kind {
	case LimitCanceled:
		sentinel = ErrCanceled
	case LimitDeadline:
		sentinel = ErrDeadlineExceeded
	}
	return &GuardError{Limit: kind, Budget: budget, Observed: observed, Stats: stats, sentinel: sentinel}
}

// WrapContextErr converts a context error observed outside the executor
// (planner, optimizer) into the same *GuardError shape the executor
// produces, so callers handle one error type. Non-context errors pass
// through unchanged; nil stays nil.
func WrapContextErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return &GuardError{Limit: LimitDeadline, sentinel: ErrDeadlineExceeded, cause: err}
	case errors.Is(err, context.Canceled):
		return &GuardError{Limit: LimitCanceled, sentinel: ErrCanceled, cause: err}
	default:
		return err
	}
}

// Amortization constants: streaming iterators poll the guard every
// guardInterval rows; materialization loops flush their row/cell counts
// every guardStep rows. Both keep the per-row fast path branch-cheap
// while bounding the reaction latency to well under the 100ms target for
// any realistic row-processing rate.
const (
	guardInterval = 1024
	guardStep     = 256
)

// guard is the lifecycle state of one query execution, owned by the
// query's goroutine. A nil *guard disables every check (every method is
// nil-safe), which is the state of an executor that was never armed with
// a context or limits.
type guard struct {
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), nil when the ctx can never cancel

	limits Limits

	rows, cells int64
	err         *GuardError // the first trip; nil while the query runs
}

// arm installs the query's context and limits on the executor, replacing
// any previous guard state. Engine layers call it (directly or through
// RunContext) once per query; executors that never arm run unguarded.
func (e *Executor) arm(ctx context.Context, limits Limits) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &guard{ctx: ctx, done: ctx.Done(), limits: limits}
	if g.done == nil && !limits.active() {
		e.gd = nil // nothing can trip: keep the zero-cost path
		return
	}
	e.gd = g
}

// Begin arms the executor for a guarded run driven by external code (the
// plug-in runner path): subsequent Materialize/Evaluate calls observe ctx
// and the executor's Limits. Pair it with GuardErr.
func (e *Executor) Begin(ctx context.Context) { e.arm(ctx, e.Limits) }

// GuardErr returns the guard failure of the current run (nil if no guard
// tripped), with the executor's Stats at surfacing time filled in.
func (e *Executor) GuardErr() error {
	if ge := e.gd.failure(); ge != nil {
		ge.Stats = e.stats
		return ge
	}
	return nil
}

// failure returns a copy of the trip error, or nil.
func (g *guard) failure() *GuardError {
	if g == nil || g.err == nil {
		return nil
	}
	cp := *g.err
	return &cp
}

// trip records the first failure; later trips keep the original error.
// It returns the winning error.
func (g *guard) trip(ge *GuardError) *GuardError {
	if g.err == nil {
		g.err = ge
	}
	return g.err
}

// poll checks cancellation and deadline (not budgets); it returns the
// trip error when the query must stop. Called amortized from hot loops.
func (g *guard) poll() error {
	if g == nil {
		return nil
	}
	if g.err != nil {
		return g.failure()
	}
	if g.done == nil {
		return nil
	}
	select {
	case <-g.done:
		err := g.ctx.Err()
		kind, sentinel := LimitCanceled, ErrCanceled
		if errors.Is(err, context.DeadlineExceeded) {
			kind, sentinel = LimitDeadline, ErrDeadlineExceeded
		}
		return g.trip(&GuardError{Limit: kind, sentinel: sentinel, cause: err})
	default:
		return nil
	}
}

// add charges rows materialized tuples and cells materialized values
// against the budgets, then polls cancellation. It returns the trip error
// when the query must stop.
func (g *guard) add(rows, cells int) error {
	if g == nil {
		return nil
	}
	debug.Assertf(rows >= 0 && cells >= 0,
		"guard charged a negative amount (%d rows, %d cells); a tick counter underflowed", rows, cells)
	g.rows += int64(rows)
	g.cells += int64(cells)
	r, c, l := g.rows, g.cells, g.limits
	switch {
	case l.MaxRows > 0 && r > int64(l.MaxRows):
		return g.trip(&GuardError{Limit: LimitRows, Budget: int64(l.MaxRows), Observed: r,
			sentinel: ErrResourceExhausted})
	case l.MaxCells > 0 && c > int64(l.MaxCells):
		return g.trip(&GuardError{Limit: LimitCells, Budget: int64(l.MaxCells), Observed: c,
			sentinel: ErrResourceExhausted})
	case l.MemoryBudget > 0 && c*BytesPerCell > l.MemoryBudget:
		return g.trip(&GuardError{Limit: LimitMemory, Budget: l.MemoryBudget, Observed: c * BytesPerCell,
			sentinel: ErrResourceExhausted})
	}
	return g.poll()
}

// pollTick is the amortized cancellation check embedded in streaming
// iterators: a local countdown so the common case is one integer
// decrement, polling the guard every guardInterval rows.
type pollTick struct {
	g *guard
	n int
}

// stop reports whether the pipeline must abort.
func (t *pollTick) stop() bool {
	if t.g == nil {
		return false
	}
	if t.n++; t.n < guardInterval {
		return false
	}
	t.n = 0
	return t.g.poll() != nil
}

// stopN is the batch-granular tick: it advances the countdown by n rows at
// once so vectorized kernels poll with the same amortized frequency as
// per-row loops (stop) while paying a single branch per batch.
func (t *pollTick) stopN(n int) bool {
	if t.g == nil {
		return false
	}
	if t.n += n; t.n < guardInterval {
		return false
	}
	t.n = 0
	return t.g.poll() != nil
}

// matTick is the amortized materialization meter used by loops that build
// relations: it charges the guard every guardStep rows.
type matTick struct {
	g       *guard
	width   int // cells per row charged
	pending int
}

// row records one materialized row; it returns the trip error when the
// query must stop.
func (t *matTick) row() error {
	if t.g == nil {
		return nil
	}
	if t.pending++; t.pending < guardStep {
		return nil
	}
	n := t.pending
	t.pending = 0
	return t.g.add(n, n*t.width)
}

// rows records n materialized rows at once (batch materialization); it
// returns the trip error when the query must stop.
func (t *matTick) rows(n int) error {
	if t.g == nil || n == 0 {
		return nil
	}
	if t.pending += n; t.pending < guardStep {
		return nil
	}
	m := t.pending
	t.pending = 0
	return t.g.add(m, m*t.width)
}

// flush charges any remainder below the amortization step.
func (t *matTick) flush() error {
	if t.g == nil || t.pending == 0 {
		return nil
	}
	n := t.pending
	t.pending = 0
	return t.g.add(n, n*t.width)
}
