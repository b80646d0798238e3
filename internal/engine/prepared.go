package engine

import (
	"context"

	"prefdb/internal/algebra"
	"prefdb/internal/planner"
)

// Prepared is a planned and optimized preferential query that can be
// executed repeatedly without re-parsing, re-planning or re-optimizing.
// Preparing pays the compilation cost once; Run only executes.
//
// A prepared query is bound to the database state at preparation time only
// loosely: plans reference tables by name, so inserted rows are visible to
// later runs, but schema changes (new tables/columns) require re-preparing.
//
// A Prepared is safe for concurrent RunContext/StreamContext calls: every
// run builds its own executor; the plan and its compiled expressions are
// read-only.
type Prepared struct {
	db *DB
	// plan holds the baseline plan (used by the plug-in modes, which by
	// definition cannot use the preference-aware optimizer).
	plan *planner.Plan
	// optimized is the optimizer's output (equal to plan.Root when the
	// optimizer is disabled at preparation time).
	optimized algebra.Node
	// defaults are the owning session's default options (nil for
	// statements prepared directly on the DB); per-run options override
	// them, completing the Open < session < query precedence chain.
	defaults []QueryOption
}

// Prepare parses, plans and (if enabled) optimizes a query for repeated
// execution.
func (db *DB) Prepare(sql string) (*Prepared, error) {
	return db.prepareWith(sql, nil)
}

// prepareWith is Prepare carrying session default options.
func (db *DB) prepareWith(sql string, defaults []QueryOption) (*Prepared, error) {
	plan, err := db.pl.PlanQuery(sql)
	if err != nil {
		return nil, err
	}
	optimized := plan.Root
	if db.Optimize {
		optimized = db.opt.Optimize(plan.Root)
	}
	return &Prepared{db: db, plan: plan, optimized: optimized, defaults: defaults}, nil
}

// Run executes the prepared query with the given mode; it is RunContext
// under context.Background with WithMode.
//
// Deprecated: use RunContext with WithMode, which adds cancellation,
// deadlines and per-query options. Run remains as a thin wrapper and will
// not be removed.
func (p *Prepared) Run(mode Mode) (*Result, error) {
	return p.RunContext(context.Background(), WithMode(mode))
}

// RunContext executes the prepared query under ctx and the given options
// (mode, timeout, resource budgets). The plan is not re-planned
// or re-optimized; only execution is guarded. See DB.ExecContext for the
// error contract.
func (p *Prepared) RunContext(ctx context.Context, opts ...QueryOption) (*Result, error) {
	cfg := p.db.queryConfig(layered(p.defaults, opts))
	return p.db.runPlan(ctx, &cfg, p.plan, p.optimized)
}

// StreamContext executes the prepared query under ctx and the given
// options, returning a streaming result instead of a materialized one;
// see Session.StreamContext for the streaming contract.
func (p *Prepared) StreamContext(ctx context.Context, opts ...QueryOption) (Rows, error) {
	cfg := p.db.queryConfig(layered(p.defaults, opts))
	return p.db.streamPlan(ctx, &cfg, p.plan, p.optimized)
}

// Plan returns the optimized plan in explain format.
func (p *Prepared) Plan() string { return algebra.Format(p.optimized) }

// Close releases the prepared statement. For the embedded engine it is a
// no-op (plans are garbage collected); it exists so embedded and remote
// prepared statements share one interface — the network client's Close
// deallocates the server-side statement.
func (p *Prepared) Close() error { return nil }
