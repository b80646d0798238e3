// Package engine is prefdb's top-level façade: it owns a catalog, parses
// SQL statements (including the PREFERRING dialect), plans and optimizes
// preferential queries, and executes them with a chosen evaluation mode
// (native, BU, GBU, FtP, or one of the plug-in baselines).
package engine

import (
	"context"
	"fmt"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/exec"
	"prefdb/internal/expr"
	"prefdb/internal/optimizer"
	"prefdb/internal/parser"
	"prefdb/internal/planner"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// Mode selects the query evaluation strategy.
type Mode uint8

const (
	// ModeGBU is the default: Group Bottom-Up (Alg. 2).
	ModeGBU Mode = iota
	// ModeBU executes operator-at-a-time (the paper's BU).
	ModeBU
	// ModeFtP is Filter-then-Prefer (Alg. 1).
	ModeFtP
	// ModeNative runs the whole extended plan in one pipeline.
	ModeNative
	// ModePluginNaive is the plug-in baseline with one query per preference.
	ModePluginNaive
	// ModePluginMerged is the plug-in baseline with one disjunctive query.
	ModePluginMerged
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeGBU:
		return "gbu"
	case ModeBU:
		return "bu"
	case ModeFtP:
		return "ftp"
	case ModeNative:
		return "native"
	case ModePluginNaive:
		return "plugin-naive"
	case ModePluginMerged:
		return "plugin-merged"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// DB is a prefdb database instance. A DB is safe for concurrent use; for
// per-user or per-connection defaults, derive Session handles with
// NewSession instead of mutating the exported default fields after Open.
type DB struct {
	cat *catalog.Catalog
	pl  *planner.Planner
	opt *optimizer.Optimizer

	// Mode is the default evaluation strategy for Query.
	Mode Mode
	// Optimize toggles the preference-aware query optimizer.
	Optimize bool
}

// Open creates an empty database. Options override the defaults (GBU
// strategy, optimizer on).
func Open(opts ...OpenOption) *DB {
	return openWith(catalog.New(), opts...)
}

// Catalog exposes the underlying catalog (for loaders and benchmarks).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Optimizer exposes the preference-aware optimizer so benchmarks can toggle
// individual heuristics (ablation experiments).
func (db *DB) Optimizer() *optimizer.Optimizer { return db.opt }

// Result is the answer to a statement.
type Result struct {
	// Rel is the result p-relation (nil for DDL/DML).
	Rel *prel.PRelation
	// Stats holds the execution counters for queries.
	Stats exec.Stats
	// Plan is the executed (optimized) logical plan, for EXPLAIN-style use.
	Plan string
	// Message describes the effect of DDL/DML statements.
	Message string
}

// Columns returns the result header including the score and confidence
// attributes of the p-relation.
func (r *Result) Columns() []string {
	if r.Rel == nil {
		return nil
	}
	return header(r.Rel.Schema)
}

// header lists a p-relation's columns: its attributes, then score and conf.
func header(s *schema.Schema) []string {
	out := make([]string, 0, s.Len()+2)
	for _, c := range s.Columns {
		out = append(out, c.QualifiedName())
	}
	return append(out, "score", "conf")
}

// Exec parses and executes any statement (DDL, DML or query) with the
// database defaults and no cancellation; it is ExecContext under
// context.Background.
//
// Deprecated: use ExecContext (or a Session from NewSession), which adds
// cancellation, deadlines and per-query options. Exec remains as a thin
// wrapper and will not be removed.
func (db *DB) Exec(sql string) (*Result, error) {
	return db.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes any statement (DDL, DML or query)
// under ctx and the given per-query options. Queries observe
// cancellation, deadlines and resource budgets cooperatively (see
// exec.Limits); DDL/DML statements check ctx before running. Lifecycle
// failures return a *exec.GuardError matching exec.ErrCanceled,
// exec.ErrDeadlineExceeded or exec.ErrResourceExhausted via errors.Is.
func (db *DB) ExecContext(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if s, ok := stmt.(*parser.SelectStmt); ok {
		return db.runSelect(ctx, s, opts...)
	}
	// DDL/DML statements are short and atomic: honor an already-canceled
	// context, but do not interrupt them midway.
	if err := ctx.Err(); err != nil {
		return nil, exec.WrapContextErr(err)
	}
	switch s := stmt.(type) {
	case *parser.CreateTableStmt:
		return db.createTable(s)
	case *parser.CreateIndexStmt:
		return db.createIndex(s)
	case *parser.InsertStmt:
		return db.insert(ctx, s, opts...)
	case *parser.DeleteStmt:
		return db.delete(s)
	case *parser.UpdateStmt:
		return db.update(s)
	case *parser.ExplainStmt:
		return db.explain(s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// Query parses, plans and executes a preferential query with the given
// mode and no cancellation; it is QueryContext under context.Background
// with WithMode.
//
// Deprecated: use QueryContext with WithMode (or a Session from
// NewSession), which adds cancellation, deadlines and per-query options.
// Query remains as a thin wrapper and will not be removed.
func (db *DB) Query(sql string, mode Mode) (*Result, error) {
	return db.QueryContext(context.Background(), sql, WithMode(mode))
}

// QueryContext parses, plans and executes a preferential query under ctx
// and the given options (mode, timeout, resource budgets); see
// ExecContext for the error contract.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return db.runSelect(ctx, q, opts...)
}

// QueryPlan plans (and optionally optimizes) a query without executing it.
func (db *DB) QueryPlan(sql string) (*planner.Plan, error) {
	plan, err := db.pl.PlanQuery(sql)
	if err != nil {
		return nil, err
	}
	if db.Optimize {
		plan.Root = db.opt.Optimize(plan.Root)
	}
	return plan, nil
}

func (db *DB) runSelect(ctx context.Context, q *parser.SelectStmt, opts ...QueryOption) (*Result, error) {
	cfg := db.queryConfig(opts)
	plan, err := db.planSelect(q, &cfg)
	if err != nil {
		return nil, err
	}
	return db.runPlan(ctx, &cfg, plan, nil)
}

// planSelect plans a parsed query, injecting the configuration's bound
// profile preferences (WithProfile / session bindings) when present.
func (db *DB) planSelect(q *parser.SelectStmt, cfg *queryConfig) (*planner.Plan, error) {
	if ps := cfg.profilePreferences(); len(ps) > 0 {
		return db.pl.PlanWithPreferences(q, ps)
	}
	return db.pl.Plan(q)
}

// RunPlanContext executes an already-built plan under ctx and the given
// options, applying the optimizer when enabled and trimming the result to
// the user-requested columns. A WithTimeout option wraps ctx in a
// deadline for the duration of the execution.
func (db *DB) RunPlanContext(ctx context.Context, plan *planner.Plan, opts ...QueryOption) (*Result, error) {
	cfg := db.queryConfig(opts)
	return db.runPlan(ctx, &cfg, plan, nil)
}

// runPlan is the one materialized run path of RunPlanContext, runSelect,
// the session entry points and prepared statements: under cfg's timeout
// it optimizes plan (unless prepared, a prepared statement's optimized
// root, is given), evaluates it on a fresh executor and trims the result
// to the user's columns.
func (db *DB) runPlan(ctx context.Context, cfg *queryConfig, plan *planner.Plan, prepared algebra.Node) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	root, err := db.optimizeRoot(ctx, plan, prepared)
	if err != nil {
		return nil, err
	}
	ex := db.executorFor(cfg, plan.Agg)
	rel, err := db.runMaterialized(ctx, ex, cfg, plan.Root, root)
	if err != nil {
		return nil, err
	}
	trimmed, err := trimResult(rel, plan)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: trimmed, Stats: ex.Stats(), Plan: algebra.Format(root)}, nil
}

// optimizeRoot returns the plan root to execute: prepared when non-nil
// (already optimized), else plan's root, optimized under ctx when the
// optimizer is enabled.
func (db *DB) optimizeRoot(ctx context.Context, plan *planner.Plan, prepared algebra.Node) (algebra.Node, error) {
	if prepared != nil {
		return prepared, nil
	}
	if !db.Optimize {
		return plan.Root, nil
	}
	root, err := db.opt.OptimizeContext(ctx, plan.Root)
	if err != nil {
		return nil, exec.WrapContextErr(err)
	}
	return root, nil
}

// executorFor builds an executor configured for one query resolution.
func (db *DB) executorFor(cfg *queryConfig, agg pref.Aggregate) *exec.Executor {
	ex := exec.New(db.cat)
	ex.Agg = agg
	ex.Limits = cfg.limits
	return ex
}

// runMaterialized evaluates a plan to a materialized p-relation under the
// resolved configuration. baseline is the non-optimized root the plug-in
// modes require (the preference-aware optimizer is precisely what a
// plug-in cannot use); root is the optimized root for the strategies.
func (db *DB) runMaterialized(ctx context.Context, ex *exec.Executor, cfg *queryConfig, baseline, root algebra.Node) (*prel.PRelation, error) {
	switch cfg.mode {
	case ModePluginNaive, ModePluginMerged:
		// Begin arms the executor's guard so every query the runner
		// delegates observes ctx and the budgets; GuardErr surfaces a trip
		// with the Stats at failure.
		ex.Begin(ctx)
		runner := &pluginRunner{exec: ex, merged: cfg.mode == ModePluginMerged}
		rel, err := runner.run(baseline)
		if gErr := ex.GuardErr(); gErr != nil {
			return nil, gErr
		}
		return rel, err
	default:
		strategy, sErr := execStrategy(cfg.mode)
		if sErr != nil {
			return nil, sErr
		}
		return ex.RunContext(ctx, root, strategy)
	}
}

func execStrategy(mode Mode) (exec.Strategy, error) {
	switch mode {
	case ModeNative:
		return exec.Native, nil
	case ModeBU:
		return exec.BU, nil
	case ModeGBU:
		return exec.GBU, nil
	case ModeFtP:
		return exec.FtP, nil
	default:
		return 0, fmt.Errorf("engine: mode %v is not an executor strategy", mode)
	}
}

// outputOrds resolves the plan's output columns against s; nil means they
// are s's columns in order, so the result needs no trim.
func outputOrds(plan *planner.Plan, s *schema.Schema) ([]int, error) {
	ords, err := plan.TrimToOutput(s)
	if err != nil || len(ords) != s.Len() {
		return ords, err
	}
	for i, o := range ords {
		if o != i {
			return ords, nil
		}
	}
	return nil, nil
}

// trimResult trims rel to the plan's output columns.
func trimResult(rel *prel.PRelation, plan *planner.Plan) (*prel.PRelation, error) {
	ords, err := outputOrds(plan, rel.Schema)
	if err != nil || ords == nil {
		return rel, err
	}
	// One exactly sized row slice, and every tuple carved from one backing
	// array (capped, so no tuple can grow into its neighbour).
	w := len(ords)
	out := &prel.PRelation{Schema: rel.Schema.Project(ords), Rows: make([]prel.Row, len(rel.Rows))}
	cells := make([]types.Value, len(rel.Rows)*w)
	for r, row := range rel.Rows {
		tuple := cells[r*w : (r+1)*w : (r+1)*w]
		for i, o := range ords {
			tuple[i] = row.Tuple[o]
		}
		out.Rows[r] = prel.Row{Tuple: tuple, SC: row.SC}
	}
	return out, nil
}

// --- DDL / DML ---

func (db *DB) createTable(s *parser.CreateTableStmt) (*Result, error) {
	cols := make([]schema.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = schema.Column{Name: c.Name, Kind: c.Kind}
	}
	sch := schema.New(cols...)
	if len(s.Key) > 0 {
		for _, k := range s.Key {
			if _, err := sch.IndexOf("", k); err != nil {
				return nil, fmt.Errorf("engine: PRIMARY KEY column %q not in table", k)
			}
		}
		sch.WithKey(s.Key...)
	}
	if _, err := db.cat.CreateTable(s.Name, sch); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created table %s (%d columns)", s.Name, len(cols))}, nil
}

func (db *DB) createIndex(s *parser.CreateIndexStmt) (*Result, error) {
	var err error
	kind := "hash"
	if s.BTree {
		kind = "btree"
		err = db.cat.CreateBTreeIndex(s.Table, s.Col)
	} else {
		err = db.cat.CreateHashIndex(s.Table, s.Col)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created %s index on %s(%s)", kind, s.Table, s.Col)}, nil
}

func (db *DB) insert(ctx context.Context, s *parser.InsertStmt, opts ...QueryOption) (*Result, error) {
	t, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	sch := t.Schema()
	if s.Query != nil {
		return db.insertSelect(ctx, t, s, opts...)
	}
	for ri, row := range s.Rows {
		if len(row) != sch.Len() {
			return nil, fmt.Errorf("engine: row %d has %d values, table %s has %d columns", ri+1, len(row), s.Table, sch.Len())
		}
		coerced := make([]types.Value, len(row))
		for i, v := range row {
			cv, err := coerce(v, sch.Columns[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("engine: row %d column %s: %w", ri+1, sch.Columns[i].Name, err)
			}
			coerced[i] = cv
		}
		if err := t.Insert(coerced); err != nil {
			return nil, err
		}
	}
	return &Result{Message: fmt.Sprintf("inserted %d rows into %s", len(s.Rows), s.Table)}, nil
}

func (db *DB) delete(s *parser.DeleteStmt) (*Result, error) {
	t, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	pred := func([]types.Value) bool { return true }
	if s.Where != nil {
		cond, err := expr.CompileCondition(s.Where, t.Schema(), db.pl.Funcs)
		if err != nil {
			return nil, err
		}
		pred = cond.Truthy
	}
	n := t.DeleteWhere(pred)
	return &Result{Message: fmt.Sprintf("deleted %d rows from %s", n, s.Table)}, nil
}

func (db *DB) update(s *parser.UpdateStmt) (*Result, error) {
	t, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	sch := t.Schema()
	pred := func([]types.Value) bool { return true }
	if s.Where != nil {
		cond, err := expr.CompileCondition(s.Where, sch, db.pl.Funcs)
		if err != nil {
			return nil, err
		}
		pred = cond.Truthy
	}
	type setter struct {
		ord  int
		kind types.Kind
		eval *expr.Compiled
	}
	setters := make([]setter, len(s.Set))
	for i, a := range s.Set {
		ord, err := sch.IndexOf("", a.Col)
		if err != nil {
			return nil, err
		}
		c, err := expr.Compile(a.Expr, sch, db.pl.Funcs)
		if err != nil {
			return nil, err
		}
		setters[i] = setter{ord: ord, kind: sch.Columns[ord].Kind, eval: c}
	}
	n, err := t.UpdateWhere(pred, func(tuple []types.Value) ([]types.Value, error) {
		out := append([]types.Value(nil), tuple...)
		for _, st := range setters {
			v, cErr := coerce(st.eval.Eval(tuple), st.kind)
			if cErr != nil {
				return nil, fmt.Errorf("engine: column %s: %w", sch.Columns[st.ord].Name, cErr)
			}
			out[st.ord] = v
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("updated %d rows in %s", n, s.Table)}, nil
}

// insertSelect materializes a query and inserts its tuples into the target
// table (score-confidence pairs are dropped: base tables hold data; scores
// are query-dependent, as §VI argues against storing them permanently).
func (db *DB) insertSelect(ctx context.Context, t *catalog.Table, s *parser.InsertStmt, opts ...QueryOption) (*Result, error) {
	res, err := db.runSelect(ctx, s.Query, opts...)
	if err != nil {
		return nil, err
	}
	sch := t.Schema()
	if res.Rel.Schema.Len() != sch.Len() {
		return nil, fmt.Errorf("engine: INSERT SELECT yields %d columns, table %s has %d",
			res.Rel.Schema.Len(), s.Table, sch.Len())
	}
	// Validate and coerce everything before mutating (atomicity).
	coercedRows := make([][]types.Value, 0, res.Rel.Len())
	for ri, row := range res.Rel.Rows {
		coerced := make([]types.Value, len(row.Tuple))
		for i, v := range row.Tuple {
			cv, err := coerce(v, sch.Columns[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("engine: row %d column %s: %w", ri+1, sch.Columns[i].Name, err)
			}
			coerced[i] = cv
		}
		coercedRows = append(coercedRows, coerced)
	}
	for _, row := range coercedRows {
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return &Result{Message: fmt.Sprintf("inserted %d rows into %s", len(coercedRows), s.Table)}, nil
}

// explain plans and optimizes a query without executing it.
func (db *DB) explain(s *parser.ExplainStmt) (*Result, error) {
	plan, err := db.pl.Plan(s.Query)
	if err != nil {
		return nil, err
	}
	root := plan.Root
	if db.Optimize {
		root = db.opt.Optimize(root)
	}
	return &Result{Message: "plan:\n" + algebra.Format(root), Plan: algebra.Format(root)}, nil
}

// coerce converts a literal to the declared column kind where lossless.
func coerce(v types.Value, kind types.Kind) (types.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	switch {
	case kind == types.KindFloat && v.Kind() == types.KindInt:
		return types.Float(float64(v.AsInt())), nil
	case kind == types.KindInt && v.Kind() == types.KindFloat:
		f := v.AsFloat()
		if f == float64(int64(f)) {
			return types.Int(int64(f)), nil
		}
		return types.Value{}, fmt.Errorf("value %v is not an integer", v)
	default:
		return types.Value{}, fmt.Errorf("cannot store %s value in %s column", v.Kind(), kind)
	}
}

// --- plug-in bridge (avoids exposing internal/plugin in the public API) ---

type pluginRunner struct {
	exec   *exec.Executor
	merged bool
}

// run defers to internal/plugin through a tiny indirection set in init by
// the plugin bridge file.
func (p *pluginRunner) run(plan algebra.Node) (*prel.PRelation, error) {
	return runPlugin(p.exec, p.merged, plan)
}

// Aggregates re-exports the aggregate registry for callers configuring
// queries programmatically.
func Aggregates() []string { return pref.AggregateNames() }

// Functions exposes the scoring-function registry (for docs and REPL help).
func Functions() *expr.Registry { return pref.Functions() }
