// Session-centric front end (the paper's multi-user model, §V): a Session
// is a lightweight handle on a shared DB carrying per-session defaults —
// evaluation mode, cache/colstore styles, guard budgets,
// and optionally a bound user profile. Options resolve through the
// precedence chain
//
//	Open defaults  <  session defaults  <  per-query options
//
// so an embedded caller, the network server (one Session per connection)
// and the wire client all share one configuration model. Sessions also
// carry the streaming entry point (StreamContext) the server uses to ship
// result batches without materializing whole results.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"prefdb/internal/algebra"
	"prefdb/internal/exec"
	"prefdb/internal/parser"
	"prefdb/internal/planner"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// ErrSessionClosed reports use of a closed session.
var ErrSessionClosed = fmt.Errorf("engine: session is closed")

// Session is a per-user/per-connection handle on a DB. Create one with
// DB.NewSession; the zero value is not usable. A Session is safe for
// concurrent use — concurrent queries on one session each run their own
// executor — and any number of sessions may share one DB.
type Session struct {
	db       *DB
	defaults []QueryOption

	closed atomic.Bool // prefdb:atomic

	mu sync.Mutex
	// queries counts statements the session has run, for introspection.
	queries uint64 // prefdb:guarded-by mu
}

// NewSession derives a session whose defaults are the given options
// layered over the database's Open defaults. The defaults apply to every
// statement the session runs unless a per-query option overrides them:
//
//	db := engine.Open(engine.WithDefaultMode(engine.ModeGBU))
//	s := db.NewSession(engine.WithMode(engine.ModeBU), engine.WithMaxRows(1e6))
//	res, err := s.QueryContext(ctx, sql, engine.WithMode(engine.ModeFtP)) // FtP wins
//
// Bind a user's preference profile with WithProfile to make the session
// the paper's per-user query interface.
func (db *DB) NewSession(defaults ...QueryOption) *Session {
	return &Session{db: db, defaults: defaults}
}

// DB returns the underlying database.
func (s *Session) DB() *DB { return s.db }

// Defaults reports which options the session's defaults set and their
// values (the session layer of the precedence chain).
func (s *Session) Defaults() Settings { return CollectSettings(s.defaults...) }

// Queries returns how many statements the session has started, for
// monitoring (the server's slow-query log labels entries with it).
func (s *Session) Queries() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// Close marks the session closed; subsequent statements fail with
// ErrSessionClosed. Close never interrupts statements already running —
// cancel their contexts for that — and is idempotent.
func (s *Session) Close() error {
	s.closed.Store(true)
	return nil
}

// begin checks liveness and counts the statement.
func (s *Session) begin() error {
	if s.closed.Load() {
		return ErrSessionClosed
	}
	s.mu.Lock()
	s.queries++
	s.mu.Unlock()
	return nil
}

// config resolves per-query options through the session's precedence
// chain.
func (s *Session) config(opts []QueryOption) queryConfig {
	return s.db.queryConfig(layered(s.defaults, opts))
}

// layered prefixes defaults onto per-query options; queryConfig applies
// options in order, so the per-query ones win.
func layered(defaults, opts []QueryOption) []QueryOption {
	if len(defaults) == 0 {
		return opts
	}
	merged := make([]QueryOption, 0, len(defaults)+len(opts))
	merged = append(merged, defaults...)
	return append(merged, opts...)
}

// ExecContext parses and executes any statement (DDL, DML or query) under
// ctx, the session defaults and the per-query options; see DB.ExecContext
// for the error contract.
func (s *Session) ExecContext(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	return s.db.ExecContext(ctx, sql, layered(s.defaults, opts)...)
}

// QueryContext parses, plans and executes a preferential query under ctx,
// the session defaults and the per-query options, returning the
// materialized result; see DB.ExecContext for the error contract.
func (s *Session) QueryContext(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	return s.db.QueryContext(ctx, sql, layered(s.defaults, opts)...)
}

// Prepare plans and optimizes a query for repeated execution under the
// session's defaults (per-run options still override them).
func (s *Session) Prepare(sql string) (*Prepared, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	return s.db.prepareWith(sql, s.defaults)
}

// --- streaming ---

// Rows is a streaming statement result: rows are pulled one at a time so
// large result sets never materialize in the serving layer. Both the
// embedded engine and the network client implement it, which is what lets
// prefdb.Dial return the same session surface as DB.NewSession.
//
// Usage:
//
//	rows, err := sess.StreamContext(ctx, sql)
//	...
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row()) // valid only until the next call to Next
//	}
//	err = rows.Err()
//
// For DDL/DML statements the stream yields no rows and Message reports
// the effect. Stats and Plan are complete only after the stream is
// drained (Next returned false) or closed.
type Rows interface {
	// Next advances to the next row, reporting false at exhaustion or
	// failure (check Err).
	Next() bool
	// Row returns the current row; it is valid only until the next call
	// to Next (storage is reused) — copy the tuple to keep it.
	Row() prel.Row
	// Columns returns the result header including the score and
	// confidence attributes (nil for DDL/DML).
	Columns() []string
	// Schema returns the result relation's schema (nil for DDL/DML); the
	// serving layer uses it to describe results without materializing
	// them.
	Schema() *schema.Schema
	// Err returns the error that terminated the stream, if any.
	Err() error
	// Close releases the stream early; it is idempotent and returns Err.
	Close() error
	// Stats returns the execution counters accumulated so far; after a
	// full drain they equal the materialized path's Stats.
	Stats() exec.Stats
	// Plan returns the executed plan in explain format ("" for DDL/DML).
	Plan() string
	// Message describes the effect of DDL/DML statements ("" for
	// queries).
	Message() string
}

// StreamContext parses and executes any statement under ctx, the session
// defaults and the per-query options, returning a streaming result. For
// queries the Native strategy streams its pipeline end-to-end without
// materializing the result relation; the materializing strategies (BU,
// GBU, FtP — whose semantics are operator-at-a-time materialization) run
// to completion and stream their final relation without an extra copy.
// DDL/DML statements execute eagerly and return an empty stream carrying
// the effect Message. The lifecycle and error contract match
// QueryContext; a fully drained stream reports identical Stats.
func (s *Session) StreamContext(ctx context.Context, sql string, opts ...QueryOption) (Rows, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, isQuery := stmt.(*parser.SelectStmt)
	if !isQuery {
		res, execErr := s.db.ExecContext(ctx, sql, layered(s.defaults, opts)...)
		if execErr != nil {
			return nil, execErr
		}
		return &materialRows{res: res}, nil
	}

	cfg := s.config(opts)
	plan, err := s.db.planSelect(q, &cfg)
	if err != nil {
		return nil, err
	}
	return s.db.streamPlan(ctx, &cfg, plan, nil)
}

// streamPlan starts a streaming evaluation of plan under cfg and the
// per-query timeout, which the stream holds until it ends. prepared is
// a prepared statement's optimized root (nil to optimize here). The
// plug-in modes have no pipeline to stream — they are orchestrations of
// whole queries — so they run through runPlan and stream the result.
func (db *DB) streamPlan(ctx context.Context, cfg *queryConfig, plan *planner.Plan, prepared algebra.Node) (_ Rows, err error) {
	if cfg.mode == ModePluginNaive || cfg.mode == ModePluginMerged {
		res, err := db.runPlan(ctx, cfg, plan, prepared)
		if err != nil {
			return nil, err
		}
		return &materialRows{res: res}, nil
	}
	strategy, err := execStrategy(cfg.mode)
	if err != nil {
		return nil, err
	}
	ctx, cancel := cfg.streamContext(ctx)
	defer func() {
		if err != nil {
			cancel()
		}
	}()
	root, err := db.optimizeRoot(ctx, plan, prepared)
	if err != nil {
		return nil, err
	}
	ex := db.executorFor(cfg, plan.Agg, prepared != nil)
	st, err := ex.StreamContext(ctx, root, strategy)
	if err != nil {
		return nil, err
	}
	r := &streamRows{ex: ex, st: st, cancel: cancel, plan: algebra.Format(root), sch: st.Schema()}
	if r.ords, err = outputOrds(plan, r.sch); err != nil {
		st.Close()
		return nil, err
	}
	if r.ords != nil {
		r.sch = r.sch.Project(r.ords)
	}
	return r, nil
}

// streamContext derives a stream's context from ctx (Background when
// nil), bounded by the configured per-query timeout. The returned cancel
// must be called when the stream ends (streamRows.Close does) so timer
// resources are released.
func (c *queryConfig) streamContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return context.WithCancel(ctx)
}

// streamRows adapts an exec.RowStream into the Rows interface, applying
// the plan's output-column trim per row instead of materializing a
// trimmed relation.
type streamRows struct {
	ex     *exec.Executor
	st     *exec.RowStream
	cancel context.CancelFunc
	plan   string

	ords   []int // output ordinals; nil passes rows through untouched
	sch    *schema.Schema
	buf    []types.Value // reused scratch tuple for projected rows
	cur    prel.Row
	closed bool
}

// Next implements Rows.
func (r *streamRows) Next() bool {
	if r.closed {
		return false
	}
	if !r.st.Next() {
		r.close()
		return false
	}
	row := r.st.Row()
	if r.ords == nil {
		r.cur = row
		return true
	}
	// Project into a reused scratch tuple: the Rows contract already says
	// the row is valid only until the next call to Next.
	if r.buf == nil {
		r.buf = make([]types.Value, len(r.ords))
	}
	for i, o := range r.ords {
		r.buf[i] = row.Tuple[o]
	}
	r.cur = prel.Row{Tuple: r.buf, SC: row.SC}
	return true
}

// Row implements Rows.
func (r *streamRows) Row() prel.Row { return r.cur }

// Columns implements Rows.
func (r *streamRows) Columns() []string { return header(r.sch) }

// Schema implements Rows.
func (r *streamRows) Schema() *schema.Schema { return r.sch }

// Err implements Rows.
func (r *streamRows) Err() error { return r.st.Err() }

// Close implements Rows.
func (r *streamRows) Close() error {
	r.close()
	return r.st.Err()
}

func (r *streamRows) close() {
	if r.closed {
		return
	}
	r.closed = true
	r.st.Close()
	if r.cancel != nil {
		r.cancel()
	}
}

// Stats implements Rows.
func (r *streamRows) Stats() exec.Stats { return r.ex.Stats() }

// Plan implements Rows.
func (r *streamRows) Plan() string { return r.plan }

// Message implements Rows.
func (r *streamRows) Message() string { return "" }

// materialRows adapts a materialized Result into the Rows interface
// (DDL/DML statements and the plug-in modes).
type materialRows struct {
	res    *Result
	pos    int
	cur    prel.Row
	closed bool
}

// Next implements Rows.
func (m *materialRows) Next() bool {
	if m.closed || m.res.Rel == nil || m.pos >= m.res.Rel.Len() {
		return false
	}
	m.cur = m.res.Rel.Rows[m.pos]
	m.pos++
	return true
}

// Row implements Rows.
func (m *materialRows) Row() prel.Row { return m.cur }

// Columns implements Rows.
func (m *materialRows) Columns() []string { return m.res.Columns() }

// Schema implements Rows.
func (m *materialRows) Schema() *schema.Schema {
	if m.res.Rel == nil {
		return nil
	}
	return m.res.Rel.Schema
}

// Err implements Rows.
func (m *materialRows) Err() error { return nil }

// Close implements Rows.
func (m *materialRows) Close() error {
	m.closed = true
	return nil
}

// Stats implements Rows.
func (m *materialRows) Stats() exec.Stats { return m.res.Stats }

// Plan implements Rows.
func (m *materialRows) Plan() string { return m.res.Plan }

// Message implements Rows.
func (m *materialRows) Message() string { return m.res.Message }
