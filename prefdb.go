// Package prefdb is a preference-aware relational database engine in pure
// Go, reproducing "Towards Preference-aware Relational Databases"
// (Arvanitis & Koutrika, ICDE 2012).
//
// prefdb extends a small relational engine with the paper's preference
// framework: tuples carry score-confidence pairs (p-relations), queries
// embed preference triples (condition, scoring function, confidence)
// through a PREFERRING clause, and a prefer operator λ evaluates them
// inside the query plan. Preference evaluation is separate from tuple
// filtering (top-k, confidence thresholds, skylines, ranking), and queries
// can be executed with the paper's strategies — Bottom-Up, Group Bottom-Up
// and Filter-then-Prefer — or with plug-in baselines for comparison.
//
// Quick start:
//
//	db := prefdb.Open()
//	db.ExecContext(ctx, `CREATE TABLE movies (m_id INT, title TEXT, year INT, PRIMARY KEY (m_id))`)
//	db.ExecContext(ctx, `INSERT INTO movies VALUES (1, 'Gran Torino', 2008)`)
//	res, err := db.QueryContext(ctx, `
//	    SELECT title FROM movies
//	    PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
//	    TOP 10 BY score`,
//	    prefdb.WithTimeout(time.Second), prefdb.WithMaxRows(100_000))
//
// Queries run under a context.Context with optional per-query budgets
// (wall-clock, materialized rows/cells, estimated memory); lifecycle
// failures match ErrCanceled, ErrDeadlineExceeded and ErrResourceExhausted
// via errors.Is and carry the execution Stats at failure.
//
// # Sessions
//
// Multi-user applications work through sessions: NewSession derives a
// handle carrying per-session defaults (evaluation mode, budgets,
// a bound user profile), and any number of sessions share one DB. Options
// resolve through the precedence chain
//
//	Open defaults < session defaults < per-query options
//
// The same Session interface is served remotely: run cmd/prefdbserver and
// connect with Dial — embedded and networked callers are interchangeable.
// StreamContext returns results row-by-row so large result sets never
// materialize in the serving layer:
//
//	sess := prefdb.NewSession(db, prefdb.WithMode(prefdb.ModeBU))
//	rows, err := sess.StreamContext(ctx, sql)
//	...
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row()) // valid only until the next Next
//	}
//	err = rows.Err()
//
// See the examples directory for complete programs and EXPERIMENTS.md for
// the reproduction of the paper's evaluation.
package prefdb

import (
	"context"
	"io"
	"time"

	"prefdb/internal/catalog"
	"prefdb/internal/datagen"
	"prefdb/internal/engine"
	"prefdb/internal/exec"
	"prefdb/internal/parser"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/profile"
	"prefdb/internal/qualitative"
	"prefdb/internal/types"
	"prefdb/internal/wire"
)

// DB is a prefdb database instance; create one with Open.
type DB = engine.DB

// Result is the answer to a statement: a p-relation plus execution stats.
type Result = engine.Result

// Mode selects the query evaluation strategy.
type Mode = engine.Mode

// Evaluation strategies (§VI-B of the paper) and plug-in baselines.
const (
	// ModeGBU is Group Bottom-Up, the paper's best strategy (default).
	ModeGBU = engine.ModeGBU
	// ModeBU is the operator-at-a-time Bottom-Up strategy.
	ModeBU = engine.ModeBU
	// ModeFtP is Filter-then-Prefer.
	ModeFtP = engine.ModeFtP
	// ModeNative runs the extended plan as one pipeline.
	ModeNative = engine.ModeNative
	// ModePluginNaive issues one conventional query per preference.
	ModePluginNaive = engine.ModePluginNaive
	// ModePluginMerged issues a single disjunctive conventional query.
	ModePluginMerged = engine.ModePluginMerged
)

// PRelation is a materialized preference-aware relation.
type PRelation = prel.PRelation

// Row is one tuple with its score-confidence pair.
type Row = prel.Row

// SC is a score-confidence pair ⟨S, C⟩; the zero value is ⟨⊥, 0⟩.
type SC = types.SC

// Value is a relational scalar (NULL, INT, FLOAT, TEXT or BOOL).
type Value = types.Value

// Stats counts execution cost drivers (materialized tuples, native calls,
// index probes, prefer evaluations).
type Stats = exec.Stats

// DatagenConfig parameterizes the synthetic dataset generators.
type DatagenConfig = datagen.Config

// Open creates an empty in-memory database with the GBU strategy and the
// preference-aware optimizer enabled; options override the defaults.
func Open(opts ...OpenOption) *DB { return engine.Open(opts...) }

// --- sessions ---

// Rows is a streaming statement result: rows arrive one at a time, so
// large result sets never materialize in the serving layer. Returned by
// Session.StreamContext and Stmt.StreamContext on both the embedded and
// the network paths.
type Rows = engine.Rows

// Session is a per-user (or per-connection) query handle carrying default
// options; both the embedded engine (NewSession) and the network client
// (Dial) implement it, so application code is agnostic to where the
// database runs. Sessions are safe for concurrent use.
type Session interface {
	// ExecContext executes any statement (DDL, DML or query).
	ExecContext(ctx context.Context, sql string, opts ...QueryOption) (*Result, error)
	// QueryContext executes a preferential query, materializing the result.
	QueryContext(ctx context.Context, sql string, opts ...QueryOption) (*Result, error)
	// StreamContext executes any statement, streaming result rows.
	StreamContext(ctx context.Context, sql string, opts ...QueryOption) (Rows, error)
	// Prepare compiles a query for repeated execution under the session
	// defaults.
	Prepare(sql string) (Stmt, error)
	// Close releases the session; running statements are not interrupted
	// (cancel their contexts for that).
	Close() error
}

// Stmt is a prepared statement usable for repeated execution; per-run
// options override the owning session's defaults.
type Stmt interface {
	// RunContext executes the statement, materializing the result.
	RunContext(ctx context.Context, opts ...QueryOption) (*Result, error)
	// StreamContext executes the statement, streaming result rows.
	StreamContext(ctx context.Context, opts ...QueryOption) (Rows, error)
	// Close releases the statement (server-side state for remote sessions).
	Close() error
}

// ErrSessionClosed reports use of a closed session.
var ErrSessionClosed = engine.ErrSessionClosed

// NewSession derives an embedded session on db whose defaults layer over
// the Open defaults; per-query options override both:
//
//	Open defaults < session defaults < per-query options
func NewSession(db *DB, defaults ...QueryOption) Session {
	return localSession{db.NewSession(defaults...)}
}

// localSession adapts *engine.Session to the Session interface (Go has no
// covariant returns, so Prepare needs a shim from *Prepared to Stmt).
type localSession struct {
	*engine.Session
}

func (s localSession) Prepare(sql string) (Stmt, error) {
	p, err := s.Session.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// DialOption configures a network session (Dial).
type DialOption = wire.DialOption

// WithToken authenticates the connection against a server started with an
// auth token.
func WithToken(token string) DialOption { return wire.WithToken(token) }

// WithSessionDefaults sets the remote session's default options — the
// session layer of the precedence chain, exactly as NewSession's
// arguments are for an embedded session.
func WithSessionDefaults(opts ...QueryOption) DialOption {
	return wire.WithSessionDefaults(opts...)
}

// Dial connects to a prefdb server (cmd/prefdbserver) and returns a
// network-backed Session: the same interface NewSession returns embedded,
// with identical results, options, precedence and error structure
// (lifecycle failures still match ErrCanceled etc. and carry their
// GuardError). WithProfile is the one embedded-only option — profiles
// live with the application, not the server.
//
// One statement is in flight per connection at a time; concurrent calls
// serialize. Open one connection per concurrent statement (the server
// multiplexes sessions cheaply). Canceling a statement's context cancels
// it server-side mid-query.
func Dial(addr string, opts ...DialOption) (Session, error) {
	c, err := wire.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	return remoteSession{c}, nil
}

// remoteSession adapts *wire.Client to the Session interface.
type remoteSession struct {
	*wire.Client
}

func (s remoteSession) Prepare(sql string) (Stmt, error) {
	p, err := s.Client.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// --- query lifecycle: options and sentinel errors ---

// QueryOption configures a single query execution on the context-aware
// entry points (DB.ExecContext, DB.QueryContext, Prepared.RunContext).
type QueryOption = engine.QueryOption

// OpenOption configures a database at Open or Load time, replacing direct
// struct-field pokes on DB.
type OpenOption = engine.OpenOption

// WithMode selects the evaluation strategy for one query, overriding the
// database default.
func WithMode(m Mode) QueryOption { return engine.WithMode(m) }

// WithTimeout bounds one query's wall-clock time; expiry fails the query
// with ErrDeadlineExceeded.
func WithTimeout(d time.Duration) QueryOption { return engine.WithTimeout(d) }

// WithWorkers is kept so existing callers compile.
//
// Deprecated: has no effect; every query runs on one goroutine.
func WithWorkers(n int) QueryOption { return engine.WithWorkers(n) }

// WithMaxRows caps the tuples one query may materialize (intermediate
// relations included); exceeding it fails with ErrResourceExhausted.
func WithMaxRows(n int) QueryOption { return engine.WithMaxRows(n) }

// WithMaxCells caps the attribute values (rows × width) one query may
// materialize; exceeding it fails with ErrResourceExhausted.
func WithMaxCells(n int) QueryOption { return engine.WithMaxCells(n) }

// WithMemoryBudget caps one query's estimated materialized bytes;
// exceeding it fails with ErrResourceExhausted.
func WithMemoryBudget(bytes int64) QueryOption { return engine.WithMemoryBudget(bytes) }

// WithProfile integrates the user's applicable profile preferences into
// the query. As a session default it makes the session the paper's
// per-user interface: every query runs under that user's profile.
// Embedded-only: remote sessions reject it, since profiles live with the
// application, not the server.
func WithProfile(store *ProfileStore, user string, contexts ...string) QueryOption {
	return engine.WithProfile(store, user, contexts...)
}

// ColstoreMode is kept so existing callers compile.
//
// Deprecated: has no effect; a table is columnar once
// Catalog().Table(name) has been compacted by its ColStore method.
type ColstoreMode uint8

// ColstoreOn is kept so existing callers compile.
//
// Deprecated: has no effect; see ColstoreMode.
const ColstoreOn ColstoreMode = 1

// WithDefaultMode sets the database's default evaluation strategy.
func WithDefaultMode(m Mode) OpenOption { return engine.WithDefaultMode(m) }

// WithOptimizer toggles the preference-aware query optimizer (on by
// default).
func WithOptimizer(enabled bool) OpenOption { return engine.WithOptimizer(enabled) }

// WithDefaultColstore is kept so existing callers compile.
//
// Deprecated: has no effect; see ColstoreMode.
func WithDefaultColstore(ColstoreMode) OpenOption { return func(*engine.DB) {} }

// Sentinel errors returned (wrapped in a *GuardError) when a query's
// lifecycle guard trips; match them with errors.Is. Context-caused
// failures also match context.Canceled / context.DeadlineExceeded.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadlineExceeded reports that the query's deadline passed.
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
	// ErrResourceExhausted reports that a per-query budget (rows, cells,
	// memory) was exceeded.
	ErrResourceExhausted = exec.ErrResourceExhausted
)

// GuardError is the structured lifecycle failure: the tripped limit, the
// budget and observed value, and the execution Stats at failure. Retrieve
// it with errors.As.
type GuardError = exec.GuardError

// ParseMode resolves an evaluation mode by name ("gbu", "ftp",
// "plugin-naive", ...).
func ParseMode(name string) (Mode, error) { return engine.ParseMode(name) }

// Modes lists every evaluation mode.
func Modes() []Mode { return engine.Modes() }

// LoadIMDB populates db with the synthetic movie dataset (schema of the
// paper's Fig. 1) and returns per-table sizes.
func LoadIMDB(db *DB, cfg DatagenConfig) (map[string]int, error) {
	return loadInto(db.Catalog(), cfg, datagen.LoadIMDB)
}

// LoadDBLP populates db with the synthetic bibliography dataset (schema of
// the paper's Fig. 8) and returns per-table sizes.
func LoadDBLP(db *DB, cfg DatagenConfig) (map[string]int, error) {
	return loadInto(db.Catalog(), cfg, datagen.LoadDBLP)
}

func loadInto(cat *catalog.Catalog, cfg datagen.Config, load func(*catalog.Catalog, datagen.Config) (datagen.Sizes, error)) (map[string]int, error) {
	sizes, err := load(cat, cfg)
	if err != nil {
		return nil, err
	}
	return map[string]int(sizes), nil
}

// Int, Float, Str and Bool build values for programmatic row handling.
func Int(v int64) Value     { return types.Int(v) }
func Float(v float64) Value { return types.Float(v) }
func Str(v string) Value    { return types.Str(v) }
func Bool(v bool) Value     { return types.Bool(v) }

// Null returns the NULL value.
func Null() Value { return types.Null() }

// Preference is a preference triple (σ_φ, S, C): conditional part, scoring
// part and confidence (Definition 1 of the paper).
type Preference = pref.Preference

// ProfileStore is a per-user preference repository; applications register
// collected preferences and a query under WithProfile integrates the
// applicable ones automatically.
type ProfileStore = profile.Store

// NewProfileStore returns an empty preference repository.
func NewProfileStore() *ProfileStore { return profile.NewStore() }

// ParsePreference parses a preference in the PREFERRING clause syntax,
// e.g. "genre = 'Comedy' SCORE 1 CONF 0.8 ON genres AS comedies".
func ParsePreference(clause string) (Preference, error) {
	pc, err := parser.ParsePreference(clause)
	if err != nil {
		return Preference{}, err
	}
	p := Preference{Name: pc.Name, On: pc.On, Cond: pc.Cond, Score: pc.Score, Conf: pc.Conf}
	if err := p.Validate(); err != nil {
		return Preference{}, err
	}
	return p, nil
}

// Save serializes db (schemas, keys, indexes, rows) to w; restore with
// Load.
func Save(db *DB, w io.Writer) error { return db.Save(w) }

// Load restores a database previously written by Save; options apply as
// in Open.
func Load(r io.Reader, opts ...OpenOption) (*DB, error) { return engine.Load(r, opts...) }

// QualitativeOrder builds qualitative preference relations ("Comedy is
// preferred over Drama") and compiles them into the quantitative triples
// of the paper's model — scores decrease with depth in the partial order.
type QualitativeOrder = qualitative.Order

// NewQualitativeOrder starts an empty qualitative preference relation over
// one attribute of one relation; add statements with Prefer/Chain and turn
// it into preferences with Compile.
func NewQualitativeOrder(relation, attr string) *QualitativeOrder {
	return qualitative.NewOrder(relation, attr)
}
