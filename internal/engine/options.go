package engine

import (
	"time"

	"prefdb/internal/exec"
	"prefdb/internal/pref"
	"prefdb/internal/profile"
)

// QueryOption configures one query execution (ExecContext, QueryContext,
// RunPlanContext, Prepared.RunContext) or — passed to NewSession — a
// session's defaults. Options not given fall back through the precedence
// chain Open defaults < session defaults < per-query options; resource
// guards default to "unbounded".
type QueryOption func(*queryConfig)

// optMask records which options were explicitly given, so layered
// resolution (database → session → query) can tell an untouched field
// from one deliberately set to its zero value, and so the wire protocol
// ships only the options the caller actually chose.
type optMask uint16

const (
	optMode optMask = 1 << iota
	optTimeout
	optMaxRows
	optMaxCells
	optMemory
	optProfile
)

// profileBinding attaches a per-user preference profile: queries plan with
// the user's context-active preferences injected after the query's own
// PREFERRING clauses (§V's automatic integration).
type profileBinding struct {
	store    *profile.Store
	user     string
	contexts []string
}

// queryConfig is the resolved per-query configuration.
type queryConfig struct {
	mode    Mode
	timeout time.Duration
	limits  exec.Limits
	prof    *profileBinding

	set optMask
}

// queryConfig resolves the options against the database defaults.
func (db *DB) queryConfig(opts []QueryOption) queryConfig {
	cfg := queryConfig{mode: db.Mode}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMode selects the evaluation strategy for this query, overriding the
// database default.
func WithMode(m Mode) QueryOption {
	return func(c *queryConfig) { c.mode = m; c.set |= optMode }
}

// WithTimeout bounds the query's wall-clock time: the execution context
// is wrapped in context.WithTimeout and expiry surfaces as
// ErrDeadlineExceeded. Non-positive d means no extra deadline (a deadline
// already on the caller's context still applies).
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.timeout = d; c.set |= optTimeout }
}

// WithWorkers is kept so existing callers compile.
//
// Deprecated: has no effect; every query runs on one goroutine.
func WithWorkers(n int) QueryOption {
	return func(*queryConfig) {}
}

// WithMaxRows caps the tuples the query may materialize (intermediate
// relations included); exceeding it fails the query with
// ErrResourceExhausted. 0 means unlimited.
func WithMaxRows(n int) QueryOption {
	return func(c *queryConfig) { c.limits.MaxRows = n; c.set |= optMaxRows }
}

// WithMaxCells caps the attribute values (rows × width) the query may
// materialize; exceeding it fails with ErrResourceExhausted. 0 means
// unlimited.
func WithMaxCells(n int) QueryOption {
	return func(c *queryConfig) { c.limits.MaxCells = n; c.set |= optMaxCells }
}

// WithMemoryBudget caps the query's estimated materialized bytes
// (cells × exec.BytesPerCell); exceeding it fails with
// ErrResourceExhausted. 0 means unlimited.
func WithMemoryBudget(bytes int64) QueryOption {
	return func(c *queryConfig) { c.limits.MemoryBudget = bytes; c.set |= optMemory }
}

// WithProfile binds a per-user preference profile: queries plan with the
// user's context-active preferences from store injected after the query's
// own PREFERRING clauses (§V's automatic integration). Typically given as
// a session default (NewSession), making the session the per-user handle
// of the paper's multi-user model. Profile bindings are resolved locally
// at plan time and do not travel over a network connection.
func WithProfile(store *profile.Store, user string, contexts ...string) QueryOption {
	return func(c *queryConfig) {
		c.prof = &profileBinding{store: store, user: user, contexts: contexts}
		c.set |= optProfile
	}
}

// profilePreferences resolves the bound profile into the preferences to
// inject at plan time (nil without a binding).
func (c *queryConfig) profilePreferences() []pref.Preference {
	if c.prof == nil || c.prof.store == nil {
		return nil
	}
	return c.prof.store.PreferencesInContext(c.prof.user, c.prof.contexts...)
}

// Settings is the explicit, inspectable form of an option list: for every
// per-query option, whether it was given and with what value. It is the
// session/wire currency — CollectSettings flattens options into Settings,
// Options turns Settings back into the equivalent option list — and is
// what the network protocol serializes, so a remote session resolves the
// same precedence chain as an embedded one.
//
// Profile bindings (WithProfile) are deliberately not representable:
// they reference a live in-process profile.Store and stay local.
type Settings struct {
	HasMode bool
	Mode    Mode

	HasTimeout bool
	Timeout    time.Duration

	HasMaxRows bool
	MaxRows    int

	HasMaxCells bool
	MaxCells    int

	HasMemoryBudget bool
	MemoryBudget    int64

	// HasProfile reports that a WithProfile option was present. Settings
	// cannot carry the binding itself; network clients use this to reject
	// the option with a clear error instead of silently dropping it.
	HasProfile bool
}

// CollectSettings applies opts to an empty configuration and reports which
// options were given and their values.
func CollectSettings(opts ...QueryOption) Settings {
	var c queryConfig
	for _, o := range opts {
		o(&c)
	}
	return Settings{
		HasMode: c.set&optMode != 0, Mode: c.mode,
		HasTimeout: c.set&optTimeout != 0, Timeout: c.timeout,
		HasMaxRows: c.set&optMaxRows != 0, MaxRows: c.limits.MaxRows,
		HasMaxCells: c.set&optMaxCells != 0, MaxCells: c.limits.MaxCells,
		HasMemoryBudget: c.set&optMemory != 0, MemoryBudget: c.limits.MemoryBudget,
		HasProfile: c.set&optProfile != 0,
	}
}

// Options converts the settings back into the equivalent option list,
// preserving which options were explicitly given. Profile bindings do not
// survive the Settings round trip (see HasProfile).
func (s Settings) Options() []QueryOption {
	var opts []QueryOption
	if s.HasMode {
		opts = append(opts, WithMode(s.Mode))
	}
	if s.HasTimeout {
		opts = append(opts, WithTimeout(s.Timeout))
	}
	if s.HasMaxRows {
		opts = append(opts, WithMaxRows(s.MaxRows))
	}
	if s.HasMaxCells {
		opts = append(opts, WithMaxCells(s.MaxCells))
	}
	if s.HasMemoryBudget {
		opts = append(opts, WithMemoryBudget(s.MemoryBudget))
	}
	return opts
}

// OpenOption configures a database at Open (or Load) time, replacing
// direct struct-field pokes on DB.
type OpenOption func(*DB)

// WithDefaultMode sets the default evaluation strategy used by Exec and
// by queries that pass no WithMode option.
func WithDefaultMode(m Mode) OpenOption {
	return func(db *DB) { db.Mode = m }
}

// WithOptimizer toggles the preference-aware query optimizer (enabled by
// default).
func WithOptimizer(enabled bool) OpenOption {
	return func(db *DB) { db.Optimize = enabled }
}
