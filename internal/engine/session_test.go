package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"prefdb/internal/exec"
	"prefdb/internal/prel"
	"prefdb/internal/profile"
	"prefdb/internal/types"
)

// TestOptionPrecedence pins the documented resolution chain for every
// per-query option: Open defaults < session defaults < per-query options.
// A "winning" value is deliberately the type's zero value (ModeGBU) so
// the test fails if resolution ever regresses to zero-value comparison
// instead of explicit-set tracking.
func TestOptionPrecedence(t *testing.T) {
	storeA, storeB := profile.NewStore(), profile.NewStore()
	cases := []struct {
		name     string
		openSet  func(*DB) // nil: the option has no Open-level knob (zero default)
		sessOpt  QueryOption
		queryOpt QueryOption
		get      func(queryConfig) any
		open     any // resolved value with no session/query option
		sess     any // resolved value with only the session default
		query    any // resolved value with both layers present
	}{
		{
			name:    "mode",
			openSet: func(db *DB) { db.Mode = ModeBU },
			sessOpt: WithMode(ModeFtP), queryOpt: WithMode(ModeGBU),
			get:  func(c queryConfig) any { return c.mode },
			open: ModeBU, sess: ModeFtP, query: ModeGBU,
		},
		{
			name:    "timeout",
			sessOpt: WithTimeout(time.Minute), queryOpt: WithTimeout(time.Hour),
			get:  func(c queryConfig) any { return c.timeout },
			open: time.Duration(0), sess: time.Minute, query: time.Hour,
		},
		{
			name:    "max-rows",
			sessOpt: WithMaxRows(10), queryOpt: WithMaxRows(20),
			get:  func(c queryConfig) any { return c.limits.MaxRows },
			open: 0, sess: 10, query: 20,
		},
		{
			name:    "max-cells",
			sessOpt: WithMaxCells(100), queryOpt: WithMaxCells(200),
			get:  func(c queryConfig) any { return c.limits.MaxCells },
			open: 0, sess: 100, query: 200,
		},
		{
			name:    "memory-budget",
			sessOpt: WithMemoryBudget(1 << 20), queryOpt: WithMemoryBudget(2 << 20),
			get:  func(c queryConfig) any { return c.limits.MemoryBudget },
			open: int64(0), sess: int64(1 << 20), query: int64(2 << 20),
		},
		{
			name:    "profile",
			sessOpt: WithProfile(storeA, "alice"), queryOpt: WithProfile(storeB, "bob"),
			get: func(c queryConfig) any {
				if c.prof == nil {
					return ""
				}
				return c.prof.user
			},
			open: "", sess: "alice", query: "bob",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := Open()
			if tc.openSet != nil {
				tc.openSet(db)
			}
			if got := tc.get(db.NewSession().config(nil)); got != tc.open {
				t.Errorf("open layer: got %v, want %v", got, tc.open)
			}
			if got := tc.get(db.NewSession(tc.sessOpt).config(nil)); got != tc.sess {
				t.Errorf("session layer: got %v, want %v", got, tc.sess)
			}
			got := tc.get(db.NewSession(tc.sessOpt).config([]QueryOption{tc.queryOpt}))
			if got != tc.query {
				t.Errorf("query layer: got %v, want %v", got, tc.query)
			}
		})
	}
}

// TestSettingsRoundTrip checks CollectSettings ↔ Options: an option list
// survives flattening to Settings and back with identical resolution.
func TestSettingsRoundTrip(t *testing.T) {
	opts := []QueryOption{
		WithMode(ModeNative), WithTimeout(time.Second),
		WithMaxRows(7), WithMaxCells(8), WithMemoryBudget(9),
	}
	s := CollectSettings(opts...)
	back := CollectSettings(s.Options()...)
	if s != back {
		t.Fatalf("settings did not survive the round trip:\n  first  %+v\n  second %+v", s, back)
	}
	if CollectSettings() != (Settings{}) {
		t.Fatal("empty option list reports explicit settings")
	}
	// The deprecated WithWorkers shim sets nothing, so it cannot travel.
	if s := CollectSettings(WithWorkers(4)); s != (Settings{}) {
		t.Fatalf("WithWorkers(4) reports settings %+v, want none", s)
	}
	p := CollectSettings(WithProfile(profile.NewStore(), "u"))
	if !p.HasProfile {
		t.Fatal("WithProfile not reported in Settings")
	}
	if len(p.Options()) != 0 {
		t.Fatal("profile binding must not survive the Settings round trip")
	}
}

const sessionTestQuery = `
	SELECT title, year FROM movies
	PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
	RANK BY score`

// TestStreamMatchesQuery is the streaming-parity contract: for every
// evaluation mode, a drained StreamContext yields the same columns, rows
// and execution Stats as the materialized QueryContext. The workers arms
// pass the deprecated no-op WithWorkers and pin that it changes nothing;
// they go with the shim.
func TestStreamMatchesQuery(t *testing.T) {
	modes := []Mode{ModeNative, ModeBU, ModeGBU, ModeFtP, ModePluginNaive, ModePluginMerged}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", mode, workers), func(t *testing.T) {
				db := setupDB(t)
				sess := db.NewSession(WithMode(mode), WithWorkers(workers))

				res, err := sess.QueryContext(context.Background(), sessionTestQuery)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := sess.StreamContext(context.Background(), sessionTestQuery)
				if err != nil {
					t.Fatal(err)
				}
				var streamed []prel.Row
				for rows.Next() {
					row := rows.Row()
					tuple := make([]types.Value, len(row.Tuple))
					copy(tuple, row.Tuple)
					streamed = append(streamed, prel.Row{Tuple: tuple, SC: row.SC})
				}
				if err := rows.Err(); err != nil {
					t.Fatal(err)
				}
				if err := rows.Close(); err != nil {
					t.Fatal(err)
				}

				if got, want := rows.Columns(), res.Columns(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("columns: stream %v, query %v", got, want)
				}
				if len(streamed) != res.Rel.Len() {
					t.Fatalf("row count: stream %d, query %d", len(streamed), res.Rel.Len())
				}
				for i, row := range streamed {
					want := res.Rel.Rows[i]
					if len(row.Tuple) != len(want.Tuple) {
						t.Fatalf("row %d width: stream %d, query %d", i, len(row.Tuple), len(want.Tuple))
					}
					for j := range row.Tuple {
						if !row.Tuple[j].Equal(want.Tuple[j]) {
							t.Fatalf("row %d col %d: stream %v, query %v", i, j, row.Tuple[j], want.Tuple[j])
						}
					}
					if !row.SC.ApproxEqual(want.SC, 1e-9) {
						t.Fatalf("row %d SC: stream %v, query %v", i, row.SC, want.SC)
					}
				}
				if rows.Stats() != res.Stats {
					t.Fatalf("stats diverge:\n  stream %+v\n  query  %+v", rows.Stats(), res.Stats)
				}
				if rows.Plan() != res.Plan {
					t.Fatalf("plan diverges:\n  stream %s\n  query  %s", rows.Plan(), res.Plan)
				}
			})
		}
	}
}

// TestStreamEmptyResult pins that a query matching nothing streams zero
// rows under every evaluation mode, including the materializing
// strategies, whose stream then serves an empty relation.
func TestStreamEmptyResult(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeBU, ModeGBU, ModeFtP, ModePluginNaive} {
		sess := setupDB(t).NewSession(WithMode(mode))
		rows, err := sess.StreamContext(context.Background(), `SELECT title FROM movies WHERE year > 3000
			PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies`)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for rows.Next() {
			t.Fatalf("%v: streamed a row of an empty result", mode)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

// TestStreamDDLAndDML checks the non-query streaming shape: no rows, nil
// schema, and the effect message.
func TestStreamDDLAndDML(t *testing.T) {
	db := Open()
	sess := db.NewSession()
	rows, err := sess.StreamContext(context.Background(), `CREATE TABLE t (id INT, PRIMARY KEY (id))`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("DDL stream yielded a row")
	}
	if rows.Schema() != nil || rows.Columns() != nil {
		t.Fatal("DDL stream reports a schema")
	}
	if rows.Message() == "" {
		t.Fatal("DDL stream carries no message")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err = sess.StreamContext(context.Background(), `INSERT INTO t VALUES (1), (2)`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		t.Fatal("DML stream yielded a row")
	}
	if rows.Message() == "" {
		t.Fatal("DML stream carries no message")
	}
}

// TestStreamGuardTrip checks that lifecycle guards fire mid-stream with
// the same *GuardError structure as the materialized path.
func TestStreamGuardTrip(t *testing.T) {
	db := setupDB(t)
	sess := db.NewSession(WithMode(ModeNative))
	rows, err := sess.StreamContext(context.Background(), sessionTestQuery, WithMaxRows(1))
	if err != nil {
		// Some strategies trip during stream setup; that is fine as long
		// as the error is structured.
		assertGuard(t, err)
		return
	}
	for rows.Next() {
	}
	assertGuard(t, rows.Err())
	var ge *exec.GuardError
	if errors.As(rows.Err(), &ge) && ge.Limit != exec.LimitRows {
		t.Fatalf("tripped limit %v, want %v", ge.Limit, exec.LimitRows)
	}
}

func assertGuard(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a guard error")
	}
	if !errors.Is(err, exec.ErrResourceExhausted) {
		t.Fatalf("error %v does not match ErrResourceExhausted", err)
	}
	var ge *exec.GuardError
	if !errors.As(err, &ge) {
		t.Fatalf("error %v is not a *GuardError", err)
	}
}

// TestStreamCancel checks that canceling the stream's context mid-drain
// surfaces ErrCanceled.
func TestStreamCancel(t *testing.T) {
	db := setupDB(t)
	sess := db.NewSession(WithMode(ModeNative))
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := sess.StreamContext(ctx, sessionTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The amortized poll may let a few rows through; it must stop within
	// one guard interval.
	for rows.Next() {
	}
	if rows.Err() != nil && !errors.Is(rows.Err(), exec.ErrCanceled) {
		t.Fatalf("stream error %v does not match ErrCanceled", rows.Err())
	}
	rows.Close()
}

// TestSessionClosed checks every entry point fails after Close.
func TestSessionClosed(t *testing.T) {
	db := setupDB(t)
	sess := db.NewSession()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.QueryContext(context.Background(), sessionTestQuery); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("QueryContext after Close: %v", err)
	}
	if _, err := sess.ExecContext(context.Background(), sessionTestQuery); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("ExecContext after Close: %v", err)
	}
	if _, err := sess.StreamContext(context.Background(), sessionTestQuery); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("StreamContext after Close: %v", err)
	}
	if _, err := sess.Prepare(sessionTestQuery); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Prepare after Close: %v", err)
	}
}

// TestPreparedSessionDefaults checks prepared statements complete the
// precedence chain: the owning session's defaults apply to runs and
// per-run options override them.
func TestPreparedSessionDefaults(t *testing.T) {
	db := setupDB(t)
	sess := db.NewSession(WithMaxRows(1)) // session default: trip everything
	p, err := sess.Prepare(sessionTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunContext(context.Background()); err == nil {
		t.Fatal("session max-rows default did not apply to the prepared run")
	} else {
		assertGuard(t, err)
	}
	if _, err := p.RunContext(context.Background(), WithMaxRows(1_000_000)); err != nil {
		t.Fatalf("per-run override did not win over the session default: %v", err)
	}
}

// TestConcurrentSessions runs many sessions with different defaults
// against one DB — queries, streams and prepared runs — and must be
// race-clean under -race.
func TestConcurrentSessions(t *testing.T) {
	db := setupDB(t)
	modes := []Mode{ModeNative, ModeBU, ModeGBU, ModeFtP}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession(WithMode(modes[w%len(modes)]))
			defer sess.Close()
			for i := 0; i < 5; i++ {
				switch i % 3 {
				case 0:
					res, err := sess.QueryContext(context.Background(), sessionTestQuery)
					if err != nil {
						errs <- err
						return
					}
					if res.Rel == nil {
						errs <- errors.New("nil relation")
						return
					}
				case 1:
					rows, err := sess.StreamContext(context.Background(), sessionTestQuery)
					if err != nil {
						errs <- err
						return
					}
					n := 0
					for rows.Next() {
						n++
					}
					if err := rows.Close(); err != nil {
						errs <- err
						return
					}
				default:
					p, err := sess.Prepare(sessionTestQuery)
					if err != nil {
						errs <- err
						return
					}
					if _, err := p.RunContext(context.Background()); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestModeRegistryListings pins the parse/list surface of the mode
// table: every listed value round-trips through ParseMode and an unknown
// name fails with the documented error text.
func TestModeRegistryListings(t *testing.T) {
	if len(Modes()) != 6 {
		t.Fatalf("Modes() = %v", Modes())
	}
	for _, m := range Modes() {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	want := `engine: unknown mode "bogus" (valid: native, bu, gbu, ftp, plugin-naive, plugin-merged)`
	if _, err := ParseMode("bogus"); err == nil || err.Error() != want {
		t.Fatalf(`ParseMode("bogus") error = %v, want %q`, err, want)
	}
}
