package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"prefdb/internal/datagen"
	"prefdb/internal/exec"
)

const prefQuery = `
	SELECT title, year FROM movies
	JOIN genres ON movies.m_id = genres.m_id
	PREFERRING genre = 'Drama' SCORE 1 CONF 0.9 ON genres,
	           year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON movies
	USING sum TOP 3 BY score`

// bigDB loads a generated dataset large enough for the guards to trip
// mid-query.
func bigDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	if _, err := datagen.LoadIMDB(db.Catalog(), datagen.Config{Scale: 0.1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryContextCancellation(t *testing.T) {
	db := setupDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range Modes() {
		_, err := db.QueryContext(ctx, prefQuery, WithMode(mode))
		if !errors.Is(err, exec.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", mode, err)
		}
	}
	// A live context behaves exactly like the legacy positional API.
	for _, mode := range Modes() {
		want, err := db.QueryContext(context.Background(), prefQuery, WithMode(mode))
		if err != nil {
			t.Fatalf("%v legacy: %v", mode, err)
		}
		got, err := db.QueryContext(context.Background(), prefQuery, WithMode(mode))
		if err != nil {
			t.Fatalf("%v ctx: %v", mode, err)
		}
		if want.Rel.Len() != got.Rel.Len() || want.Stats != got.Stats || want.Plan != got.Plan {
			t.Fatalf("%v: context result differs from legacy result", mode)
		}
	}
}

func TestExecContextDDLAndDML(t *testing.T) {
	db := setupDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// DDL/DML observe cancellation up front and leave the catalog untouched.
	if _, err := db.ExecContext(ctx, `CREATE TABLE extra (x INT)`); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("DDL on canceled ctx: err = %v", err)
	}
	if _, err := db.Catalog().Table("extra"); err == nil {
		t.Fatal("canceled DDL must not create the table")
	}
	if _, err := db.ExecContext(ctx, `INSERT INTO directors VALUES (9, 'Nobody')`); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("DML on canceled ctx: err = %v", err)
	}
	// A nil context is treated as context.Background().
	if _, err := db.ExecContext(nil, `INSERT INTO directors VALUES (9, 'Somebody')`); err != nil { //nolint:staticcheck
		t.Fatalf("nil ctx insert: %v", err)
	}
}

func TestQueryTimeoutOption(t *testing.T) {
	db := bigDB(t)
	_, err := db.QueryContext(context.Background(), prefQuery, WithTimeout(time.Nanosecond))
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// A generous timeout does not interfere.
	if _, err := db.QueryContext(context.Background(), prefQuery, WithTimeout(time.Minute)); err != nil {
		t.Fatalf("generous timeout: %v", err)
	}
}

func TestQueryResourceOptions(t *testing.T) {
	db := bigDB(t)
	for _, tc := range []struct {
		name string
		opt  QueryOption
		kind exec.LimitKind
	}{
		{"rows", WithMaxRows(100), exec.LimitRows},
		{"cells", WithMaxCells(500), exec.LimitCells},
		{"memory", WithMemoryBudget(8 << 10), exec.LimitMemory},
	} {
		_, err := db.QueryContext(context.Background(), prefQuery, WithMode(ModeGBU), tc.opt)
		if !errors.Is(err, exec.ErrResourceExhausted) {
			t.Fatalf("%s: err = %v, want ErrResourceExhausted", tc.name, err)
		}
		var ge *exec.GuardError
		if !errors.As(err, &ge) || ge.Limit != tc.kind {
			t.Fatalf("%s: err = %+v, want limit %s", tc.name, err, tc.kind)
		}
	}
	// WithWorkers is a deprecated no-op: the query runs exactly as without
	// it.
	want, err := db.QueryContext(context.Background(), prefQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), prefQuery, WithWorkers(2))
	if err != nil {
		t.Fatalf("WithWorkers(2): %v", err)
	}
	if err := sameRelation(want.Rel, res.Rel); err != nil {
		t.Fatalf("WithWorkers(2) changed the result: %v", err)
	}
}

func TestOpenOptions(t *testing.T) {
	db := Open(WithDefaultMode(ModeFtP), WithOptimizer(false))
	if db.Mode != ModeFtP || db.Optimize {
		t.Fatalf("Open options not applied: mode=%v optimize=%v", db.Mode, db.Optimize)
	}
}

func TestPreparedRunContext(t *testing.T) {
	db := setupDB(t)
	p, err := db.Prepare(prefQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.RunContext(context.Background(), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RunContext(context.Background(), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	if want.Rel.Len() != got.Rel.Len() || want.Stats != got.Stats {
		t.Fatal("RunContext result differs from Run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range Modes() {
		if _, err := p.RunContext(ctx, WithMode(mode)); !errors.Is(err, exec.ErrCanceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", mode, err)
		}
	}
	if _, err := p.RunContext(context.Background(), WithMode(ModeGBU), WithTimeout(time.Nanosecond)); !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("prepared timeout: err = %v", err)
	}
}
