package prefdb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFacadeQueryLifecycle exercises the context-aware entry points and
// the re-exported options and sentinel errors through the public facade.
func TestFacadeQueryLifecycle(t *testing.T) {
	db := Open(WithDefaultMode(ModeGBU))
	if _, err := LoadIMDB(db, DatagenConfig{Scale: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT title, year FROM movies
		JOIN genres ON movies.m_id = genres.m_id
		PREFERRING genre = 'Drama' SCORE 1 CONF 0.9 ON genres
		USING sum TOP 5 BY score`

	res, err := db.QueryContext(context.Background(), sql, WithMode(ModeFtP))
	if err != nil || res.Rel.Len() == 0 {
		t.Fatalf("QueryContext: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, sql); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled: err = %v, want prefdb.ErrCanceled", err)
	}
	if _, err := db.QueryContext(context.Background(), sql, WithTimeout(time.Nanosecond)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("timeout: err = %v, want prefdb.ErrDeadlineExceeded", err)
	}
	_, err = db.QueryContext(context.Background(), sql, WithMaxRows(50))
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("row budget: err = %v, want prefdb.ErrResourceExhausted", err)
	}
	var ge *GuardError
	if !errors.As(err, &ge) || ge.Budget != 50 {
		t.Fatalf("row budget: GuardError = %+v", ge)
	}
}
