package engine

import (
	"context"
	"testing"
)

// TestPreparedStatementSeesDML: a prepared statement keeps its optimized
// plan across runs, but each run reads the tables as they are. After an
// INSERT and an UPDATE on the table it scans, a re-run must return what
// an ad-hoc run of the same text returns.
func TestPreparedStatementSeesDML(t *testing.T) {
	const q = `SELECT title, year FROM movies
		PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
		RANK BY score`
	db := setupDB(t)
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(label string) *Result {
		t.Helper()
		got, err := p.RunContext(ctx, WithMode(ModeGBU))
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryContext(ctx, q, WithMode(ModeGBU))
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Rel.Diff(got.Rel, 0); diff != "" {
			t.Errorf("%s differs from an ad-hoc run: %s", label, diff)
		}
		return got
	}

	before := run("first run")
	if _, err := db.ExecContext(context.Background(), "INSERT INTO movies VALUES (9, 'Midnight in Paris', 2011, 94, 2)"); err != nil {
		t.Fatal(err)
	}
	after := run("post-INSERT run")
	if after.Rel.Len() != before.Rel.Len()+1 {
		t.Fatalf("post-INSERT rows = %d, want %d", after.Rel.Len(), before.Rel.Len()+1)
	}
	// 2011 scores recency(2011,2011)=1: the new movie must rank first.
	if got := after.Rel.Rows[0].Tuple[0].AsString(); got != "Midnight in Paris" {
		t.Errorf("top row = %q", got)
	}

	if _, err := db.ExecContext(context.Background(), "UPDATE movies SET year = 2010 WHERE m_id = 2"); err != nil {
		t.Fatal(err)
	}
	updated := run("post-UPDATE run")
	for _, r := range updated.Rel.Rows {
		if r.Tuple[0].AsString() == "Wall Street" {
			if r.Tuple[1].AsInt() != 2010 {
				t.Errorf("post-UPDATE run reads year %v for Wall Street", r.Tuple[1])
			}
			return
		}
	}
	t.Error("post-UPDATE run lost Wall Street")
}
