package engine

import (
	"context"
	"testing"

	"prefdb/internal/profile"
)

// TestQueryForUser runs queries under a user's profile (WithProfile).
func TestQueryForUser(t *testing.T) {
	db := setupDB(t)
	store := profile.NewStore()
	if err := store.AddClause("alice", "genre = 'Comedy' SCORE 1 CONF 0.9 ON genres AS comedies"); err != nil {
		t.Fatal(err)
	}
	if err := store.AddClause("alice", "name = 'ICDE' SCORE 1 CONF 0.9 ON conferences AS icde"); err != nil {
		t.Fatal(err)
	}

	// A query over movies ⋈ genres picks up only the genre preference;
	// the conferences one is silently skipped as irrelevant.
	q := `SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id RANK BY score`
	res, err := db.QueryContext(context.Background(), q, WithProfile(store, "alice"), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	scored := 0
	for _, row := range res.Rel.Rows {
		if row.SC.Known {
			scored++
		}
	}
	if scored == 0 {
		t.Fatal("profile preference was not applied")
	}
	// Comedies (movies 4 and 5) are the scored rows.
	top := res.Rel.Rows[0]
	if title := top.Tuple[0].AsString(); title != "Match Point" && title != "Scoop" {
		t.Errorf("top row = %q", title)
	}

	// An unknown user gets plain results.
	res2, err := db.QueryContext(context.Background(), q, WithProfile(store, "nobody"), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res2.Rel.Rows {
		if row.SC.Known {
			t.Fatal("unknown user should get unscored results")
		}
	}

	// Profile preferences combine with the query's own PREFERRING clauses.
	q2 := `SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
	       PREFERRING year >= 2005 SCORE 0.5 CONF 0.5 ON movies
	       RANK BY score`
	res3, err := db.QueryContext(context.Background(), q2, WithProfile(store, "alice"), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	// Scoop (2006, Comedy) matches both: confidence 1.4.
	found := false
	for _, row := range res3.Rel.Rows {
		if row.Tuple[0].AsString() == "Scoop" && row.SC.Conf > 1.3 {
			found = true
		}
	}
	if !found {
		t.Error("query and profile preferences did not combine")
	}

	// Parse errors propagate.
	if _, err := db.QueryContext(context.Background(), "SELECT FROM", WithProfile(store, "alice"), WithMode(ModeGBU)); err == nil {
		t.Error("bad SQL should error")
	}
}

// TestQueryForUserInContext activates context-tagged profile preferences.
func TestQueryForUserInContext(t *testing.T) {
	db := setupDB(t)
	store := profile.NewStore()
	if err := store.AddClause("alice", "genre = 'Comedy' SCORE 1 CONF 0.9 ON genres AS comedies"); err != nil {
		t.Fatal(err)
	}
	if err := store.AddClauseInContext("alice", "genre = 'Drama' SCORE 1 CONF 0.9 ON genres AS social", "with-friends"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id THRESHOLD conf > 0`
	alone, err := db.QueryContext(context.Background(), q, WithProfile(store, "alice"), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	social, err := db.QueryContext(context.Background(), q, WithProfile(store, "alice", "with-friends"), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	// With the drama preference active, more tuples get scored.
	if social.Rel.Len() <= alone.Rel.Len() {
		t.Errorf("contextual preferences did not widen the scored set: %d vs %d",
			social.Rel.Len(), alone.Rel.Len())
	}
}
