package engine

import (
	"context"
	"strings"
	"testing"
)

// TestUnionQuery covers the paper's Example 6 shape: combining two users'
// movie sets, with duplicate tuples merging their score-confidence pairs
// through F.
func TestUnionQuery(t *testing.T) {
	db := setupDB(t)
	q := `SELECT title FROM movies WHERE year >= 2005
	      PREFERRING year >= 2005 SCORE 1 CONF 0.5 ON movies
	      UNION
	      SELECT title FROM movies WHERE duration <= 120
	      PREFERRING duration <= 120 SCORE 1 CONF 0.5 ON movies
	      USING sum
	      RANK BY score`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// recent = {Gran Torino, Match Point, Scoop}; short = {Gran Torino, Scoop}.
	if res.Rel.Len() != 3 {
		t.Fatalf("union rows = %d\n%s", res.Rel.Len(), res.Rel)
	}
	// Gran Torino and Scoop are in both arms: their pairs combine to conf 1.
	byTitle := map[string]float64{}
	for _, row := range res.Rel.Rows {
		byTitle[row.Tuple[0].AsString()] = row.SC.Conf
	}
	if byTitle["Gran Torino"] != 1 || byTitle["Scoop"] != 1 {
		t.Errorf("duplicate tuples should combine confidences: %v", byTitle)
	}
	if byTitle["Match Point"] != 0.5 {
		t.Errorf("single-arm tuple conf = %v", byTitle["Match Point"])
	}
}

func TestIntersectAndExcept(t *testing.T) {
	db := setupDB(t)
	inter, err := db.ExecContext(context.Background(), `SELECT title FROM movies WHERE year >= 2005
	                       INTERSECT
	                       SELECT title FROM movies WHERE duration <= 120`)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Rel.Len() != 2 {
		t.Errorf("intersect rows = %d", inter.Rel.Len())
	}
	except, err := db.ExecContext(context.Background(), `SELECT title FROM movies WHERE year >= 2005
	                        EXCEPT
	                        SELECT title FROM movies WHERE duration <= 120`)
	if err != nil {
		t.Fatal(err)
	}
	if except.Rel.Len() != 1 || except.Rel.Rows[0].Tuple[0].AsString() != "Match Point" {
		t.Errorf("except = %v", except.Rel.Rows)
	}
	// MINUS is an alias for EXCEPT.
	minus, err := db.ExecContext(context.Background(), `SELECT title FROM movies WHERE year >= 2005
	                       MINUS
	                       SELECT title FROM movies WHERE duration <= 120`)
	if err != nil {
		t.Fatal(err)
	}
	if minus.Rel.Len() != 1 {
		t.Errorf("minus rows = %d", minus.Rel.Len())
	}
}

func TestCompoundChainsLeftToRight(t *testing.T) {
	db := setupDB(t)
	// (recent ∪ short) − dramas
	q := `SELECT title FROM movies WHERE year >= 2005
	      UNION SELECT title FROM movies WHERE duration <= 120
	      EXCEPT SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id WHERE genre = 'Drama'`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string]bool{}
	for _, row := range res.Rel.Rows {
		titles[row.Tuple[0].AsString()] = true
	}
	// Gran Torino is a Drama → excluded. Match Point (Thriller/Comedy) and
	// Scoop (Comedy) remain.
	if len(titles) != 2 || !titles["Match Point"] || !titles["Scoop"] {
		t.Errorf("chain result = %v", titles)
	}
}

func TestCompoundStrategiesAgree(t *testing.T) {
	db := setupDB(t)
	q := `SELECT title, year FROM movies WHERE year >= 2005
	      PREFERRING year >= 2006 SCORE recency(year, 2011) CONF 0.8 ON movies
	      UNION
	      SELECT title, year FROM movies WHERE duration <= 126
	      USING sum
	      TOP 4 BY score`
	ref, err := db.QueryContext(context.Background(), q, WithMode(ModeNative))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		res, err := db.QueryContext(context.Background(), q, WithMode(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if diff := ref.Rel.Diff(res.Rel, 1e-9); diff != "" {
			t.Errorf("%v differs: %s", m, diff)
		}
	}
}

func TestCompoundErrors(t *testing.T) {
	db := setupDB(t)
	bad := []struct{ q, reason string }{
		{`SELECT title FROM movies UNION SELECT title, year FROM movies`, "arity mismatch"},
		{`SELECT title FROM movies UNION SELECT year FROM movies`, "layout mismatch"},
		{`SELECT * FROM movies UNION SELECT title FROM movies`, "star/list mix"},
		{`SELECT title FROM movies USING sum UNION SELECT title FROM movies`, "USING before UNION"},
		{`SELECT title FROM movies TOP 3 UNION SELECT title FROM movies`, "filter before UNION"},
		{`SELECT title FROM movies UNION`, "missing arm"},
	}
	for _, c := range bad {
		if _, err := db.ExecContext(context.Background(), c.q); err == nil {
			t.Errorf("%s: %q should fail", c.reason, c.q)
		}
	}
	// Star-star compound is fine.
	if _, err := db.ExecContext(context.Background(), `SELECT * FROM directors UNION SELECT * FROM directors`); err != nil {
		t.Errorf("star union: %v", err)
	}
}

func TestCompoundPlanShape(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), `SELECT title FROM movies WHERE year >= 2005
	                     UNION SELECT title FROM movies WHERE duration <= 96`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Union()") {
		t.Errorf("plan missing union:\n%s", res.Plan)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), `SELECT title, year FROM movies ORDER BY year DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("rows = %d", res.Rel.Len())
	}
	if res.Rel.Rows[0].Tuple[1].AsInt() != 2008 || res.Rel.Rows[1].Tuple[1].AsInt() != 2006 {
		t.Errorf("order = %v", res.Rel.Rows)
	}
	// OFFSET skips; ascending is the default direction.
	res2, err := db.ExecContext(context.Background(), `SELECT year FROM movies ORDER BY year LIMIT 2 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rel.Rows[0].Tuple[0].AsInt() != 2004 || res2.Rel.Rows[1].Tuple[0].AsInt() != 2005 {
		t.Errorf("offset order = %v", res2.Rel.Rows)
	}
	// Multi-key ordering with explicit ASC.
	res3, err := db.ExecContext(context.Background(), `SELECT d_id, year FROM movies ORDER BY d_id ASC, year DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rel.Rows[0].Tuple[0].AsInt() != 1 || res3.Rel.Rows[0].Tuple[1].AsInt() != 2008 {
		t.Errorf("multi-key order = %v", res3.Rel.Rows[0].Tuple)
	}
	// ORDER BY columns need not be projected.
	res4, err := db.ExecContext(context.Background(), `SELECT title FROM movies ORDER BY duration LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Rel.Rows[0].Tuple[0].AsString() != "Scoop" {
		t.Errorf("unprojected order key = %v", res4.Rel.Rows[0].Tuple)
	}
	if res4.Rel.Schema.Len() != 1 {
		t.Errorf("result width = %d, want 1", res4.Rel.Schema.Len())
	}
}

func TestOrderByAfterPreferenceFilter(t *testing.T) {
	db := setupDB(t)
	// TOP picks the best-scored movies; ORDER BY then rearranges them by year.
	q := `SELECT title, year FROM movies
	      PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
	      TOP 3 BY score
	      ORDER BY year ASC`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("rows = %d", res.Rel.Len())
	}
	years := []int64{res.Rel.Rows[0].Tuple[1].AsInt(), res.Rel.Rows[1].Tuple[1].AsInt(), res.Rel.Rows[2].Tuple[1].AsInt()}
	if !(years[0] <= years[1] && years[1] <= years[2]) {
		t.Errorf("years = %v", years)
	}
	// All strategies agree.
	ref, err := db.QueryContext(context.Background(), q, WithMode(ModeNative))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		got, err := db.QueryContext(context.Background(), q, WithMode(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if diff := ref.Rel.Diff(got.Rel, 1e-9); diff != "" {
			t.Errorf("%v differs: %s", m, diff)
		}
	}
}

func TestOrderByLimitOnCompound(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), `SELECT title, year FROM movies WHERE year >= 2005
	                     UNION SELECT title, year FROM movies WHERE duration <= 120
	                     ORDER BY year DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 || res.Rel.Rows[0].Tuple[1].AsInt() != 2008 {
		t.Errorf("compound order/limit = %v", res.Rel.Rows)
	}
}

func TestOrderByLimitErrors(t *testing.T) {
	db := setupDB(t)
	for _, q := range []string{
		"SELECT title FROM movies ORDER BY ghost",
		"SELECT title FROM movies ORDER BY",
		"SELECT title FROM movies LIMIT",
		"SELECT title FROM movies LIMIT -1",
		"SELECT title FROM movies LIMIT 2 OFFSET",
	} {
		if _, err := db.ExecContext(context.Background(), q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
	// LIMIT 0 is valid and empty.
	res, err := db.ExecContext(context.Background(), "SELECT title FROM movies LIMIT 0")
	if err != nil || res.Rel.Len() != 0 {
		t.Errorf("LIMIT 0 = %v, %v", res, err)
	}
}
