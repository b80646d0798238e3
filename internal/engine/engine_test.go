package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prefdb/internal/types"
)

// setupDB builds the movie database end-to-end through SQL.
func setupDB(t testing.TB, opts ...OpenOption) *DB {
	t.Helper()
	db := Open(opts...)
	stmts := []string{
		`CREATE TABLE movies (m_id INT, title TEXT, year INT, duration INT, d_id INT, PRIMARY KEY (m_id))`,
		`CREATE TABLE directors (d_id INT, director TEXT, PRIMARY KEY (d_id))`,
		`CREATE TABLE genres (m_id INT, genre TEXT, PRIMARY KEY (m_id, genre))`,
		`CREATE TABLE ratings (m_id INT, rating FLOAT, votes INT, PRIMARY KEY (m_id))`,
		`CREATE BTREE INDEX ON movies (year)`,
		`CREATE HASH INDEX ON genres (genre)`,
		`INSERT INTO movies VALUES
			(1, 'Gran Torino', 2008, 116, 1),
			(2, 'Wall Street', 1987, 126, 3),
			(3, 'Million Dollar Baby', 2004, 132, 1),
			(4, 'Match Point', 2005, 124, 2),
			(5, 'Scoop', 2006, 96, 2)`,
		`INSERT INTO directors VALUES (1, 'C. Eastwood'), (2, 'W. Allen'), (3, 'O. Stone')`,
		`INSERT INTO genres VALUES (1, 'Drama'), (2, 'Drama'), (3, 'Drama'), (3, 'Sport'),
			(4, 'Thriller'), (4, 'Comedy'), (5, 'Comedy')`,
		`INSERT INTO ratings VALUES (1, 8.2, 900), (2, 7.4, 600), (3, 8.1, 1200), (4, 7.7, 400), (5, 6.8, 300)`,
	}
	for _, s := range stmts {
		if _, err := db.ExecContext(context.Background(), s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func TestDDLAndDML(t *testing.T) {
	db := setupDB(t)
	tbl, err := db.Catalog().Table("movies")
	if err != nil || tbl.Len() != 5 {
		t.Fatalf("movies table: %v, %d rows", err, tbl.Len())
	}
	// DDL errors surface.
	if _, err := db.ExecContext(context.Background(), "CREATE TABLE movies (x INT)"); err == nil {
		t.Error("duplicate table should error")
	}
	if _, err := db.ExecContext(context.Background(), "CREATE TABLE bad (x INT, PRIMARY KEY (nope))"); err == nil {
		t.Error("bad primary key should error")
	}
	if _, err := db.ExecContext(context.Background(), "INSERT INTO nope VALUES (1)"); err == nil {
		t.Error("insert into missing table should error")
	}
	if _, err := db.ExecContext(context.Background(), "INSERT INTO directors VALUES (9)"); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := db.ExecContext(context.Background(), "INSERT INTO directors VALUES ('x', 'y')"); err == nil {
		t.Error("type mismatch should error")
	}
	// Int literals coerce into FLOAT columns.
	if _, err := db.ExecContext(context.Background(), "INSERT INTO ratings VALUES (6, 7, 100)"); err != nil {
		t.Errorf("int->float coercion failed: %v", err)
	}
	// Exact float->int coercion works; lossy fails.
	if _, err := db.ExecContext(context.Background(), "INSERT INTO directors VALUES (4.0, 'Z')"); err != nil {
		t.Errorf("float->int exact coercion failed: %v", err)
	}
	if _, err := db.ExecContext(context.Background(), "INSERT INTO directors VALUES (4.5, 'Z')"); err == nil {
		t.Error("lossy float->int coercion should error")
	}
}

func TestBasicQuery(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), "SELECT title FROM movies WHERE year >= 2005")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Errorf("rows = %d", res.Rel.Len())
	}
	cols := res.Columns()
	if len(cols) != 3 || cols[0] != "movies.title" || cols[1] != "score" || cols[2] != "conf" {
		t.Errorf("columns = %v", cols)
	}
}

// TestQ1Example9 runs the paper's Q1: top-k recent movies under Alice's
// preferences.
func TestQ1Example9(t *testing.T) {
	db := setupDB(t)
	q := `SELECT title, director FROM movies
	      JOIN directors ON movies.d_id = directors.d_id
	      JOIN genres ON movies.m_id = genres.m_id
	      WHERE year >= 2004
	      PREFERRING genre = 'Comedy' SCORE 0.8 CONF 0.9 ON genres,
	                 director = 'C. Eastwood' SCORE 0.9 CONF 0.8 ON directors
	      USING sum
	      TOP 3 BY score`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("rows = %d\n%s", res.Rel.Len(), res.Rel)
	}
	// Result trimmed to the requested columns only.
	if res.Rel.Schema.Len() != 2 {
		t.Errorf("width = %d, want 2 (title, director)", res.Rel.Schema.Len())
	}
	// Top movie: an Eastwood film (0.9) or a Comedy (0.8) — Eastwood wins.
	top := res.Rel.Rows[0]
	if top.Tuple[1].AsString() != "C. Eastwood" {
		t.Errorf("top row = %v (%v)", top.Tuple, top.SC)
	}
}

// TestQ2ConfidenceThreshold runs the paper's Q2 pattern.
func TestQ2ConfidenceThreshold(t *testing.T) {
	db := setupDB(t)
	q := `SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
	      PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres,
	                 year >= 2005 SCORE recency(year, 2011) CONF 0.5 ON movies
	      THRESHOLD conf >= 1.2`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Only tuples matching both preferences reach confidence 1.4.
	for _, row := range res.Rel.Rows {
		if row.SC.Conf < 1.2 {
			t.Errorf("row below threshold: %v", row)
		}
	}
	if res.Rel.Len() == 0 {
		t.Error("expected at least one confident row")
	}
}

func TestAllModesAgree(t *testing.T) {
	q := `SELECT title, year FROM movies
	      JOIN genres ON movies.m_id = genres.m_id
	      WHERE duration < 130
	      PREFERRING genre = 'Drama' SCORE 0.9 CONF 0.8 ON genres,
	                 year >= 2000 SCORE recency(year, 2011) CONF 1 ON movies
	      USING sum
	      RANK BY score`
	db := setupDB(t)
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
			t.Errorf("%v differs from native: %s", m, diff)
		}
	}
	// Unoptimized execution agrees too.
	db.Optimize = false
	res, err := db.QueryContext(context.Background(), q, WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	if diff := ref.Rel.Diff(res.Rel, 1e-9); diff != "" {
		t.Errorf("unoptimized differs: %s", diff)
	}
}

func TestMembershipPreference(t *testing.T) {
	// The paper's p7: award-winning (here: rated) movies are preferred —
	// a membership preference over a join with TRUE condition.
	db := setupDB(t)
	q := `SELECT title FROM movies JOIN ratings ON movies.m_id = ratings.m_id
	      PREFERRING true SCORE 1 CONF 0.9 ON (movies, ratings)
	      RANK BY score`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rel.Rows {
		if !row.SC.Known || row.SC.Score != 1 {
			t.Errorf("membership row = %v", row)
		}
	}
}

func TestMultiAttributeScoring(t *testing.T) {
	// The paper's p5: 0.5·S_m(year,2011) + 0.5·S_d(duration,120).
	db := setupDB(t)
	q := `SELECT title FROM movies
	      PREFERRING year >= 2000 SCORE 0.5*recency(year,2011) + 0.5*around(duration,120) CONF 0.9 ON movies
	      TOP 1 BY score`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 || res.Rel.Rows[0].Tuple[0].AsString() != "Gran Torino" {
		t.Errorf("top = %v", res.Rel.Rows)
	}
}

func TestSkylineQuery(t *testing.T) {
	db := setupDB(t)
	q := `SELECT title FROM movies
	      PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.5 ON movies,
	                 duration <= 120 SCORE around(duration, 120) CONF 1 ON movies
	      USING max
	      SKYLINE`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() == 0 || res.Rel.Len() >= 5 {
		t.Errorf("skyline size = %d", res.Rel.Len())
	}
}

func TestQueryErrors(t *testing.T) {
	db := setupDB(t)
	bad := []string{
		"SELECT nope FROM movies",
		"SELECT title FROM nope",
		"SELECT title FROM movies PREFERRING genre = 'X' SCORE 1 CONF 0.5 ON genres", // genres not in query
		"SELECT title FROM movies PREFERRING year > 1 SCORE 1 CONF 2 ON movies",      // conf out of range
		"SELECT title FROM movies USING bogus",
		"SELECT m1.title FROM movies m1, movies m1", // duplicate alias
		"SELECT title FROM movies WHERE title + 1 = 2",
	}
	for _, q := range bad {
		if _, err := db.ExecContext(context.Background(), q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
	if _, err := db.QueryContext(context.Background(), "CREATE TABLE t (x INT)", WithMode(ModeGBU)); err == nil {
		t.Error("Query should reject DDL")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeGBU {
		t.Error("empty mode should default to GBU")
	}
	if m, err := ParseMode("Filter-then-Prefer"); err != nil || m != ModeFtP {
		t.Errorf("case-insensitive alias = %v, %v", m, err)
	}
	if _, err := ParseMode("quantum"); err == nil {
		t.Error("unknown mode should error")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode string")
	}
}

func TestQueryPlanExplain(t *testing.T) {
	db := setupDB(t)
	plan, err := db.QueryPlan(`SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
		PREFERRING genre = 'Comedy' SCORE 1 CONF 0.8 ON genres TOP 2 BY score`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Preferences) != 1 {
		t.Errorf("preferences = %d", len(plan.Preferences))
	}
	res, err := db.ExecContext(context.Background(), `SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
		PREFERRING genre = 'Comedy' SCORE 1 CONF 0.8 ON genres TOP 2 BY score`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Prefer(") || !strings.Contains(res.Plan, "Scan(genres)") {
		t.Errorf("explain plan missing operators:\n%s", res.Plan)
	}
	// Optimizer pushed the prefer next to the genres scan.
	lines := strings.Split(res.Plan, "\n")
	for i, l := range lines {
		if strings.Contains(l, "Prefer(") && i+1 < len(lines) {
			if !strings.Contains(lines[i+1], "genres") {
				t.Errorf("prefer not adjacent to genres scan:\n%s", res.Plan)
			}
		}
	}
}

func TestSelectStarIncludesSC(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), "SELECT * FROM directors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Schema.Len() != 2 || res.Rel.Len() < 3 {
		t.Errorf("star query = %v", res.Rel)
	}
	cols := res.Columns()
	if cols[len(cols)-2] != "score" || cols[len(cols)-1] != "conf" {
		t.Errorf("columns = %v", cols)
	}
	// DDL results have no columns.
	r2, _ := db.ExecContext(context.Background(), "CREATE TABLE tmp (x INT)")
	if r2.Columns() != nil || r2.Message == "" {
		t.Errorf("DDL result = %+v", r2)
	}
}

func TestAggregatesAndFunctionsExported(t *testing.T) {
	if len(Aggregates()) != 4 {
		t.Errorf("aggregates = %v", Aggregates())
	}
	if _, ok := Functions().Lookup("recency"); !ok {
		t.Error("scoring functions not exposed")
	}
}

func TestDeleteStatement(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), "DELETE FROM movies WHERE year < 2000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != "deleted 1 rows from movies" {
		t.Errorf("message = %q", res.Message)
	}
	left, err := db.ExecContext(context.Background(), "SELECT title FROM movies")
	if err != nil {
		t.Fatal(err)
	}
	if left.Rel.Len() != 4 {
		t.Errorf("rows after delete = %d", left.Rel.Len())
	}
	// Indexes skip deleted rows.
	idx, err := db.ExecContext(context.Background(), "SELECT title FROM movies WHERE year >= 1980")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Rel.Len() != 4 {
		t.Errorf("index path saw deleted rows: %d", idx.Rel.Len())
	}
	// DELETE without WHERE empties the table.
	if _, err := db.ExecContext(context.Background(), "DELETE FROM genres"); err != nil {
		t.Fatal(err)
	}
	g, _ := db.Catalog().Table("genres")
	if g.Len() != 0 {
		t.Errorf("genres not emptied: %d", g.Len())
	}
	// Errors.
	if _, err := db.ExecContext(context.Background(), "DELETE FROM nope"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := db.ExecContext(context.Background(), "DELETE FROM movies WHERE ghost = 1"); err == nil {
		t.Error("bad condition should error")
	}
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	db := setupDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
	      PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres TOP 2 BY score`
	a, err := db.QueryContext(context.Background(), q, WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.QueryContext(context.Background(), q, WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	if diff := a.Rel.Diff(b.Rel, 1e-9); diff != "" {
		t.Errorf("restored database differs: %s", diff)
	}
}

func TestUpdateStatement(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), "UPDATE movies SET year = year + 1 WHERE m_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != "updated 1 rows in movies" {
		t.Errorf("message = %q", res.Message)
	}
	check, _ := db.ExecContext(context.Background(), "SELECT year FROM movies WHERE m_id = 1")
	if check.Rel.Rows[0].Tuple[0].AsInt() != 2009 {
		t.Errorf("year after update = %v", check.Rel.Rows[0].Tuple[0])
	}
	// Indexes reflect the new value.
	byYear, _ := db.ExecContext(context.Background(), "SELECT title FROM movies WHERE year = 2009")
	if byYear.Rel.Len() != 1 {
		t.Errorf("btree index stale after update: %d rows", byYear.Rel.Len())
	}
	old, _ := db.ExecContext(context.Background(), "SELECT title FROM movies WHERE year = 2008")
	if old.Rel.Len() != 0 {
		t.Errorf("old index entry still live: %d rows", old.Rel.Len())
	}
	// Multi-column update without WHERE touches every row.
	res2, err := db.ExecContext(context.Background(), "UPDATE directors SET director = upper(director)")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Message != "updated 3 rows in directors" {
		t.Errorf("message = %q", res2.Message)
	}
	d, _ := db.ExecContext(context.Background(), "SELECT director FROM directors WHERE d_id = 1")
	if d.Rel.Rows[0].Tuple[0].AsString() != "C. EASTWOOD" {
		t.Errorf("director = %v", d.Rel.Rows[0].Tuple[0])
	}
	// Errors: unknown table/column, type mismatch (atomic: no partial writes).
	if _, err := db.ExecContext(context.Background(), "UPDATE nope SET x = 1"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := db.ExecContext(context.Background(), "UPDATE movies SET ghost = 1"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := db.ExecContext(context.Background(), "UPDATE movies SET year = 'nineteen'"); err == nil {
		t.Error("type mismatch should error")
	}
	before, _ := db.ExecContext(context.Background(), "SELECT year FROM movies WHERE m_id = 2")
	if _, err := db.ExecContext(context.Background(), "UPDATE movies SET year = 1.5"); err == nil {
		t.Error("lossy coercion should error")
	}
	after, _ := db.ExecContext(context.Background(), "SELECT year FROM movies WHERE m_id = 2")
	if before.Rel.Rows[0].Tuple[0].AsInt() != after.Rel.Rows[0].Tuple[0].AsInt() {
		t.Error("failed update mutated rows (should be atomic)")
	}
}

// TestInsertRejectsWrongKind pins the kind invariant on every write path
// into a table: the catalog API stores only NULL or the declared kind,
// while SQL INSERT, INSERT … SELECT and UPDATE still coerce losslessly
// (INT into FLOAT, an integral FLOAT into INT), keep their error texts and
// store nothing when any row fails.
func TestInsertRejectsWrongKind(t *testing.T) {
	db := setupDB(t)
	dirs, err := db.Catalog().Table("directors")
	if err != nil {
		t.Fatal(err)
	}
	v0, n0 := dirs.Version(), dirs.Len()
	for _, tuple := range [][]types.Value{
		{types.Str("7"), types.Str("X")},
		{types.Int(7), types.Int(7)},
		{types.Float(7), types.Str("X")},
	} {
		if err := dirs.Insert(tuple); err == nil || !strings.Contains(err.Error(), "cannot store") {
			t.Errorf("catalog Insert(%v): err = %v, want a kind error", tuple, err)
		}
	}
	if dirs.Version() != v0 || dirs.Len() != n0 {
		t.Errorf("rejected inserts moved Version %d→%d, Len %d→%d", v0, dirs.Version(), n0, dirs.Len())
	}
	if _, err := db.ExecContext(context.Background(), `CREATE TABLE recent (m_id INT, title TEXT, PRIMARY KEY (m_id))`); err != nil {
		t.Fatal(err)
	}
	for stmt, want := range map[string]string{
		`INSERT INTO directors VALUES ('x', 'y')`:             "engine: row 1 column d_id: cannot store TEXT value in INT column",
		`INSERT INTO directors VALUES (9, 'a'), ('x', 'y')`:   "engine: row 2 column d_id: cannot store TEXT value in INT column",
		`INSERT INTO directors VALUES (4.5, 'Z')`:             "engine: row 1 column d_id: value 4.5 is not an integer",
		`INSERT INTO recent SELECT title, m_id FROM movies`:   "engine: row 1 column m_id: cannot store TEXT value in INT column",
		`UPDATE movies SET year = 'nineteen'`:                 "engine: column year: cannot store TEXT value in INT column",
		`UPDATE movies SET title = year WHERE m_id = 1`:       "engine: column title: cannot store INT value in TEXT column",
		`UPDATE ratings SET votes = rating WHERE m_id = 1`:    "engine: column votes: value 8.2 is not an integer",
		`INSERT INTO ratings VALUES (9, 'high', 1)`:           "engine: row 1 column rating: cannot store TEXT value in FLOAT column",
		`INSERT INTO recent SELECT d_id, d_id FROM directors`: "engine: row 1 column title: cannot store INT value in TEXT column",
	} {
		if _, err := db.ExecContext(context.Background(), stmt); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", stmt, err, want)
		}
	}
	// Every row is checked before any is stored: no rejected statement
	// leaves a row behind.
	if got := dirs.Len(); got != n0 {
		t.Errorf("directors holds %d rows after the rejected statements, want %d", got, n0)
	}
	// Lossless conversions still land, stored as the column's kind.
	for _, stmt := range []string{
		`CREATE TABLE scores (id INT, s FLOAT)`,
		`INSERT INTO scores VALUES (2.0, 7)`,
		`INSERT INTO scores SELECT d_id, d_id FROM directors`,
		`UPDATE scores SET s = id, id = 4.0 WHERE id = 2`,
	} {
		if _, err := db.ExecContext(context.Background(), stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	res, err := db.ExecContext(context.Background(), `SELECT id, s FROM scores`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 4 {
		t.Fatalf("coerced rows: got %d, want 4", res.Rel.Len())
	}
	for _, row := range res.Rel.Rows {
		if row.Tuple[0].Kind() != types.KindInt || row.Tuple[1].Kind() != types.KindFloat {
			t.Errorf("row %v: kinds %s/%s, want INT/FLOAT", row.Tuple, row.Tuple[0].Kind(), row.Tuple[1].Kind())
		}
	}
}

// TestInsertMovesVersionOnce pins that one INSERT statement is one DML
// batch: a 3-row INSERT … VALUES and a 3-row INSERT … SELECT each move the
// table's Version() by exactly 1.
func TestInsertMovesVersionOnce(t *testing.T) {
	db := setupDB(t)
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, `CREATE TABLE crew (d_id INT, director TEXT)`); err != nil {
		t.Fatal(err)
	}
	crew, err := db.Catalog().Table("crew")
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`INSERT INTO crew VALUES (7, 'A'), (8, 'B'), (9, 'C')`,
		`INSERT INTO crew SELECT d_id, director FROM directors`,
	} {
		v0, n0 := crew.Version(), crew.Len()
		if _, err := db.ExecContext(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if got := crew.Len() - n0; got != 3 {
			t.Fatalf("%s stored %d rows, want 3", stmt, got)
		}
		if got := crew.Version() - v0; got != 1 {
			t.Errorf("%s moved Version() by %d, want 1", stmt, got)
		}
	}
}

func TestPreparedQueries(t *testing.T) {
	db := setupDB(t)
	q := `SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
	      PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres
	      TOP 2 BY score`
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.QueryContext(context.Background(), q, WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		res, err := p.RunContext(context.Background(), WithMode(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if diff := ref.Rel.Diff(res.Rel, 1e-9); diff != "" {
			t.Errorf("%v prepared differs: %s", m, diff)
		}
	}
	// Prepared plans see later inserts.
	if _, err := db.ExecContext(context.Background(), "INSERT INTO movies VALUES (9, 'Midnight in Paris', 2011, 94, 2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(context.Background(), "INSERT INTO genres VALUES (9, 'Comedy')"); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunContext(context.Background(), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rel.Rows {
		if row.Tuple[0].AsString() == "Midnight in Paris" {
			found = true
		}
	}
	if !found {
		t.Error("prepared query did not see new rows")
	}
	if p.Plan() == "" {
		t.Error("Plan() empty")
	}
	if _, err := db.Prepare("SELECT nope FROM movies"); err == nil {
		t.Error("bad query should fail to prepare")
	}
}

func TestExplainStatement(t *testing.T) {
	db := setupDB(t)
	res, err := db.ExecContext(context.Background(), `EXPLAIN SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
		PREFERRING genre = 'Comedy' SCORE 1 CONF 0.8 ON genres TOP 2 BY score`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel != nil {
		t.Error("EXPLAIN must not execute the query")
	}
	if !strings.Contains(res.Plan, "Prefer(") || !strings.Contains(res.Message, "Top(2, score)") {
		t.Errorf("explain output:\n%s", res.Message)
	}
	if _, err := db.ExecContext(context.Background(), "EXPLAIN INSERT INTO movies VALUES (1)"); err == nil {
		t.Error("EXPLAIN of non-SELECT should fail")
	}
}

func TestInsertSelect(t *testing.T) {
	db := setupDB(t)
	if _, err := db.ExecContext(context.Background(), `CREATE TABLE recent (m_id INT, title TEXT, PRIMARY KEY (m_id))`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecContext(context.Background(), `INSERT INTO recent SELECT m_id, title FROM movies WHERE year >= 2005`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != "inserted 3 rows into recent" {
		t.Errorf("message = %q", res.Message)
	}
	check, _ := db.ExecContext(context.Background(), "SELECT title FROM recent")
	if check.Rel.Len() != 3 {
		t.Errorf("rows = %d", check.Rel.Len())
	}
	// Preferential source query: scores are dropped, data lands.
	if _, err := db.ExecContext(context.Background(), `CREATE TABLE favs (m_id INT, title TEXT, PRIMARY KEY (m_id))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(context.Background(), `INSERT INTO favs SELECT m_id, title FROM movies
		PREFERRING year >= 2000 SCORE 1 CONF 0.9 ON movies TOP 2 BY score`); err != nil {
		t.Fatal(err)
	}
	favs, _ := db.ExecContext(context.Background(), "SELECT m_id FROM favs")
	if favs.Rel.Len() != 2 {
		t.Errorf("favs rows = %d", favs.Rel.Len())
	}
	for _, row := range favs.Rel.Rows {
		if row.SC.Known {
			t.Error("stored rows must not keep query-time scores")
		}
	}
	// Arity mismatch fails before mutating.
	before, _ := db.ExecContext(context.Background(), "SELECT m_id FROM recent")
	if _, err := db.ExecContext(context.Background(), `INSERT INTO recent SELECT title FROM movies`); err == nil {
		t.Error("arity mismatch should fail")
	}
	after, _ := db.ExecContext(context.Background(), "SELECT m_id FROM recent")
	if before.Rel.Len() != after.Rel.Len() {
		t.Error("failed INSERT SELECT mutated the table")
	}
	// Type mismatch fails too.
	if _, err := db.ExecContext(context.Background(), `INSERT INTO recent SELECT title, m_id FROM movies`); err == nil {
		t.Error("type mismatch should fail")
	}
}
