package prefdb

import (
	"bytes"
	"context"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	db := Open()
	stmts := []string{
		`CREATE TABLE movies (m_id INT, title TEXT, year INT, PRIMARY KEY (m_id))`,
		`INSERT INTO movies VALUES (1, 'Gran Torino', 2008), (2, 'Wall Street', 1987), (3, 'Scoop', 2006)`,
	}
	for _, s := range stmts {
		if _, err := db.ExecContext(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.ExecContext(context.Background(), `SELECT title FROM movies
		PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
		TOP 2 BY score`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("rows = %d", res.Rel.Len())
	}
	if got := res.Rel.Rows[0].Tuple[0].AsString(); got != "Gran Torino" {
		t.Errorf("top = %q", got)
	}
	if !res.Rel.Rows[0].SC.Known {
		t.Error("top row should carry a score")
	}
}

func TestPublicAPIModes(t *testing.T) {
	db := Open()
	if _, err := LoadIMDB(db, DatagenConfig{Scale: 0.01, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT title FROM movies
	      JOIN genres ON movies.m_id = genres.m_id
	      PREFERRING genre = 'Drama' SCORE 1 CONF 0.8 ON genres
	      TOP 5 BY score`
	ref, err := db.QueryContext(context.Background(), q, WithMode(ModeNative))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		res, err := db.QueryContext(context.Background(), q, WithMode(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Rel.Len() != ref.Rel.Len() {
			t.Errorf("%v: %d rows, want %d", m, res.Rel.Len(), ref.Rel.Len())
		}
	}
	if m, err := ParseMode("ftp"); err != nil || m != ModeFtP {
		t.Error("ParseMode failed")
	}
}

func TestPublicValues(t *testing.T) {
	if Int(3).AsInt() != 3 || Float(1.5).AsFloat() != 1.5 || Str("x").AsString() != "x" || !Bool(true).AsBool() || !Null().IsNull() {
		t.Error("value constructors broken")
	}
}

func TestLoadDBLPPublic(t *testing.T) {
	db := Open()
	sizes, err := LoadDBLP(db, DatagenConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sizes["publications"] == 0 {
		t.Errorf("sizes = %v", sizes)
	}
	res, err := db.ExecContext(context.Background(), `SELECT title FROM publications
		JOIN conferences ON publications.p_id = conferences.p_id
		PREFERRING name = 'ICDE' SCORE 1 CONF 0.9 ON conferences
		TOP 3 BY score`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() == 0 {
		t.Error("empty result")
	}
}

func TestRootProfileAndPreferenceAPI(t *testing.T) {
	db := Open()
	if _, err := db.ExecContext(context.Background(), `CREATE TABLE movies (m_id INT, title TEXT, year INT, PRIMARY KEY (m_id))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(context.Background(), `INSERT INTO movies VALUES (1, 'A', 2008), (2, 'B', 1990)`); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePreference("year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies AS recent")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "recent" || len(p.On) != 1 {
		t.Errorf("parsed preference = %+v", p)
	}
	if _, err := ParsePreference("not a preference"); err == nil {
		t.Error("bad clause should error")
	}
	if _, err := ParsePreference("x > 1 SCORE 1 CONF 7 ON r"); err == nil {
		t.Error("invalid confidence should error")
	}
	store := NewProfileStore()
	if err := store.Add("u", p); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), "SELECT title FROM movies RANK BY score", WithProfile(store, "u"), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Rows[0].SC.Known || res.Rel.Rows[0].Tuple[0].AsString() != "A" {
		t.Errorf("profile query top = %v", res.Rel.Rows[0])
	}
}

func TestRootSnapshotAndPrepared(t *testing.T) {
	db := Open()
	if _, err := LoadIMDB(db, DatagenConfig{Scale: 0.01, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT title FROM movies
	      PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
	      TOP 3 BY score`
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.RunContext(context.Background(), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(db, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.QueryContext(context.Background(), q, WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	if diff := ref.Rel.Diff(res.Rel, 1e-9); diff != "" {
		t.Errorf("restored db differs: %s", diff)
	}
}

func TestRootCompoundQuery(t *testing.T) {
	db := Open()
	for _, s := range []string{
		`CREATE TABLE t (id INT, PRIMARY KEY (id))`,
		`INSERT INTO t VALUES (1), (2), (3)`,
	} {
		if _, err := db.ExecContext(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.ExecContext(context.Background(), `SELECT id FROM t WHERE id <= 2 UNION SELECT id FROM t WHERE id >= 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 3 {
		t.Errorf("union rows = %d", res.Rel.Len())
	}
	upd, err := db.ExecContext(context.Background(), `UPDATE t SET id = id + 10 WHERE id = 3`)
	if err != nil || upd.Message == "" {
		t.Fatalf("update: %v", err)
	}
	del, err := db.ExecContext(context.Background(), `DELETE FROM t WHERE id = 13`)
	if err != nil || del.Message == "" {
		t.Fatalf("delete: %v", err)
	}
}

func TestRootQualitativeOrder(t *testing.T) {
	db := Open()
	for _, s := range []string{
		`CREATE TABLE genres (m_id INT, genre TEXT, PRIMARY KEY (m_id, genre))`,
		`INSERT INTO genres VALUES (1, 'Comedy'), (2, 'Drama'), (3, 'Horror')`,
	} {
		if _, err := db.ExecContext(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := NewQualitativeOrder("genres", "genre").
		Chain(Str("Comedy"), Str("Drama"), Str("Horror")).
		Compile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	store := NewProfileStore()
	if err := store.Add("alice", ps...); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), "SELECT m_id, genre FROM genres RANK BY score", WithProfile(store, "alice"), WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Rows[0].Tuple[1].AsString() != "Comedy" {
		t.Errorf("top genre = %v", res.Rel.Rows[0].Tuple)
	}
	if res.Rel.Rows[2].Tuple[1].AsString() != "Horror" {
		t.Errorf("bottom genre = %v", res.Rel.Rows[2].Tuple)
	}
}
