package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"prefdb/internal/datagen"
	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// TestConcurrentReadOnlyQueries runs many queries in parallel against one
// database: each query gets its own executor, so read-only workloads must
// be race-free (run with -race).
func TestConcurrentReadOnlyQueries(t *testing.T) {
	db := setupDB(t)
	queries := []string{
		`SELECT title FROM movies WHERE year >= 2000
		 PREFERRING year >= 2005 SCORE recency(year, 2011) CONF 0.9 ON movies
		 TOP 3 BY score`,
		`SELECT title FROM movies JOIN genres ON movies.m_id = genres.m_id
		 PREFERRING genre = 'Comedy' SCORE 1 CONF 0.8 ON genres
		 RANK BY score`,
		`SELECT title FROM movies JOIN ratings ON movies.m_id = ratings.m_id
		 PREFERRING votes > 500 SCORE linear(rating, 0.1) CONF 0.7 ON ratings
		 SKYLINE`,
	}
	modes := []Mode{ModeNative, ModeGBU, ModeFtP, ModePluginNaive}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := queries[(w+i)%len(queries)]
				m := modes[(w+i)%len(modes)]
				res, err := db.QueryContext(context.Background(), q, WithMode(m))
				if err != nil {
					errs <- err
					return
				}
				if res.Rel == nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// workloadQueries is the six-query evaluation workload (Table II),
// inlined from internal/bench to avoid an import cycle: queries named
// DBLP-* run against the bibliography database, the rest against IMDB.
var workloadQueries = map[string]string{
	"IMDB-1": `SELECT title, year FROM movies
	      JOIN genres ON movies.m_id = genres.m_id
	      WHERE year >= 1990
	      PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres,
	                 year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON movies
	      USING sum TOP 10 BY score`,
	"IMDB-2": `SELECT title, director FROM movies
	      JOIN directors ON movies.d_id = directors.d_id
	      JOIN genres ON movies.m_id = genres.m_id
	      JOIN ratings ON movies.m_id = ratings.m_id
	      WHERE year >= 1980
	      PREFERRING genre = 'Drama' SCORE 0.9 CONF 0.8 ON genres,
	                 votes > 500 SCORE linear(rating, 0.1) CONF 0.8 ON ratings,
	                 duration <= 120 SCORE around(duration, 120) CONF 0.5 ON movies
	      USING sum TOP 20 BY score`,
	"IMDB-3": `SELECT title, actor FROM movies
	      JOIN cast ON movies.m_id = cast.m_id
	      JOIN actors ON cast.a_id = actors.a_id
	      JOIN genres ON movies.m_id = genres.m_id
	      WHERE year >= 2000
	      PREFERRING genre = 'Action' SCORE recency(year, 2011) CONF 0.8 ON (movies, genres),
	                 genre = 'Drama' SCORE 1 CONF 0.6 ON genres
	      USING sum THRESHOLD conf >= 0.6`,
	"DBLP-1": `SELECT title, name FROM publications
	      JOIN conferences ON publications.p_id = conferences.p_id
	      PREFERRING name = 'ICDE' SCORE 1 CONF 0.9 ON conferences,
	                 year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON conferences
	      USING sum TOP 10 BY score`,
	"DBLP-2": `SELECT title, name FROM publications
	      JOIN pub_authors ON publications.p_id = pub_authors.p_id
	      JOIN authors ON pub_authors.a_id = authors.a_id
	      PREFERRING pub_type = 'article' SCORE 0.8 CONF 0.9 ON publications,
	                 pub_authors.a_id < 100 SCORE 1 CONF 0.7 ON pub_authors
	      USING sum TOP 25 BY score`,
	"DBLP-3": `SELECT title FROM publications
	      JOIN citations ON publications.p_id = citations.p2_id
	      JOIN conferences ON publications.p_id = conferences.p_id
	      WHERE year >= 1990
	      PREFERRING name IN ('SIGMOD', 'VLDB', 'ICDE') SCORE 1 CONF 0.8 ON conferences,
	                 year >= 2005 SCORE recency(year, 2011) CONF 0.9 ON conferences
	      USING max SKYLINE`,
}

// sameRelation reports whether two p-relations are identical in
// cardinality, row order, tuples and ⟨S,C⟩ pairs.
func sameRelation(want, got *prel.PRelation) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("cardinality %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if !types.TupleEqual(want.Rows[i].Tuple, got.Rows[i].Tuple) {
			return fmt.Errorf("row %d tuple = %v, want %v", i, got.Rows[i].Tuple, want.Rows[i].Tuple)
		}
		if want.Rows[i].SC != got.Rows[i].SC {
			return fmt.Errorf("row %d SC = %v, want %v", i, got.Rows[i].SC, want.Rows[i].SC)
		}
	}
	return nil
}

// TestConcurrentParallelWorkload stress-tests concurrent queries: the
// full six-query workload runs from eight goroutines against shared
// databases (each query gets its own executor), and every result must
// match the reference computed before any goroutine starts. Run with
// -race.
func TestConcurrentParallelWorkload(t *testing.T) {
	imdb, dblp := Open(), Open()
	if _, err := datagen.LoadIMDB(imdb.Catalog(), datagen.Config{Scale: 0.1, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.LoadDBLP(dblp.Catalog(), datagen.Config{Scale: 0.1, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	dbFor := func(name string) *DB {
		if name[0] == 'D' {
			return dblp
		}
		return imdb
	}

	// Sequential references, computed before any goroutine starts.
	modes := []Mode{ModeNative, ModeGBU, ModeFtP, ModePluginNaive}
	type key struct {
		query string
		mode  Mode
	}
	refs := make(map[key]*prel.PRelation)
	names := make([]string, 0, len(workloadQueries))
	for name, sql := range workloadQueries {
		names = append(names, name)
		for _, m := range modes {
			res, err := dbFor(name).QueryContext(context.Background(), sql, WithMode(m))
			if err != nil {
				t.Fatalf("%s %v: %v", name, m, err)
			}
			refs[key{name, m}] = res.Rel
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*len(names); i++ {
				name := names[(w+i)%len(names)]
				m := modes[(w+i)%len(modes)]
				res, err := dbFor(name).QueryContext(context.Background(), workloadQueries[name], WithMode(m))
				if err != nil {
					errs <- fmt.Errorf("%s %v: %w", name, m, err)
					return
				}
				if err := sameRelation(refs[key{name, m}], res.Rel); err != nil {
					errs <- fmt.Errorf("%s %v: %w", name, m, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
