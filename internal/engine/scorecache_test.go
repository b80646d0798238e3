package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"prefdb/internal/types"
)

const cachePrefQuery = `SELECT title, year FROM movies
	PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
	RANK BY score`

// growMovies adds 2000 movies with ~50 distinct years, taking the table
// past the optimizer's scoreCacheMinRows floor so cachePrefQuery's prefer
// operator is marked for memoization.
func growMovies(t *testing.T, db *DB) {
	t.Helper()
	tbl, err := db.Catalog().Table("movies")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		err := tbl.Insert([]types.Value{
			types.Int(int64(100 + i)), types.Str(fmt.Sprintf("bulk-%d", i)),
			types.Int(int64(1960 + i%50)), types.Int(int64(90 + i%60)), types.Int(int64(1 + i%3)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// hintedDBs returns the grown test database, on which the optimizer
// marks cachePrefQuery for memoization, and the same data with the
// optimizer off: its plans carry no cache hint, so it is the unmemoized
// reference. exec applies a statement to both.
func hintedDBs(t *testing.T) (db, ref *DB, exec func(sql string)) {
	t.Helper()
	db, ref = setupDB(t), setupDB(t, WithOptimizer(false))
	growMovies(t, db)
	growMovies(t, ref)
	exec = func(sql string) {
		t.Helper()
		for _, d := range []*DB{db, ref} {
			if _, err := d.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, ref, exec
}

// mustMatchReference runs cachePrefQuery on the unhinted reference and
// requires got to return the same rows and ⟨S,C⟩ pairs.
func mustMatchReference(t *testing.T, ref *DB, got *Result, label string) {
	t.Helper()
	want, err := ref.QueryContext(context.Background(), cachePrefQuery, WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	if s := want.Stats; s.CacheHits+s.CacheMisses != 0 {
		t.Fatalf("reference run memoized: %+v", s)
	}
	if diff := want.Rel.Diff(got.Rel, 0); diff != "" {
		t.Errorf("%s differs from the unhinted reference: %s", label, diff)
	}
}

// TestPreparedScoreDictionaryReuse pins the level-2 lifecycle on the path
// the optimizer enables by default: a prepared statement's second run
// takes every score from the engine's dictionary (zero misses), and any
// DML on a referenced table invalidates it.
func TestPreparedScoreDictionaryReuse(t *testing.T) {
	db, ref, exec := hintedDBs(t)
	p, err := db.Prepare(cachePrefQuery)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		t.Helper()
		res, err := p.RunContext(context.Background(), WithMode(ModeGBU))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := run()
	if cold.Stats.CacheMisses == 0 {
		t.Fatalf("cold run should miss: %+v", cold.Stats)
	}
	mustMatchReference(t, ref, cold, "cold run")
	warm := run()
	if warm.Stats.CacheMisses != 0 || warm.Stats.ScoreEvals != 0 {
		t.Errorf("warm run should be all dictionary hits: %+v", warm.Stats)
	}
	if diff := cold.Rel.Diff(warm.Rel, 0); diff != "" {
		t.Errorf("warm run differs: %s", diff)
	}

	// DML on the referenced table bumps its version; the stale dictionary
	// must be dropped, and the new row scored fresh.
	exec("INSERT INTO movies VALUES (9, 'Midnight in Paris', 2011, 94, 2)")
	after := run()
	if after.Stats.CacheMisses == 0 {
		t.Errorf("post-DML run reused a stale dictionary: %+v", after.Stats)
	}
	if after.Rel.Len() != warm.Rel.Len()+1 {
		t.Fatalf("post-DML rows = %d, want %d", after.Rel.Len(), warm.Rel.Len()+1)
	}
	mustMatchReference(t, ref, after, "post-INSERT run")
	// 2011 scores recency(2011,2011)=1: the new movie must rank first.
	if got := after.Rel.Rows[0].Tuple[0].AsString(); got != "Midnight in Paris" {
		t.Errorf("top row = %q", got)
	}

	// An UPDATE invalidates too.
	exec("UPDATE movies SET year = 2010 WHERE m_id = 2")
	postUpdate := run()
	if postUpdate.Stats.CacheMisses == 0 {
		t.Errorf("post-UPDATE run reused a stale dictionary: %+v", postUpdate.Stats)
	}
	mustMatchReference(t, ref, postUpdate, "post-UPDATE run")
}

// TestAdHocQueriesSkipDictionary: only prepared statements get the
// cross-query dictionary; back-to-back ad-hoc runs each start cold (the
// per-query memo still works within a run).
func TestAdHocQueriesSkipDictionary(t *testing.T) {
	db, ref, _ := hintedDBs(t)
	for i := 0; i < 2; i++ {
		res, err := db.QueryContext(context.Background(), cachePrefQuery, WithMode(ModeGBU))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheMisses == 0 || res.Stats.CacheHits == 0 {
			t.Errorf("ad-hoc run %d should start cold and then hit its own memo: %+v", i, res.Stats)
		}
		mustMatchReference(t, ref, res, fmt.Sprintf("ad-hoc run %d", i))
	}
}

// TestScoreCacheModesAgree runs the hinted query under every evaluation
// mode; each must return the unhinted reference's result.
func TestScoreCacheModesAgree(t *testing.T) {
	db, ref, _ := hintedDBs(t)
	want, err := ref.QueryContext(context.Background(), cachePrefQuery, WithMode(ModeGBU))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		res, err := db.QueryContext(context.Background(), cachePrefQuery, WithMode(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if diff := want.Rel.Diff(res.Rel, 1e-9); diff != "" {
			t.Errorf("%v differs: %s", m, diff)
		}
	}
}

// TestExplainShowsCacheDecision: on a relation past the heuristic's row
// floor with a low-cardinality key, EXPLAIN reports the optimizer's
// decision to cache (operator marker with the ndv estimate).
func TestExplainShowsCacheDecision(t *testing.T) {
	db := setupDB(t)
	growMovies(t, db)
	res, err := db.Exec("EXPLAIN " + cachePrefQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "[cache ndv≈") {
		t.Errorf("EXPLAIN misses the cache decision:\n%s", res.Message)
	}
	// The small genres-keyed query in setupDB stays unannotated.
	small, err := db.Exec(`EXPLAIN SELECT director FROM directors
		PREFERRING director = 'W. Allen' SCORE 1 CONF 0.9 ON directors RANK BY score`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(small.Message, "[cache ndv≈") {
		t.Errorf("small relation wrongly annotated:\n%s", small.Message)
	}
}
