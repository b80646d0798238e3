package prefdb

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"prefdb/internal/bench"
	"prefdb/internal/engine"
)

// Benchmarks regenerating the paper's evaluation. Each benchmark
// corresponds to an experiment in EXPERIMENTS.md; `cmd/benchrunner` prints
// the same measurements as paper-style tables. The shared environment uses
// scale 0.1 (≈2k movies / 2k papers) so `go test -bench=.` completes in
// minutes; use benchrunner -scale to go bigger.

const benchScale = 0.1

var (
	envOnce  sync.Once
	benchEnv *bench.Env
)

func sharedEnv(b *testing.B) *bench.Env {
	envOnce.Do(func() { benchEnv = bench.NewEnv(benchScale) })
	return benchEnv
}

func benchQuery(b *testing.B, db *engine.DB, sql string, mode engine.Mode) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), sql, WithMode(mode))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkWorkload reproduces E2 (§VII-B): the six Table II queries under
// every reported strategy.
func BenchmarkWorkload(b *testing.B) {
	e := sharedEnv(b)
	for _, q := range bench.AllQueries() {
		db, err := e.DBFor(q)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range bench.ReportModes() {
			b.Run(q.Name+"/"+mode.String(), func(b *testing.B) {
				benchQuery(b, db, q.SQL, mode)
			})
		}
	}
}

// BenchmarkOptimizationEffect reproduces E1 (Fig. 7 / Example 12): the
// same query with and without the preference-aware optimizer.
func BenchmarkOptimizationEffect(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	q := bench.IMDBQueries()[1] // IMDB-2: 4 relations, 3 preferences
	for _, optimized := range []bool{false, true} {
		label := "baseline"
		if optimized {
			label = "optimized"
		}
		b.Run(label, func(b *testing.B) {
			db.Optimize = optimized
			defer func() { db.Optimize = true }()
			benchQuery(b, db, q.SQL, engine.ModeGBU)
		})
	}
}

// BenchmarkVaryPreferences reproduces E3: query cost as the number of
// preferences λ grows, per strategy.
func BenchmarkVaryPreferences(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	for _, lambda := range []int{1, 4, 16} {
		sql := bench.QueryWithNPreferences(lambda)
		for _, mode := range []engine.Mode{engine.ModeGBU, engine.ModeFtP, engine.ModePluginNaive, engine.ModePluginMerged} {
			b.Run(fmt.Sprintf("lambda=%d/%s", lambda, mode), func(b *testing.B) {
				benchQuery(b, db, sql, mode)
			})
		}
	}
}

// BenchmarkVarySelectivity reproduces E4: preference conditional-part
// selectivity sweep.
func BenchmarkVarySelectivity(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	for _, cutoff := range []int{1940, 2000, 2011} {
		sql := fmt.Sprintf(`SELECT title, year FROM movies
			JOIN genres ON movies.m_id = genres.m_id
			PREFERRING year >= %d SCORE recency(year, 2011) CONF 0.9 ON movies
			USING sum TOP 10 BY score`, cutoff)
		b.Run(fmt.Sprintf("year>=%d", cutoff), func(b *testing.B) {
			benchQuery(b, db, sql, engine.ModeGBU)
		})
	}
}

// BenchmarkVaryResultSize reproduces E5: WHERE selectivity sweep (result
// size N).
func BenchmarkVaryResultSize(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	for _, cutoff := range []int{2010, 1995, 1930} {
		sql := fmt.Sprintf(`SELECT title, year FROM movies
			JOIN genres ON movies.m_id = genres.m_id
			WHERE year >= %d
			PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres
			USING sum RANK BY score`, cutoff)
		b.Run(fmt.Sprintf("year>=%d", cutoff), func(b *testing.B) {
			benchQuery(b, db, sql, engine.ModeGBU)
		})
	}
}

// BenchmarkVaryRelations reproduces E6: number of joined relations |R|.
func BenchmarkVaryRelations(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	joins := []string{
		"JOIN genres ON movies.m_id = genres.m_id",
		"JOIN directors ON movies.d_id = directors.d_id",
		"JOIN ratings ON movies.m_id = ratings.m_id",
		"JOIN cast ON movies.m_id = cast.m_id",
	}
	for n := 1; n <= len(joins); n++ {
		sql := "SELECT title, year FROM movies\n"
		for _, j := range joins[:n] {
			sql += j + "\n"
		}
		sql += `WHERE year >= 2000
			PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres
			USING sum TOP 10 BY score`
		b.Run(fmt.Sprintf("R=%d", n+1), func(b *testing.B) {
			benchQuery(b, db, sql, engine.ModeGBU)
		})
	}
}

// BenchmarkVaryScale reproduces E7: scalability with database size.
func BenchmarkVaryScale(b *testing.B) {
	q := bench.IMDBQueries()[0]
	for _, scale := range []float64{0.05, 0.1, 0.2} {
		env := bench.NewEnv(scale)
		db, err := env.IMDB()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			benchQuery(b, db, q.SQL, engine.ModeGBU)
		})
	}
}

// BenchmarkFiltering reproduces E8: filtering flavors over one evaluated
// query (§V).
func BenchmarkFiltering(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	base := `SELECT title, year FROM movies
		JOIN genres ON movies.m_id = genres.m_id
		WHERE year >= 1990
		PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres,
		           year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON movies
		USING sum `
	for _, f := range []struct{ name, clause string }{
		{"topk", "TOP 10 BY score"},
		{"threshold", "THRESHOLD conf >= 1.5"},
		{"skyline", "SKYLINE"},
		{"attr-skyline", "SKYLINE OF year MAX, duration MIN"},
		{"rank", "RANK BY score"},
	} {
		b.Run(f.name, func(b *testing.B) {
			benchQuery(b, db, base+f.clause, engine.ModeGBU)
		})
	}
}

// BenchmarkAggregates reproduces E9: the aggregate-function ablation.
func BenchmarkAggregates(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	for _, agg := range []string{"sum", "max", "maxscore", "mult"} {
		sql := fmt.Sprintf(`SELECT title FROM movies
			JOIN genres ON movies.m_id = genres.m_id
			PREFERRING genre = 'Drama' SCORE 0.9 CONF 0.8 ON genres,
			           year >= 2000 SCORE recency(year, 2011) CONF 0.6 ON movies
			USING %s TOP 10 BY score`, agg)
		b.Run(agg, func(b *testing.B) {
			benchQuery(b, db, sql, engine.ModeGBU)
		})
	}
}

// BenchmarkTable2Queries times query compilation (parse + plan + optimize)
// separately from execution.
func BenchmarkPlanning(b *testing.B) {
	e := sharedEnv(b)
	db, err := e.IMDB()
	if err != nil {
		b.Fatal(err)
	}
	q := bench.IMDBQueries()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryPlan(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
}
