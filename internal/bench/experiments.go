package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"prefdb/internal/engine"
	"prefdb/internal/exec"
	"prefdb/internal/prel"
)

// Experiment regenerates one table or figure of the paper's evaluation.
type Experiment struct {
	// ID is the short key used by `benchrunner -exp <id>`.
	ID string
	// Title describes what is reproduced.
	Title string
	// Paper names the corresponding table/figure in the paper.
	Paper string
	// Run executes the experiment and writes its table to w; canceling
	// ctx aborts the experiment between (and within) measurements.
	Run func(ctx context.Context, e *Env, w io.Writer, repeats int) error
}

// Experiments returns the full suite in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Sizes of basic tables", Paper: "Table I", Run: runTable1},
		{ID: "table2", Title: "Workload query properties", Paper: "Table II", Run: runTable2},
		{ID: "optimization", Title: "Effect of query optimization", Paper: "Fig. 7 / Example 12", Run: runOptimization},
		{ID: "workload", Title: "Strategy comparison on the six workload queries", Paper: "§VII-B", Run: runWorkload},
		{ID: "prefs", Title: "Varying the number of preferences λ", Paper: "§VII (λ sweep)", Run: runVaryPreferences},
		{ID: "selectivity", Title: "Varying preference selectivity", Paper: "§VII (selectivity sweep)", Run: runVarySelectivity},
		{ID: "resultsize", Title: "Varying the result size N", Paper: "§VII (N sweep)", Run: runVaryResultSize},
		{ID: "relations", Title: "Varying the number of joined relations |R|", Paper: "§VII (|R| sweep)", Run: runVaryRelations},
		{ID: "scale", Title: "Scalability with database size", Paper: "§VII (scalability)", Run: runVaryScale},
		{ID: "filtering", Title: "Filtering strategies over one evaluated query", Paper: "§V (filtering flavors)", Run: runFiltering},
		{ID: "aggregates", Title: "Aggregate-function ablation", Paper: "§IV-A (F_S vs F_max)", Run: runAggregates},
		{ID: "optablation", Title: "Optimizer heuristic ablation", Paper: "§VI-A (heuristics 1-5)", Run: runOptimizerAblation},
	}
}

// FindExperiment resolves an experiment by ID.
func FindExperiment(id string) (Experiment, error) {
	for _, ex := range Experiments() {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

func header(w io.Writer, cols ...string) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

func modeRow(w io.Writer, label string, ms []Measurement) {
	fmt.Fprint(w, label)
	for _, m := range ms {
		fmt.Fprintf(w, "\t%.2fms/%d", float64(m.Duration.Microseconds())/1000, m.Stats.TuplesMaterialized)
	}
	fmt.Fprintln(w)
}

func modeHeader(w io.Writer, first string) {
	cols := []string{first}
	for _, m := range ReportModes() {
		cols = append(cols, m.String()+" (time/materialized)")
	}
	header(w, cols...)
}

// --- Table I ---

func runTable1(ctx context.Context, e *Env, w io.Writer, _ int) error {
	if _, err := e.IMDB(); err != nil {
		return err
	}
	if _, err := e.DBLP(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Sizes of basic tables (scale %.2f; ratios follow the paper's Table I)\n", e.Scale)
	fmt.Fprint(w, e.imdbSizes.String())
	fmt.Fprint(w, e.dblpSizes.String())
	return nil
}

// --- Table II ---

func runTable2(ctx context.Context, e *Env, w io.Writer, _ int) error {
	header(w, "query", "N", "|R|", "λ", "P/NP")
	for _, q := range AllQueries() {
		db, err := e.DBFor(q)
		if err != nil {
			return err
		}
		res, err := db.QueryContext(ctx, q.SQL, engine.WithMode(engine.ModeGBU))
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d/%d\n", q.Name, res.Rel.Len(), q.R, q.Lambda, q.P, q.NP)
	}
	return nil
}

// --- E1: effect of query optimization (Fig. 7) ---

func runOptimization(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	header(w, "query", "plan", "mode", "time", "cells", "preferEvals")
	for _, q := range IMDBQueries() {
		db, err := e.DBFor(q)
		if err != nil {
			return err
		}
		for _, optimize := range []bool{false, true} {
			db.Optimize = optimize
			label := "baseline"
			if optimize {
				label = "optimized"
			}
			// The paper excludes BU from its evaluation ("GBU is an improved
			// method over BU"); we report GBU and FtP. Under BU, heuristic 2's
			// pruning projections each become an extra materialization step,
			// an honest trade-off recorded in EXPERIMENTS.md.
			for _, mode := range []engine.Mode{engine.ModeGBU, engine.ModeFtP} {
				m, err := Measure(ctx, db, q.SQL, mode, repeats)
				if err != nil {
					db.Optimize = true
					return fmt.Errorf("%s (%s): %w", q.Name, label, err)
				}
				fmt.Fprintf(w, "%s\t%s\t%v\t%.2fms\t%d\t%d\n",
					q.Name, label, mode, float64(m.Duration.Microseconds())/1000,
					m.Stats.CellsMaterialized, m.Stats.PreferEvals)
			}
		}
		db.Optimize = true
	}
	return nil
}

// --- E2: the six workload queries across strategies ---

func runWorkload(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	modeHeader(w, "query")
	for _, q := range AllQueries() {
		db, err := e.DBFor(q)
		if err != nil {
			return err
		}
		ms, err := CompareModes(ctx, db, q.SQL, ReportModes(), repeats)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		modeRow(w, q.Name, ms)
	}
	return nil
}

// --- E3: varying the number of preferences λ ---

var sweepGenres = []string{
	"Comedy", "Drama", "Action", "Thriller", "Romance", "Horror", "Crime",
	"Adventure", "Sci-Fi", "Animation", "Mystery", "Fantasy", "Biography",
	"War", "Western", "Sport",
}

// QueryWithNPreferences builds an IMDB-1-style query with λ preferences on
// genres (distinct genre equality conditions).
func QueryWithNPreferences(lambda int) string {
	var prefs []string
	for i := 0; i < lambda; i++ {
		g := sweepGenres[i%len(sweepGenres)]
		conf := 0.5 + 0.4*float64(i%2)
		prefs = append(prefs, fmt.Sprintf("genre = '%s' SCORE %0.1f CONF %0.1f ON genres", g, 1.0-0.05*float64(i%8), conf))
	}
	return fmt.Sprintf(`SELECT title, year FROM movies
		JOIN genres ON movies.m_id = genres.m_id
		WHERE year >= 1990
		PREFERRING %s
		USING sum TOP 10 BY score`, strings.Join(prefs, ",\n\t\t"))
}

func runVaryPreferences(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	db, err := e.IMDB()
	if err != nil {
		return err
	}
	modeHeader(w, "λ")
	for _, lambda := range []int{1, 2, 4, 8, 16} {
		sql := QueryWithNPreferences(lambda)
		ms, err := CompareModes(ctx, db, sql, ReportModes(), repeats)
		if err != nil {
			return fmt.Errorf("λ=%d: %w", lambda, err)
		}
		modeRow(w, fmt.Sprintf("%d", lambda), ms)
	}
	return nil
}

// --- E4: varying preference selectivity ---

func runVarySelectivity(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	db, err := e.IMDB()
	if err != nil {
		return err
	}
	modeHeader(w, "pref-year≥")
	// year >= X over the skewed-recent year distribution: later cutoffs
	// make the preference's conditional part more selective.
	for _, cutoff := range []int{1940, 1980, 2000, 2008, 2011} {
		sql := fmt.Sprintf(`SELECT title, year FROM movies
			JOIN genres ON movies.m_id = genres.m_id
			PREFERRING year >= %d SCORE recency(year, 2011) CONF 0.9 ON movies
			USING sum TOP 10 BY score`, cutoff)
		ms, err := CompareModes(ctx, db, sql, ReportModes(), repeats)
		if err != nil {
			return fmt.Errorf("cutoff=%d: %w", cutoff, err)
		}
		modeRow(w, fmt.Sprintf("%d", cutoff), ms)
	}
	return nil
}

// --- E5: varying the result size N ---

func runVaryResultSize(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	db, err := e.IMDB()
	if err != nil {
		return err
	}
	modeHeader(w, "N")
	for _, cutoff := range []int{2010, 2005, 1995, 1975, 1930} {
		sql := fmt.Sprintf(`SELECT title, year FROM movies
			JOIN genres ON movies.m_id = genres.m_id
			WHERE year >= %d
			PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres
			USING sum RANK BY score`, cutoff)
		// Report the actual result cardinality as the row label.
		res, err := db.QueryContext(ctx, sql, engine.WithMode(engine.ModeGBU))
		if err != nil {
			return err
		}
		ms, err := CompareModes(ctx, db, sql, ReportModes(), repeats)
		if err != nil {
			return fmt.Errorf("cutoff=%d: %w", cutoff, err)
		}
		modeRow(w, fmt.Sprintf("%d", res.Rel.Len()), ms)
	}
	return nil
}

// --- E6: varying the number of joined relations |R| ---

func runVaryRelations(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	db, err := e.IMDB()
	if err != nil {
		return err
	}
	joins := []string{
		"JOIN genres ON movies.m_id = genres.m_id",
		"JOIN directors ON movies.d_id = directors.d_id",
		"JOIN ratings ON movies.m_id = ratings.m_id",
		"JOIN cast ON movies.m_id = cast.m_id",
	}
	modeHeader(w, "|R|")
	for n := 1; n <= len(joins); n++ {
		sql := fmt.Sprintf(`SELECT title, year FROM movies
			%s
			WHERE year >= 2000
			PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres,
			           year >= 2005 SCORE recency(year, 2011) CONF 0.8 ON movies
			USING sum TOP 10 BY score`, strings.Join(joins[:n], "\n\t\t\t"))
		ms, err := CompareModes(ctx, db, sql, ReportModes(), repeats)
		if err != nil {
			return fmt.Errorf("|R|=%d: %w", n+1, err)
		}
		modeRow(w, fmt.Sprintf("%d", n+1), ms)
	}
	return nil
}

// --- E7: scalability with database size ---

func runVaryScale(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	modeHeader(w, "scale")
	q := IMDBQueries()[0]
	for _, factor := range []float64{0.25, 0.5, 1, 2} {
		sub := NewEnv(e.Scale * factor)
		sub.Seed = e.Seed
		db, err := sub.IMDB()
		if err != nil {
			return err
		}
		ms, err := CompareModes(ctx, db, q.SQL, ReportModes(), repeats)
		if err != nil {
			return fmt.Errorf("scale %v: %w", factor, err)
		}
		modeRow(w, fmt.Sprintf("%.2gx", factor), ms)
	}
	return nil
}

// --- E8: filtering strategies over the same evaluated query ---

func runFiltering(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	db, err := e.IMDB()
	if err != nil {
		return err
	}
	base := `SELECT title, year FROM movies
		JOIN genres ON movies.m_id = genres.m_id
		WHERE year >= 1990
		PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres,
		           year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON movies
		USING sum `
	header(w, "filter", "rows", "time")
	for _, f := range []struct{ label, clause string }{
		{"top-10 by score", "TOP 10 BY score"},
		{"top-10 by conf", "TOP 10 BY conf"},
		{"threshold conf>=1.5", "THRESHOLD conf >= 1.5"},
		{"threshold score>=0.8", "THRESHOLD score >= 0.8"},
		{"skyline (score,conf)", "SKYLINE"},
		{"skyline of year/duration", "SKYLINE OF year MAX, duration MIN"},
		{"rank-all", "RANK BY score"},
	} {
		m, err := Measure(ctx, db, base+f.clause, engine.ModeGBU, repeats)
		if err != nil {
			return fmt.Errorf("%s: %w", f.label, err)
		}
		fmt.Fprintf(w, "%s\t%d\t%.2fms\n", f.label, m.Rows, float64(m.Duration.Microseconds())/1000)
	}
	return nil
}

// --- E9: aggregate-function ablation ---

func runAggregates(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	db, err := e.IMDB()
	if err != nil {
		return err
	}
	template := `SELECT title, director FROM movies
		JOIN directors ON movies.d_id = directors.d_id
		JOIN genres ON movies.m_id = genres.m_id
		JOIN ratings ON movies.m_id = ratings.m_id
		WHERE year >= 1980
		PREFERRING genre = 'Drama' SCORE 0.9 CONF 0.8 ON genres,
		           votes > 500 SCORE linear(rating, 0.1) CONF 0.8 ON ratings,
		           duration <= 120 SCORE around(duration, 120) CONF 0.5 ON movies
		USING %s TOP 10 BY score`
	refRes, err := db.QueryContext(ctx, fmt.Sprintf(template, "sum"), engine.WithMode(engine.ModeGBU))
	if err != nil {
		return err
	}
	refSet := topSet(refRes.Rel)
	header(w, "aggregate", "time", "overlap@10 vs sum")
	for _, agg := range []string{"sum", "max", "maxscore", "mult"} {
		sql := fmt.Sprintf(template, agg)
		m, err := Measure(ctx, db, sql, engine.ModeGBU, repeats)
		if err != nil {
			return fmt.Errorf("%s: %w", agg, err)
		}
		res, err := db.QueryContext(ctx, sql, engine.WithMode(engine.ModeGBU))
		if err != nil {
			return err
		}
		overlap := 0
		for key := range topSet(res.Rel) {
			if refSet[key] {
				overlap++
			}
		}
		fmt.Fprintf(w, "%s\t%.2fms\t%d/%d\n", agg, float64(m.Duration.Microseconds())/1000, overlap, len(refSet))
	}
	return nil
}

func topSet(rel *prel.PRelation) map[string]bool {
	out := map[string]bool{}
	for _, row := range rel.Rows {
		out[prel.Fingerprint(row.Tuple)] = true
	}
	return out
}

// SummarizeStats renders a stats table sorted by mode name (helper for the
// CLI).
func SummarizeStats(ms []Measurement) string {
	sorted := append([]Measurement(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Mode < sorted[j].Mode })
	var b strings.Builder
	for _, m := range sorted {
		fmt.Fprintf(&b, "%-14s %8.2fms  rows=%-6d %v\n",
			m.Mode, float64(m.Duration.Microseconds())/1000, m.Rows, m.Stats)
	}
	return b.String()
}

var _ = exec.Stats{} // keep the exec import for Measurement's field type

// --- E10: optimizer heuristic ablation ---

func runOptimizerAblation(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	db, err := e.IMDB()
	if err != nil {
		return err
	}
	q, err := FindQuery("IMDB-2")
	if err != nil {
		return err
	}
	opt := db.Optimizer()
	reset := func() {
		opt.DisableSelectPushdown = false
		opt.DisableProjectionPushdown = false
		opt.DisablePreferPushdown = false
		opt.DisablePreferReorder = false
		opt.DisableJoinReorder = false
	}
	defer reset()
	// Warm up statistics and caches so the first configuration is not
	// penalized.
	if _, err := Measure(ctx, db, q.SQL, engine.ModeGBU, 1); err != nil {
		return err
	}
	header(w, "configuration", "gbu time", "materialized", "bu time", "materialized")
	configs := []struct {
		label string
		set   func()
	}{
		{"all heuristics", reset},
		{"no select pushdown (h1)", func() { reset(); opt.DisableSelectPushdown = true }},
		{"no projection pushdown (h2)", func() { reset(); opt.DisableProjectionPushdown = true }},
		{"no prefer pushdown (h3/h4)", func() { reset(); opt.DisablePreferPushdown = true }},
		{"no prefer reorder (h5)", func() { reset(); opt.DisablePreferReorder = true }},
		{"no join reorder", func() { reset(); opt.DisableJoinReorder = true }},
		{"optimizer off", nil},
	}
	for _, c := range configs {
		if c.set != nil {
			c.set()
			db.Optimize = true
		} else {
			reset()
			db.Optimize = false
		}
		g, err := Measure(ctx, db, q.SQL, engine.ModeGBU, repeats)
		if err != nil {
			db.Optimize = true
			return fmt.Errorf("%s: %w", c.label, err)
		}
		b, err := Measure(ctx, db, q.SQL, engine.ModeBU, repeats)
		if err != nil {
			db.Optimize = true
			return fmt.Errorf("%s: %w", c.label, err)
		}
		fmt.Fprintf(w, "%s\t%.2fms\t%d\t%.2fms\t%d\n",
			c.label, float64(g.Duration.Microseconds())/1000, g.Stats.TuplesMaterialized,
			float64(b.Duration.Microseconds())/1000, b.Stats.TuplesMaterialized)
	}
	db.Optimize = true
	return nil
}
