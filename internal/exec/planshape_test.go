package exec_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/bench"
	"prefdb/internal/catalog"
	"prefdb/internal/datagen"
	"prefdb/internal/exec"
	"prefdb/internal/optimizer"
	"prefdb/internal/planner"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// paperDB loads the synthetic IMDB and DBLP datasets into one catalog.
func paperDB(t testing.TB, scale float64) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	cfg := datagen.Config{Scale: scale, Seed: 42}
	if _, err := datagen.LoadIMDB(cat, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.LoadDBLP(cat, cfg); err != nil {
		t.Fatal(err)
	}
	return cat
}

// eventsDB builds a columnar events table and its tiers dimension in the
// layout of the scan benchmarks, small.
func eventsDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	events, err := cat.CreateTable("events", schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "year", Kind: types.KindInt},
		schema.Column{Name: "tier", Kind: types.KindString},
		schema.Column{Name: "rating", Kind: types.KindFloat},
		schema.Column{Name: "user_id", Kind: types.KindInt},
	).WithKey("id"))
	if err != nil {
		t.Fatal(err)
	}
	tiers := []string{"gold", "silver", "bronze", "basic"}
	for i := 0; i < 5000; i++ {
		if err := events.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(1970 + i%42)),
			types.Str(tiers[i%4]), types.Float(float64(i%101) / 10), types.Int(int64(i * 7 % 2000))}); err != nil {
			t.Fatal(err)
		}
	}
	dim, err := cat.CreateTable("tiers", schema.New(
		schema.Column{Name: "tier", Kind: types.KindString},
		schema.Column{Name: "weight", Kind: types.KindFloat},
	).WithKey("tier"))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range tiers {
		if err := dim.Insert([]types.Value{types.Str(name), types.Float(1 - 0.25*float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	events.ColStore()
	dim.ColStore()
	return cat
}

// servedTexts have the shapes of the served workload's IMDB statements
// (prepared top-k, ad-hoc join, streamed scan) and of the cast ladder.
var servedTexts = []string{
	`SELECT title, year FROM movies WHERE year >= 1950
		PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies,
		           duration <= 120 SCORE around(duration, 120) CONF 0.5 ON movies
		USING sum TOP 10 BY score`,
	`SELECT title, year FROM movies JOIN genres ON movies.m_id = genres.m_id WHERE year >= 1975
		PREFERRING genre = 'Comedy' SCORE 1 CONF 0.9 ON genres,
		           year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON movies
		USING sum TOP 10 BY score`,
	`SELECT title, year, duration FROM movies WHERE year >= 1950
		PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.8 ON movies,
		           duration <= 120 SCORE around(duration, 120) CONF 0.5 ON movies
		USING sum THRESHOLD conf >= 0.5`,
	`SELECT m_id, a_id FROM cast WHERE a_id >= 100 AND a_id < 120
		PREFERRING a_id < 110 SCORE 1 CONF 0.9 ON cast USING sum TOP 10 BY score`,
	`SELECT cast.m_id, a_id, title FROM cast JOIN movies ON cast.m_id = movies.m_id
		WHERE a_id >= 100 AND a_id < 120
		PREFERRING a_id < 110 SCORE 1 CONF 0.9 ON cast USING sum TOP 10 BY score`,
	`SELECT * FROM cast JOIN movies ON cast.m_id = movies.m_id WHERE a_id >= 100 AND a_id < 120
		PREFERRING a_id < 110 SCORE 1 CONF 0.9 ON cast USING sum`,
}

// scanTexts have the shapes of the scan workloads and the events ladder.
var scanTexts = []string{
	`SELECT id FROM events WHERE id >= 100 AND id <= 1099
		PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON events,
		           rating > 5 SCORE linear(rating, 0.1) CONF 0.8 ON events
		USING sum TOP 10 BY score`,
	`SELECT id FROM events WHERE id >= 100 AND id <= 1099 AND tier = 'gold'
		PREFERRING user_id >= 1000 SCORE linear(user_id, 0.0005) CONF 0.9 ON events,
		           rating > 5 SCORE linear(rating, 0.1) CONF 0.8 ON events
		USING sum THRESHOLD conf >= 0.5`,
	`SELECT id, user_id FROM events WHERE user_id < 200`,
	`SELECT id, user_id FROM events WHERE user_id < 200
		PREFERRING user_id < 100 SCORE 1 CONF 0.9 ON events USING sum TOP 10 BY score`,
	`SELECT id, user_id, weight FROM events JOIN tiers ON events.tier = tiers.tier WHERE user_id < 200
		PREFERRING user_id < 100 SCORE 1 CONF 0.9 ON events USING sum TOP 10 BY score`,
	`SELECT * FROM events JOIN tiers ON events.tier = tiers.tier WHERE user_id < 200
		PREFERRING user_id < 100 SCORE 1 CONF 0.9 ON events USING sum`,
}

// projections lists the projections of a plan in preorder.
func projections(n algebra.Node) []string {
	var out []string
	algebra.Walk(n, func(x algebra.Node) bool {
		if p, ok := x.(*algebra.Project); ok {
			out = append(out, p.String())
		}
		return true
	})
	return out
}

func plan(t *testing.T, cat *catalog.Catalog, sql string) algebra.Node {
	t.Helper()
	p, err := planner.New(cat).PlanQuery(sql)
	if err != nil {
		t.Fatalf("%v\n%s", err, sql)
	}
	return p.Root
}

// outputColumns renders a plan's output schema as "a.x, b.y".
func outputColumns(t *testing.T, cat *catalog.Catalog, n algebra.Node) string {
	t.Helper()
	s, err := (&algebra.Resolver{Catalog: cat, Funcs: pref.Functions()}).Resolve(n)
	if err != nil {
		t.Fatalf("%v\n%s", err, algebra.Format(n))
	}
	cols := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = c.Table + "." + c.Name
	}
	return strings.Join(cols, ", ")
}

// TestOnlyPlannerProjections pins heuristic 2 without interior
// projections: optimizing the Table II queries, the served and scan
// statement shapes and 200 random plans (on heap and columnar tables)
// adds, removes and moves no projection, and a reordered SELECT * join
// tree keeps the unoptimized column order through its top join's Cols,
// also when a preference is pushed into the tree after the reorder.
func TestOnlyPlannerProjections(t *testing.T) {
	check := func(label string, cat *catalog.Catalog, p algebra.Node) algebra.Node {
		t.Helper()
		opt := optimizer.New(cat).Optimize(p)
		if got, want := projections(opt), projections(p); !slices.Equal(got, want) {
			t.Errorf("%s: optimized projections %q, planned %q:\n%s", label, got, want, algebra.Format(opt))
		}
		return opt
	}
	paper := paperDB(t, 0.1)
	for _, q := range bench.AllQueries() {
		check(q.Name, paper, plan(t, paper, q.SQL))
	}
	for i, sql := range servedTexts {
		check(fmt.Sprintf("served %d", i), paper, plan(t, paper, sql))
	}
	events := eventsDB(t)
	for i, sql := range scanTexts {
		check(fmt.Sprintf("scan %d", i), events, plan(t, events, sql))
	}
	heap, columnar := exec.GeneratorDBs(t)
	for i, p := range exec.RandomPlans(20120401, 200) {
		check(fmt.Sprintf("random plan %d (heap)", i), heap, p)
		check(fmt.Sprintf("random plan %d (columnar)", i), columnar, p)
	}

	for _, tc := range []struct {
		name, sql string
		prefer    bool // the planner puts a preference over the joins
	}{
		{"3 relations", `SELECT * FROM movies JOIN genres ON movies.m_id = genres.m_id
			JOIN directors ON movies.d_id = directors.d_id`, false},
		{"4 relations", `SELECT * FROM movies JOIN cast ON movies.m_id = cast.m_id
			JOIN actors ON cast.a_id = actors.a_id JOIN genres ON movies.m_id = genres.m_id`, false},
		{"λ pushed after the reorder", `SELECT * FROM movies JOIN cast ON movies.m_id = cast.m_id
			JOIN genres ON movies.m_id = genres.m_id
			PREFERRING genre = 'Drama' SCORE recency(year, 2011) CONF 0.8 ON (movies, genres)`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := plan(t, paper, tc.sql)
			opt := check(tc.name, paper, p)
			if _, prefer := p.(*algebra.Prefer); prefer != tc.prefer {
				t.Fatalf("planned plan has a preference on top: %v, want %v", prefer, tc.prefer)
			}
			// A preference left above the reordered tree would be on top.
			top, ok := opt.(*algebra.Join)
			if !ok || top.Cols == nil {
				t.Fatalf("top of the reordered plan is not a join with Cols:\n%s", algebra.Format(opt))
			}
			if got, want := outputColumns(t, paper, opt), outputColumns(t, paper, p); got != want {
				t.Errorf("optimized columns\n%s\nwant\n%s\n%s", got, want, algebra.Format(opt))
			}
			want, err := exec.New(paper).Run(p, exec.Native)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.New(paper).Run(opt, exec.Native)
			if err != nil {
				t.Fatal(err)
			}
			if diff := want.Diff(got, 1e-9); diff != "" {
				t.Errorf("reordered plan changed the result:\n%s\n%s", algebra.Format(opt), diff)
			}
		})
	}
}

// TestTableIIAblationsAgree runs the six Table II queries at scale 0.1
// optimized with each Disable* flag set alone, under every strategy, and
// requires the unoptimized plan's native result: the same rows and pairs,
// or for a top-k query, whose cut may fall through rows tied on score,
// the same pairs.
func TestTableIIAblationsAgree(t *testing.T) {
	cat := paperDB(t, 0.1)
	for _, q := range bench.AllQueries() {
		t.Run(q.Name, func(t *testing.T) {
			p := plan(t, cat, q.SQL)
			want, err := exec.New(cat).Run(p, exec.Native)
			if err != nil {
				t.Fatal(err)
			}
			same := func(want, got *prel.PRelation) string { return want.Diff(got, 1e-9) }
			if _, topK := p.(*algebra.TopK); topK {
				same = samePairs
			}
			exec.CheckAblations(t, cat, p, func(exec.Strategy) *prel.PRelation { return want }, same)
		})
	}
}

// samePairs compares two results as multisets of ⟨S,C⟩ pairs.
func samePairs(want, got *prel.PRelation) string {
	pairs := func(r *prel.PRelation) *prel.PRelation {
		out := &prel.PRelation{Rows: make([]prel.Row, len(r.Rows))}
		for i, row := range r.Rows {
			out.Rows[i].SC = row.SC
		}
		return out
	}
	return pairs(want).Diff(pairs(got), 1e-9)
}
