package optimizer

import (
	"strings"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/datagen"
	"prefdb/internal/exec"
	"prefdb/internal/expr"
	"prefdb/internal/planner"
	"prefdb/internal/pref"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// imdbDB loads the synthetic IMDB schema at scale 0.25 (≈5 000 movies).
func imdbDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := datagen.LoadIMDB(c, datagen.Config{Scale: 0.25, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return c
}

// imdb3SQL and dblp3SQL have the shapes of Table II's IMDB-3 and DBLP-3:
// four- and three-way joins the optimizer reorders, unqualified
// references in SELECT, WHERE and PREFERRING.
const (
	imdb3SQL = `SELECT title, actor FROM movies
		JOIN cast ON movies.m_id = cast.m_id
		JOIN actors ON cast.a_id = actors.a_id
		JOIN genres ON movies.m_id = genres.m_id
		WHERE year >= 2000
		PREFERRING genre = 'Action' SCORE recency(year, 2011) CONF 0.8 ON (movies, genres),
		           genre = 'Drama' SCORE 1 CONF 0.6 ON genres
		USING sum THRESHOLD conf >= 0.6`
	dblp3SQL = `SELECT title FROM publications
		JOIN citations ON publications.p_id = citations.p2_id
		JOIN conferences ON publications.p_id = conferences.p_id
		WHERE year >= 1990
		PREFERRING name IN ('SIGMOD', 'VLDB', 'ICDE') SCORE 1 CONF 0.8 ON conferences,
		           year >= 2005 SCORE recency(year, 2011) CONF 0.9 ON conferences
		USING max SKYLINE`
)

func dblpDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := datagen.LoadDBLP(c, datagen.Config{Scale: 0.1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return c
}

func planSQL(t *testing.T, cat *catalog.Catalog, sql string) algebra.Node {
	t.Helper()
	p, err := planner.New(cat).PlanQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	return p.Root
}

// mustAgree runs the unoptimized and the optimized plan and requires the
// same multiset of rows and pairs.
func mustAgree(t *testing.T, cat *catalog.Catalog, plan, opt algebra.Node) {
	t.Helper()
	want, err := exec.New(cat).Run(plan, exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.New(cat).Run(opt, exec.Native)
	if err != nil {
		t.Fatalf("optimized plan failed:\n%s\n%v", algebra.Format(opt), err)
	}
	if diff := want.Diff(got, 1e-9); diff != "" {
		t.Fatalf("optimized plan changed the result:\n%s\n%s", algebra.Format(opt), diff)
	}
}

// TestPruneUnderReorderedJoins pins projection pushdown on reordered
// join trees: no projection is added, every join keeps through its Cols
// only the columns the operators above it read (an unqualified reference
// counts only for the relations in its operator's scope), the top join
// lists them in the unoptimized column order, and joins under a set
// operation keep their full layout.
func TestPruneUnderReorderedJoins(t *testing.T) {
	imdb := imdbDB(t)
	dblp := dblpDB(t)
	for _, tc := range []struct {
		name    string
		cat     *catalog.Catalog
		sql     string
		top     string   // the top join's output columns
		dropped []string // columns no join may output
	}{
		{"IMDB-3", imdb, imdb3SQL,
			"movies.title, movies.year, actors.actor, genres.genre",
			[]string{"cast.role", "movies.duration", "movies.d_id"}},
		{"DBLP-3", dblp, dblp3SQL,
			"publications.title, conferences.name, conferences.year",
			[]string{"publications.pub_type", "citations.p1_id", "conferences.location"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := planSQL(t, tc.cat, tc.sql)
			opt := New(tc.cat).Optimize(plan)
			f := algebra.Format(opt)
			if got, want := algebra.CountOps(opt)["project"], algebra.CountOps(plan)["project"]; got != want {
				t.Errorf("optimized plan has %d projections, the planner made %d:\n%s", got, want, f)
			}
			outs := joinOutputs(t, tc.cat, opt)
			if len(outs) == 0 || outs[0] != tc.top {
				t.Errorf("top join outputs %v, want %s:\n%s", outs, tc.top, f)
			}
			for _, out := range outs {
				for _, d := range tc.dropped {
					if strings.Contains(", "+out+",", ", "+d+",") {
						t.Errorf("a join outputs unreferenced %s:\n%s", d, f)
					}
				}
			}
			mustAgree(t, tc.cat, plan, opt)
		})
	}

	t.Run("set-operation", func(t *testing.T) {
		cat := testDB(t)
		union := &algebra.Set{Op: algebra.SetUnion,
			Left:  joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "directors"}, "movies.d_id", "directors.d_id"),
			Right: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "directors"}, "movies.d_id", "directors.d_id")}
		plan := &algebra.Project{
			Cols:  []expr.Col{expr.ColRef("title")},
			Input: joinOn(union, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
		}
		opt := New(cat).Optimize(plan)
		f := algebra.Format(opt)
		algebra.Walk(opt, func(n algebra.Node) bool {
			if s, ok := n.(*algebra.Set); ok {
				algebra.Walk(s, func(x algebra.Node) bool {
					if j, ok := x.(*algebra.Join); ok && j.Cols != nil {
						t.Errorf("join under a set operation was pruned:\n%s", f)
					}
					return true
				})
				return false
			}
			return true
		})
		if got := joinOutputs(t, cat, opt)[0]; got != "movies.title" {
			t.Errorf("join over the set operation outputs %s:\n%s", got, f)
		}
		mustAgree(t, cat, plan, opt)
	})

	t.Run("scoped-unqualified", func(t *testing.T) {
		// a and b both have tag; the unqualified tag is read only where a
		// alone is in scope, below the join, so the join keeps neither
		// tag (nor the keys only its own condition reads).
		cat := catalog.New()
		for name, cols := range map[string][]string{"a": {"id", "x", "tag"}, "b": {"id", "tag", "y"}} {
			var sc []schema.Column
			for _, c := range cols {
				sc = append(sc, schema.Column{Name: c, Kind: types.KindInt})
			}
			tbl, err := cat.CreateTable(name, schema.New(sc...))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := tbl.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(i % 3)), types.Int(int64(i % 5))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		plan := &algebra.Project{
			Cols: []expr.Col{expr.ColRef("a.x"), expr.ColRef("b.y")},
			Input: joinOn(&algebra.Select{Cond: expr.Cmp("tag", expr.OpLt, types.Int(2)), Input: &algebra.Scan{Table: "a"}},
				&algebra.Scan{Table: "b"}, "a.id", "b.id"),
		}
		opt := New(cat).Optimize(plan)
		if got := joinOutputs(t, cat, opt)[0]; got != "a.x, b.y" {
			t.Errorf("join outputs %s, want a.x, b.y:\n%s", got, algebra.Format(opt))
		}
		mustAgree(t, cat, plan, opt)
	})
}

// joinOutputs lists the output columns of every join in n, preorder,
// each rendered "a.x, b.y".
func joinOutputs(t *testing.T, cat *catalog.Catalog, n algebra.Node) []string {
	t.Helper()
	resolver := &algebra.Resolver{Catalog: cat, Funcs: pref.Functions()}
	var out []string
	algebra.Walk(n, func(x algebra.Node) bool {
		if j, ok := x.(*algebra.Join); ok {
			s, err := resolver.Resolve(j)
			if err != nil {
				t.Fatalf("%s: %v", j, err)
			}
			cols := make([]string, len(s.Columns))
			for i, c := range s.Columns {
				cols[i] = c.Table + "." + c.Name
			}
			out = append(out, strings.Join(cols, ", "))
		}
		return true
	})
	return out
}

// TestBuildSideFollowsEstimates pins the build-side annotation: on
// IMDB-3 each hash join builds on its input with the smaller estimate
// (`[build-right]` exactly when the right one is smaller), while DBLP-3's
// join with the larger citations keeps building left; ties, fallback
// estimates and the join-order ablation keep building left too, and a
// columnar right input builds right by its estimate like a heap one.
func TestBuildSideFollowsEstimates(t *testing.T) {
	imdb := imdbDB(t)
	joins := func(n algebra.Node) []*algebra.Join {
		var out []*algebra.Join
		algebra.Walk(n, func(x algebra.Node) bool {
			if j, ok := x.(*algebra.Join); ok {
				out = append(out, j)
			}
			return true
		})
		return out
	}
	o := New(imdb)
	opt := o.Optimize(planSQL(t, imdb, imdb3SQL))
	for _, j := range joins(opt) {
		l, r := o.EstimateRows(j.Left), o.EstimateRows(j.Right)
		if want := r < l; j.BuildRight != want {
			t.Errorf("IMDB-3 join %s (estimates %.0f ⋈ %.0f): BuildRight = %v, want %v\n%s", j, l, r, j.BuildRight, want, algebra.Format(opt))
		}
	}
	if !strings.Contains(algebra.Format(opt), "[build-right]") {
		t.Errorf("EXPLAIN misses [build-right]:\n%s", algebra.Format(opt))
	}

	dblp := dblpDB(t)
	opt = New(dblp).Optimize(planSQL(t, dblp, dblp3SQL))
	for _, j := range joins(opt) {
		if strings.Contains(j.Cond.String(), "citations") && j.BuildRight {
			t.Errorf("DBLP-3 join with citations builds right:\n%s", algebra.Format(opt))
		}
	}

	small := testDB(t)
	tie := joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id")
	guess := joinOn(&algebra.GroupAgg{By: []expr.Col{expr.ColRef("movies.d_id")}, Input: &algebra.Scan{Table: "movies"}},
		&algebra.Scan{Table: "directors"}, "movies.d_id", "directors.d_id")
	smaller := joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "directors"}, "movies.d_id", "directors.d_id")
	noReorder := New(small)
	noReorder.DisableJoinReorder = true
	for _, tc := range []struct {
		name string
		o    *Optimizer
		plan algebra.Node
		want bool
	}{
		{"smaller right input", New(small), smaller, true},
		{"tie", New(small), tie, false},
		{"fallback estimate", New(small), guess, false},
		{"join-order ablation", noReorder, smaller, false},
	} {
		if got := joins(tc.o.Optimize(tc.plan))[0].BuildRight; got != tc.want {
			t.Errorf("%s: BuildRight = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A columnar right input is estimated like a heap one, so it builds
	// right by the same rule, and still does after DML moves its image.
	dt, err := small.Table("directors")
	if err != nil {
		t.Fatal(err)
	}
	dt.ColStore()
	if j := joins(New(small).Optimize(smaller))[0]; !j.BuildRight {
		t.Errorf("columnar right input: BuildRight = false, want true\n%s", algebra.Format(j))
	}
	if err := dt.Insert([]types.Value{types.Int(99), types.Str("new")}); err != nil {
		t.Fatal(err)
	}
	if j := joins(New(small).Optimize(smaller))[0]; !j.BuildRight {
		t.Errorf("columnar right input after DML: BuildRight = false, want true\n%s", algebra.Format(j))
	}
}

// TestJoinColsPerOperator pins every join's output columns on Table II's
// IMDB-3 and DBLP-3 at scale 0.1, preorder: each join outputs only what
// the operators above it read, so a join key is dropped after the last
// join that reads it. The optimized plans must still agree with the
// unoptimized ones, and the ablation must leave every join whole.
func TestJoinColsPerOperator(t *testing.T) {
	imdb, dblp := catalog.New(), catalog.New()
	if _, err := datagen.LoadIMDB(imdb, datagen.Config{Scale: 0.1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.LoadDBLP(dblp, datagen.Config{Scale: 0.1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		sql  string
		want []string
	}{
		{"IMDB-3", imdb, imdb3SQL, []string{
			"movies.title, movies.year, actors.actor, genres.genre",
			"genres.genre, movies.title, movies.year, cast.a_id",
			"genres.genre, movies.m_id, movies.title, movies.year",
		}},
		{"DBLP-3", dblp, dblp3SQL, []string{
			"publications.title, conferences.name, conferences.year",
			"conferences.name, conferences.year, publications.p_id, publications.title",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := planSQL(t, tc.cat, tc.sql)
			opt := New(tc.cat).Optimize(plan)
			if got := joinOutputs(t, tc.cat, opt); strings.Join(got, " | ") != strings.Join(tc.want, " | ") {
				t.Errorf("join outputs\n%q\nwant\n%q\n%s", got, tc.want, algebra.Format(opt))
			}
			mustAgree(t, tc.cat, plan, opt)
			// Without pruning, every join outputs every column of its
			// relations.
			o := New(tc.cat)
			o.DisableProjectionPushdown = true
			ablated := o.Optimize(plan)
			algebra.Walk(ablated, func(n algebra.Node) bool {
				if j, ok := n.(*algebra.Join); ok {
					width := 0
					for rel := range algebra.BaseRelations(j) {
						tbl, err := tc.cat.Table(rel)
						if err != nil {
							t.Fatal(err)
						}
						width += tbl.Schema().Len()
					}
					if got := strings.Count(joinOutputs(t, tc.cat, j)[0], ",") + 1; got != width {
						t.Errorf("ablated plan's join outputs %d of %d columns:\n%s", got, width, algebra.Format(ablated))
					}
				}
				return true
			})
		})
	}
}
