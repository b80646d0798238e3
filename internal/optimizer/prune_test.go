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

// TestPruneUnderReorderedJoins pins projection pushdown under the
// column-order restoring projection of a reordered join: every scan
// feeding a join loses the columns referenced nowhere (an unqualified
// reference counts only for the relations in its operator's scope), the
// restore projection is narrowed to what the operators above read, and
// scans under a set operation keep their full layout.
func TestPruneUnderReorderedJoins(t *testing.T) {
	imdb := imdbDB(t)
	dblp := dblpDB(t)
	for _, tc := range []struct {
		name    string
		cat     *catalog.Catalog
		sql     string
		want    map[string]string // table → the projection over its scan
		dropped []string          // columns no projection over a join may keep
	}{
		{"IMDB-3", imdb, imdb3SQL, map[string]string{
			"cast":   "Project(cast.m_id, cast.a_id)",
			"movies": "Project(movies.m_id, movies.title, movies.year)",
			"actors": "", "genres": "", // every column referenced
		}, []string{"cast.role", "movies.duration", "movies.d_id"}},
		{"DBLP-3", dblp, dblp3SQL, map[string]string{
			"citations":    "Project(citations.p2_id)",
			"publications": "Project(publications.p_id, publications.title)",
			"conferences":  "Project(conferences.p_id, conferences.name, conferences.year)",
		}, []string{"publications.pub_type", "citations.p1_id", "conferences.location"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := planSQL(t, tc.cat, tc.sql)
			opt := New(tc.cat).Optimize(plan)
			f := algebra.Format(opt)
			got := scanProjections(opt)
			for table, w := range tc.want {
				if got[table] != w {
					t.Errorf("scan of %s sits under %q, want %q:\n%s", table, got[table], w, f)
				}
			}
			restores := 0
			algebra.Walk(opt, func(n algebra.Node) bool {
				p, ok := n.(*algebra.Project)
				if !ok {
					return true
				}
				if _, overJoin := p.Input.(*algebra.Join); overJoin {
					restores++
					for _, c := range p.Cols {
						for _, d := range tc.dropped {
							if c.String() == d {
								t.Errorf("restore projection keeps unreferenced %s:\n%s", d, f)
							}
						}
					}
				}
				return true
			})
			if restores == 0 {
				t.Fatalf("no projection over a reordered join:\n%s", f)
			}
			mustAgree(t, tc.cat, plan, opt)
		})
	}

	t.Run("set-operation", func(t *testing.T) {
		cat := testDB(t)
		plan := &algebra.Project{
			Cols: []expr.Col{expr.ColRef("title")},
			Input: joinOn(
				&algebra.Set{Op: algebra.SetUnion, Left: &algebra.Scan{Table: "movies"}, Right: &algebra.Scan{Table: "movies"}},
				&algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id"),
		}
		opt := New(cat).Optimize(plan)
		f := algebra.Format(opt)
		algebra.Walk(opt, func(n algebra.Node) bool {
			if s, ok := n.(*algebra.Set); ok {
				for _, c := range s.Children() {
					if _, bare := c.(*algebra.Scan); !bare {
						t.Errorf("scan under a set operation was pruned:\n%s", f)
					}
				}
				return false
			}
			return true
		})
		if scanProjections(opt)["genres"] != "Project(genres.m_id)" {
			t.Errorf("scan outside the set operation not pruned:\n%s", f)
		}
		mustAgree(t, cat, plan, opt)
	})

	t.Run("scoped-unqualified", func(t *testing.T) {
		// a and b both have tag; the unqualified tag is read only where a
		// alone is in scope, so b's tag is referenced nowhere.
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
		if got := scanProjections(opt)["b"]; got != "Project(b.id, b.y)" {
			t.Errorf("scan of b sits under %q, want Project(b.id, b.y):\n%s", got, algebra.Format(opt))
		}
		mustAgree(t, cat, plan, opt)
	})
}

// scanProjections maps each scanned table to the projection directly
// above its scan ("" for a bare scan).
func scanProjections(n algebra.Node) map[string]string {
	out := map[string]string{}
	algebra.Walk(n, func(x algebra.Node) bool {
		switch y := x.(type) {
		case *algebra.Project:
			if s, ok := y.Input.(*algebra.Scan); ok {
				out[s.Table] = y.String()
				return false
			}
		case *algebra.Scan:
			out[y.Table] = ""
		}
		return true
	})
	return out
}

// TestCollapseStackedProjections pins π_a(π_b(X)) → π_a(X): a's columns
// are re-qualified through b, the result is unchanged, and the rewrite
// is declined when a column of a is ambiguous in b's output — the plan
// keeps both projections and still reports the ambiguity.
func TestCollapseStackedProjections(t *testing.T) {
	cat := testDB(t)
	join := joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id")
	stacked := func(outer ...string) algebra.Node {
		var cols []expr.Col
		for _, c := range outer {
			cols = append(cols, expr.ColRef(c))
		}
		return &algebra.Project{Cols: cols, Input: &algebra.Project{
			Cols:  []expr.Col{expr.ColRef("movies.m_id"), expr.ColRef("movies.title"), expr.ColRef("genres.m_id"), expr.ColRef("genres.genre")},
			Input: join,
		}}
	}
	o := New(cat)

	plan := stacked("title", "genre")
	opt := o.collapseProjections(plan)
	if got := algebra.Format(opt); !strings.HasPrefix(got, "Project(movies.title, genres.genre)\n  Join(") {
		t.Fatalf("stacked projections not collapsed:\n%s", got)
	}
	mustAgree(t, cat, plan, opt)

	ambiguous := stacked("m_id")
	if got := o.collapseProjections(ambiguous); got != ambiguous {
		t.Fatalf("ambiguous m_id collapsed:\n%s", algebra.Format(got))
	}
	if _, err := exec.New(cat).Run(o.Optimize(ambiguous), exec.Native); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("optimized ambiguous plan: err = %v, want an ambiguous-column error", err)
	}
}

// TestBuildSideFollowsEstimates pins the build-side annotation: on the
// Table II shapes every join after the first builds on its base table
// (`[build-right]`) while DBLP-3's join with the larger citations keeps
// building left; ties, fallback estimates, [direct-join] joins and the
// join-order ablation keep building left too.
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
	opt := New(imdb).Optimize(planSQL(t, imdb, imdb3SQL))
	for _, j := range joins(opt) {
		_, afterFirst := j.Left.(*algebra.Join)
		if p, ok := j.Left.(*algebra.Project); ok {
			_, afterFirst = p.Input.(*algebra.Join)
		}
		if j.BuildRight != afterFirst {
			t.Errorf("IMDB-3 join %s: BuildRight = %v, want %v\n%s", j, j.BuildRight, afterFirst, algebra.Format(opt))
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
	dt, err := small.Table("directors")
	if err != nil {
		t.Fatal(err)
	}
	dt.ColStore()
	j := joins(New(small).Optimize(smaller))[0]
	if !j.DirectJoin || j.BuildRight {
		t.Errorf("direct join: DirectJoin = %v, BuildRight = %v; want a direct join building left", j.DirectJoin, j.BuildRight)
	}
	// The mark follows the table, not the freshness of its image: after
	// DML the next scan of the columnar table rebuilds the image.
	if err := dt.Insert([]types.Value{types.Int(99), types.Str("new")}); err != nil {
		t.Fatal(err)
	}
	if j := joins(New(small).Optimize(smaller))[0]; !j.DirectJoin {
		t.Errorf("direct join lost its mark after DML on a columnar table:\n%s", algebra.Format(j))
	}
}
