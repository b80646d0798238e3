package optimizer

import (
	"strings"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/types"
)

// derivedSelects lists the plan's derived selections.
func derivedSelects(n algebra.Node) []*algebra.Select {
	var out []*algebra.Select
	algebra.Walk(n, func(x algebra.Node) bool {
		if s, ok := x.(*algebra.Select); ok && s.Derived {
			out = append(out, s)
		}
		return true
	})
	return out
}

// TestDeriveThresholdSelect pins heuristic 1's derived σ: under a
// threshold that rejects ⟨⊥,0⟩, the disjunction of the λ chain's
// conditions becomes a selection that lands on the relation it reads,
// below a join, and the result is unchanged. No σ is derived when the
// threshold accepts ⟨⊥,0⟩, a condition is TRUE, the chain's input is
// already scored, or only one table is read.
func TestDeriveThresholdSelect(t *testing.T) {
	imdb := imdbDB(t)
	for _, tc := range []struct {
		name, threshold string
	}{
		{"IMDB-3", "THRESHOLD conf >= 0.6"},
		{"conf > 0", "THRESHOLD conf > 0"},
		{"score", "THRESHOLD score < 0.9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := planSQL(t, imdb, strings.Replace(imdb3SQL, "THRESHOLD conf >= 0.6", tc.threshold, 1))
			opt := New(imdb).Optimize(plan)
			f := algebra.Format(opt)
			ds := derivedSelects(opt)
			if len(ds) != 1 {
				t.Fatalf("%d derived selections, want 1:\n%s", len(ds), f)
			}
			if got, want := ds[0].Cond.String(), "((genres.genre = 'Action') OR (genres.genre = 'Drama'))"; got != want {
				t.Errorf("derived %s, want %s", got, want)
			}
			if scan, ok := ds[0].Input.(*algebra.Scan); !ok || scan.Table != "genres" {
				t.Errorf("derived σ is not on the genres scan:\n%s", f)
			}
			if !strings.Contains(f, "[derived]") {
				t.Errorf("EXPLAIN misses [derived]:\n%s", f)
			}
			// The whole tree reorders around it: the filtered genres lead.
			n := algebra.Node(opt)
			for len(n.Children()) > 0 {
				n = n.Children()[0]
			}
			if scan, ok := n.(*algebra.Scan); !ok || scan.Table != "genres" {
				t.Errorf("leftmost factor is not genres:\n%s", f)
			}
			mustAgree(t, imdb, plan, opt)
		})
	}
	for _, threshold := range []string{"THRESHOLD conf >= 0", "THRESHOLD conf <= 0.6", "THRESHOLD conf < 0.6"} {
		t.Run(threshold, func(t *testing.T) {
			plan := planSQL(t, imdb, strings.Replace(imdb3SQL, "THRESHOLD conf >= 0.6", threshold, 1))
			opt := New(imdb).Optimize(plan)
			if ds := derivedSelects(opt); len(ds) != 0 {
				t.Errorf("derived %s under a threshold that keeps ⟨⊥,0⟩:\n%s", ds[0].Cond, algebra.Format(opt))
			}
			mustAgree(t, imdb, plan, opt)
		})
	}

	cat := testDB(t)
	join := joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id")
	drama := pref.Constant("drama", "genres", expr.Eq("genre", types.Str("Drama")), 1, 0.8)
	comedy := pref.Constant("comedy", "genres", expr.Eq("genres.genre", types.Str("Comedy")), 0.5, 0.6)
	recent := pref.New("recent", "movies", expr.Cmp("movies.year", expr.OpGe, types.Int(2010)), pref.Recency("movies.year", 2020), 0.9)
	member := pref.Membership("member", []string{"movies", "genres"}, 1, 0.7)
	threshold := func(in algebra.Node) algebra.Node {
		return &algebra.Threshold{By: algebra.ByConf, Op: expr.OpGe, Value: 0.5, Input: in}
	}
	for _, tc := range []struct {
		name string
		plan algebra.Node
		want int
	}{
		{"over a join", threshold(&algebra.Prefer{P: drama, Input: &algebra.Prefer{P: comedy, Input: join}}), 1},
		// movies.year >= 2010 OR genres.genre = 'Drama' reads both inputs:
		// it cannot go below the join, so it is not kept.
		{"across the join", threshold(&algebra.Prefer{P: drama, Input: &algebra.Prefer{P: recent, Input: join}}), 0},
		{"TRUE condition", threshold(&algebra.Prefer{P: drama, Input: &algebra.Prefer{P: member, Input: join}}), 0},
		{"scored input", threshold(&algebra.Prefer{P: drama, Input: joinOn(
			&algebra.Prefer{P: recent, Input: &algebra.Scan{Table: "movies"}},
			&algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id")}), 0},
		{"single table", threshold(&algebra.Prefer{P: recent, Input: &algebra.Select{
			Cond: expr.Cmp("movies.duration", expr.OpLt, types.Int(150)), Input: &algebra.Scan{Table: "movies"}}}), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := New(cat).Optimize(tc.plan)
			if got := len(derivedSelects(opt)); got != tc.want {
				t.Errorf("%d derived selections, want %d:\n%s", got, tc.want, algebra.Format(opt))
			}
			mustAgree(t, cat, tc.plan, opt)
		})
	}
	// The single-table plan is the one the optimizer gives without a
	// threshold over it.
	single := &algebra.Prefer{P: recent, Input: &algebra.Select{
		Cond: expr.Cmp("movies.duration", expr.OpLt, types.Int(150)), Input: &algebra.Scan{Table: "movies"}}}
	got := New(cat).Optimize(threshold(single)).(*algebra.Threshold).Input
	if want := New(cat).Optimize(single); algebra.Format(got) != algebra.Format(want) {
		t.Errorf("single-table plan changed:\n%s\nwant:\n%s", algebra.Format(got), algebra.Format(want))
	}

	t.Run("not an index path", func(t *testing.T) {
		// movies.year has a B+-tree index. A derived movies.year >= 2000
		// under a join must run as a filter, so it returns the rows of the
		// unindexable year + 0 form.
		rows := func(cond expr.Node) *algebra.Threshold {
			p := pref.New("recent", "movies", cond, pref.Recency("movies.year", 2011), 0.9)
			return &algebra.Threshold{By: algebra.ByScore, Op: expr.OpGt, Value: 0, Input: &algebra.Prefer{P: p,
				Input: joinOn(&algebra.Scan{Table: "movies"}, &algebra.Scan{Table: "genres"}, "movies.m_id", "genres.m_id")}}
		}
		sargable := rows(expr.Cmp("movies.year", expr.OpGe, types.Int(2000)))
		plus := rows(expr.Bin{Op: expr.OpGe,
			L: expr.Bin{Op: expr.OpAdd, L: expr.ColRef("movies.year"), R: expr.Lit{Val: types.Int(0)}},
			R: expr.Lit{Val: types.Int(2000)}})
		if movies, err := imdb.Table("movies"); err != nil {
			t.Fatal(err)
		} else if _, ok := movies.BTreeIndexOn("year"); !ok {
			t.Fatal("fixture lost its movies.year index")
		}
		for _, plan := range []algebra.Node{sargable, plus} {
			if ds := derivedSelects(New(imdb).Optimize(plan)); len(ds) != 1 {
				t.Fatalf("%d derived selections, want 1", len(ds))
			}
		}
		mustAgree(t, imdb, New(imdb).Optimize(plus), New(imdb).Optimize(sargable))
		mustAgree(t, imdb, sargable, New(imdb).Optimize(sargable))
	})
}
