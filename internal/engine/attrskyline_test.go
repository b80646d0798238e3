package engine

import (
	"context"
	"strings"
	"testing"
)

// TestAttributeSkyline exercises the Börzsönyi-style SKYLINE OF filter on
// the classic example shape: maximize rating while minimizing duration.
func TestAttributeSkyline(t *testing.T) {
	db := setupDB(t)
	q := `SELECT title, duration, rating FROM movies
	      JOIN ratings ON movies.m_id = ratings.m_id
	      SKYLINE OF rating MAX, duration MIN`
	res, err := db.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Data: (GT 116min 8.2) (WS 126 7.4) (MDB 132 8.1) (MP 124 7.7) (S 96 6.8).
	// Skyline: Gran Torino (best rating AND short), Scoop (shortest).
	// Wall Street is dominated by Gran Torino (shorter, higher rating);
	// Million Dollar Baby and Match Point by Gran Torino too.
	titles := map[string]bool{}
	for _, row := range res.Rel.Rows {
		titles[row.Tuple[0].AsString()] = true
	}
	if len(titles) != 2 || !titles["Gran Torino"] || !titles["Scoop"] {
		t.Errorf("skyline = %v", titles)
	}
}

func TestAttributeSkylineBruteForce(t *testing.T) {
	// Oracle check on the generated dataset: BNL result = pairwise scan.
	db := Open()
	if _, err := db.ExecContext(context.Background(), `CREATE TABLE pts (id INT, x INT, y INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	// Deterministic pseudo-random points, including ties and duplicates.
	xs := []int64{3, 7, 7, 1, 9, 4, 9, 2, 5, 5, 8, 0, 6, 3, 9}
	ys := []int64{4, 2, 2, 9, 1, 4, 5, 8, 5, 5, 3, 9, 1, 7, 1}
	for i := range xs {
		if _, err := db.ExecContext(context.Background(),
			"INSERT INTO pts VALUES ("+
				itoa(int64(i))+", "+itoa(xs[i])+", "+itoa(ys[i])+")"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.ExecContext(context.Background(), `SELECT id, x, y FROM pts SKYLINE OF x MAX, y MAX`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for _, row := range res.Rel.Rows {
		got[row.Tuple[0].AsInt()] = true
	}
	// Brute force.
	want := map[int64]bool{}
	for i := range xs {
		dominated := false
		for j := range xs {
			if xs[j] >= xs[i] && ys[j] >= ys[i] && (xs[j] > xs[i] || ys[j] > ys[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			want[int64(i)] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("skyline = %v, want %v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing %d: %v vs %v", id, got, want)
		}
	}
}

func TestAttributeSkylineNullsRankWorst(t *testing.T) {
	db := Open()
	must := func(s string) {
		if _, err := db.ExecContext(context.Background(), s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	must(`CREATE TABLE v (id INT, x INT, PRIMARY KEY (id))`)
	must(`INSERT INTO v VALUES (1, 5), (2, NULL), (3, 5)`)
	res, err := db.ExecContext(context.Background(), `SELECT id FROM v SKYLINE OF x MAX`)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, row := range res.Rel.Rows {
		ids[row.Tuple[0].AsInt()] = true
	}
	// NULL is dominated by any number; the two fives tie and both survive.
	if len(ids) != 2 || !ids[1] || !ids[3] {
		t.Errorf("skyline = %v", ids)
	}
	// All-NULL input: nothing dominates, everything survives.
	must(`CREATE TABLE w (id INT, x INT, PRIMARY KEY (id))`)
	must(`INSERT INTO w VALUES (1, NULL), (2, NULL)`)
	res2, err := db.ExecContext(context.Background(), `SELECT id FROM w SKYLINE OF x MAX`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rel.Len() != 2 {
		t.Errorf("all-null skyline = %d rows", res2.Rel.Len())
	}
}

func TestAttributeSkylineErrorsAndModes(t *testing.T) {
	db := setupDB(t)
	if _, err := db.ExecContext(context.Background(), `SELECT title FROM movies SKYLINE OF ghost MAX`); err == nil {
		t.Error("unknown dimension should fail")
	}
	if _, err := db.ExecContext(context.Background(), `SELECT title FROM movies SKYLINE OF title MAX`); err == nil {
		t.Error("non-numeric dimension should fail")
	}
	if _, err := db.ExecContext(context.Background(), `SELECT title FROM movies SKYLINE OF year`); err == nil {
		t.Error("missing MAX/MIN should fail to parse")
	}
	// All strategies agree on attribute skylines.
	q := `SELECT title, year, duration FROM movies SKYLINE OF year MAX, duration MIN`
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
			t.Errorf("%v differs: %s", m, diff)
		}
	}
	// Plan rendering names the dimensions.
	if !strings.Contains(ref.Plan, "Skyline(movies.year MAX, movies.duration MIN)") &&
		!strings.Contains(ref.Plan, "Skyline(year MAX, duration MIN)") {
		t.Errorf("plan = %s", ref.Plan)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
