package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prefdb/internal/engine"
)

// tinyEnv keeps package tests fast: ~400 movies / ~400 papers.
func tinyEnv() *Env { return NewEnv(0.02) }

func TestWorkloadQueriesRun(t *testing.T) {
	e := tinyEnv()
	for _, q := range AllQueries() {
		db, err := e.DBFor(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.QueryContext(context.Background(), q.SQL, engine.WithMode(engine.ModeGBU))
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Rel == nil {
			t.Fatalf("%s: nil result", q.Name)
		}
	}
}

func TestWorkloadModesAgree(t *testing.T) {
	e := tinyEnv()
	for _, q := range AllQueries() {
		db, err := e.DBFor(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.QueryContext(context.Background(), q.SQL, engine.WithMode(engine.ModeNative))
		if err != nil {
			t.Fatalf("%s native: %v", q.Name, err)
		}
		for _, m := range ReportModes() {
			res, err := db.QueryContext(context.Background(), q.SQL, engine.WithMode(m))
			if err != nil {
				t.Fatalf("%s %v: %v", q.Name, m, err)
			}
			if ref.Rel.Len() != res.Rel.Len() {
				t.Errorf("%s: %v cardinality %d differs from native %d", q.Name, m, res.Rel.Len(), ref.Rel.Len())
			}
		}
	}
}

func TestFindQuery(t *testing.T) {
	q, err := FindQuery("IMDB-2")
	if err != nil || q.Lambda != 3 {
		t.Errorf("FindQuery = %+v, %v", q, err)
	}
	if _, err := FindQuery("IMDB-9"); err == nil {
		t.Error("unknown query should error")
	}
}

func TestMeasureAndCompare(t *testing.T) {
	e := tinyEnv()
	db, err := e.IMDB()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := Measure(ctx, db, IMDBQueries()[0].SQL, engine.ModeGBU, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Duration <= 0 || m.Rows == 0 {
		t.Errorf("measurement = %+v", m)
	}
	ms, err := CompareModes(ctx, db, IMDBQueries()[0].SQL, ReportModes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(ReportModes()) {
		t.Errorf("measurements = %d", len(ms))
	}
	if s := SummarizeStats(ms); !strings.Contains(s, "gbu") {
		t.Errorf("summary = %q", s)
	}
	// Invalid SQL propagates.
	if _, err := Measure(ctx, db, "SELECT nope FROM movies", engine.ModeGBU, 1); err == nil {
		t.Error("bad query should error")
	}
	// A canceled context aborts the measurement with the lifecycle sentinel.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Measure(canceled, db, IMDBQueries()[0].SQL, engine.ModeGBU, 1); err == nil {
		t.Error("canceled context should abort the measurement")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	e := tinyEnv()
	for _, ex := range Experiments() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ex.Run(context.Background(), e, &buf, 1); err != nil {
				t.Fatalf("%s: %v", ex.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", ex.ID)
			}
			lines := strings.Count(buf.String(), "\n")
			if lines < 2 {
				t.Errorf("%s output too small:\n%s", ex.ID, buf.String())
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	ex, err := FindExperiment("workload")
	if err != nil || ex.ID != "workload" {
		t.Errorf("FindExperiment = %+v, %v", ex, err)
	}
	if _, err := FindExperiment("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
	// IDs are unique.
	seen := map[string]bool{}
	for _, ex := range Experiments() {
		if seen[ex.ID] {
			t.Errorf("duplicate experiment id %q", ex.ID)
		}
		seen[ex.ID] = true
		if ex.Title == "" || ex.Paper == "" || ex.Run == nil {
			t.Errorf("experiment %q incomplete", ex.ID)
		}
	}
}

func TestQueryWithNPreferences(t *testing.T) {
	e := tinyEnv()
	db, err := e.IMDB()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 16} {
		sql := QueryWithNPreferences(n)
		if got := strings.Count(sql, "ON genres"); got != n {
			t.Errorf("λ=%d: %d preferences in SQL", n, got)
		}
		if _, err := db.QueryContext(context.Background(), sql, engine.WithMode(engine.ModeGBU)); err != nil {
			t.Errorf("λ=%d: %v", n, err)
		}
	}
}

func TestPluginNaiveDegradesWithLambda(t *testing.T) {
	// The paper's headline shape: the naive plug-in issues λ+1 native
	// queries while GBU's count stays flat in λ.
	e := tinyEnv()
	db, err := e.IMDB()
	if err != nil {
		t.Fatal(err)
	}
	calls := func(mode engine.Mode, lambda int) int {
		res, err := db.QueryContext(context.Background(), QueryWithNPreferences(lambda), engine.WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.NativeCalls
	}
	if n1, n8 := calls(engine.ModePluginNaive, 1), calls(engine.ModePluginNaive, 8); n8-n1 != 7 {
		t.Errorf("plugin-naive calls: λ=1→%d, λ=8→%d", n1, n8)
	}
	if g1, g8 := calls(engine.ModeGBU, 1), calls(engine.ModeGBU, 8); g8 != g1 {
		t.Errorf("gbu calls should be flat: λ=1→%d, λ=8→%d", g1, g8)
	}
}
