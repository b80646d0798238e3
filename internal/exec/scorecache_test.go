package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/types"
)

// statsSansCache clears the counters the score cache is allowed to change:
// ScoreEvals (the cache's whole point is doing fewer of them), CacheHits
// and CacheMisses (zero when the cache is off). Everything else — rows
// scanned, tuples preferred, materialization, guard ticks — must be
// byte-identical between cached and uncached runs.
func statsSansCache(s Stats) Stats {
	s.ScoreEvals, s.CacheHits, s.CacheMisses = 0, 0, 0
	return s
}

// withCacheHint returns plan with every prefer operator's CacheHint set to
// on: tests mark the plan the way the optimizer would instead of
// overriding the executor.
func withCacheHint(plan algebra.Node, on bool) algebra.Node {
	return algebra.Transform(plan, func(n algebra.Node) algebra.Node {
		p, ok := n.(*algebra.Prefer)
		if !ok || p.CacheHint == on {
			return n
		}
		cp := *p
		cp.CacheHint = on
		return &cp
	})
}

// TestScoreCacheEquivalence is the cache's core property: with every
// prefer operator hinted, each strategy returns exactly the rows, row
// order and ⟨S,C⟩ pairs of the unhinted plan, and the same Stats modulo
// the cache counters.
func TestScoreCacheEquivalence(t *testing.T) {
	cat := imdbCatalog(t)
	for name, plan := range planShapes() {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range Strategies() {
				ref := New(cat)
				want, err := ref.Run(withCacheHint(plan, false), strategy)
				if err != nil {
					t.Fatalf("%v uncached: %v", strategy, err)
				}
				e := New(cat)
				got, err := e.Run(withCacheHint(plan, true), strategy)
				if err != nil {
					t.Fatalf("%v cached: %v", strategy, err)
				}
				label := fmt.Sprintf("%v cached", strategy)
				mustIdentical(t, want, got, label)
				if rs, cs := statsSansCache(ref.Stats()), statsSansCache(e.Stats()); rs != cs {
					t.Fatalf("%s: stats %+v, want %+v", label, cs, rs)
				}
				cached := e.Stats()
				if cached.CacheHits+cached.CacheMisses == 0 {
					t.Fatalf("%s: cache never engaged (stats %+v)", label, cached)
				}
				if cached.ScoreEvals > ref.Stats().ScoreEvals {
					t.Fatalf("%s: cached run evaluated more scores (%d) than uncached (%d)",
						label, cached.ScoreEvals, ref.Stats().ScoreEvals)
				}
			}
		})
	}
}

// TestScoreCacheAutoFollowsHint pins the executor's one rule: the cache
// engages exactly when the optimizer marked the operator.
func TestScoreCacheAutoFollowsHint(t *testing.T) {
	cat := imdbCatalog(t)
	p := pref.New("recent", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9)
	plain := &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}}
	hinted := &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}, CacheHint: true, CacheNDV: 64}

	e := New(cat)
	if _, err := e.Run(plain, Native); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheHits+s.CacheMisses != 0 {
		t.Errorf("unhinted plan used the cache: %+v", s)
	}

	e = New(cat)
	if _, err := e.Run(hinted, Native); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheHits+s.CacheMisses == 0 {
		t.Errorf("hinted plan ignored the hint: %+v", s)
	}
}

// TestScoreCacheHitAccounting checks the counter algebra on a plan whose
// key (year) has far fewer distinct values than the table has rows: every
// prefer evaluation is exactly one hit or one miss, misses equal the
// number of distinct keys (one memo per prefer operator), and score
// expressions run only on cond-true misses.
func TestScoreCacheHitAccounting(t *testing.T) {
	cat := imdbCatalog(t)
	p := pref.New("recent", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9)
	plan := &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}}

	// The executor is single-worker; the subtest keeps that case's name.
	t.Run("workers=1", func(t *testing.T) {
		ref := New(cat)
		if _, err := ref.Run(plan, Native); err != nil {
			t.Fatal(err)
		}
		e := New(cat)
		out, err := e.Run(withCacheHint(plan, true), Native)
		if err != nil {
			t.Fatal(err)
		}
		s := e.Stats()
		if s.CacheHits+s.CacheMisses != s.PreferEvals {
			t.Errorf("hits+misses = %d, want PreferEvals = %d", s.CacheHits+s.CacheMisses, s.PreferEvals)
		}
		distinct := map[int64]bool{}
		for _, row := range out.Rows {
			distinct[row.Tuple[2].AsInt()] = true // movies.year
		}
		if s.CacheMisses != len(distinct) {
			t.Errorf("misses = %d, want one per distinct year = %d", s.CacheMisses, len(distinct))
		}
		if s.CacheHits <= s.CacheMisses {
			t.Errorf("low-cardinality key should be hit-dominated: hits=%d misses=%d", s.CacheHits, s.CacheMisses)
		}
		if s.ScoreEvals >= ref.Stats().ScoreEvals {
			t.Errorf("cached ScoreEvals = %d, want fewer than uncached %d", s.ScoreEvals, ref.Stats().ScoreEvals)
		}
	})
}

// TestScoreMemoBound verifies bounded degradation: once the memo is full,
// new keys evaluate directly (and stay misses) while resident entries keep
// serving hits — results never change, only the hit rate does.
func TestScoreMemoBound(t *testing.T) {
	cat := imdbCatalog(t)
	tbl, err := cat.Table("movies")
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	p := pref.New("recent", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9)
	e := New(cat)
	cond, err := expr.CompileCondition(p.Cond, s, e.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	score, err := expr.Compile(p.Score, s, e.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	m := e.newScoreMemo(cond, score, p, s)

	tuple := func(year int64) []types.Value {
		return []types.Value{types.Int(1), types.Str("t"), types.Int(year), types.Int(100), types.Int(1)}
	}
	var stats Stats
	sc1, has1 := m.lookupOrCompute(tuple(2005), &stats)
	if !has1 || stats.CacheMisses != 1 {
		t.Fatalf("first probe: has=%v stats=%+v", has1, stats)
	}
	if sc2, has2 := m.lookupOrCompute(tuple(2005), &stats); sc2 != sc1 || !has2 || stats.CacheHits != 1 {
		t.Fatalf("repeat probe: sc=%v has=%v stats=%+v", sc2, has2, stats)
	}

	m.n = scoreMemoLimit // simulate a full memo
	stats = Stats{}
	first, hasFirst := m.lookupOrCompute(tuple(2007), &stats)
	second, hasSecond := m.lookupOrCompute(tuple(2007), &stats)
	if stats.CacheMisses != 2 || stats.CacheHits != 0 {
		t.Errorf("full memo should degrade to direct evaluation: %+v", stats)
	}
	if first != second || hasFirst != hasSecond || !hasFirst {
		t.Errorf("degraded evaluations disagree: %v/%v vs %v/%v", first, hasFirst, second, hasSecond)
	}
	// Resident entries still hit.
	stats = Stats{}
	if _, _ = m.lookupOrCompute(tuple(2005), &stats); stats.CacheHits != 1 {
		t.Errorf("resident entry stopped hitting: %+v", stats)
	}
}

// TestScoreDictConcurrent hammers one dictionary from many goroutines —
// the lookup/publish protocol must be race-clean (run with -race) and
// first-insert-wins must keep it at one entry per key.
func TestScoreDictConcurrent(t *testing.T) {
	d := NewScoreDict()
	const keys = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := []types.Value{types.Int(int64(i))}
				h := types.HashTuple(key)
				if _, ok := d.lookup(h, key); !ok {
					d.publish(h, memoEntry{key: key, sc: types.NewSC(float64(i)/keys, 0.9), has: true})
				}
				if e, ok := d.lookup(h, key); !ok || e.sc.Score != float64(i)/keys {
					t.Errorf("key %d: ok=%v e=%+v", i, ok, e)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != keys {
		t.Errorf("dict has %d entries, want %d", d.Len(), keys)
	}
}

// TestScoreDictCrossQueryReuse wires a level-2 dictionary through DictFor
// the way the engine does for prepared statements: the second run of the
// same plan takes every key from the dictionary (zero misses) and still
// returns exactly the uncached result.
func TestScoreDictCrossQueryReuse(t *testing.T) {
	cat := imdbCatalog(t)
	plan := planShapes()["prefer-chain"]

	var mu sync.Mutex
	dicts := map[string]*ScoreDict{}
	dictFor := func(p pref.Preference, cols []string) *ScoreDict {
		mu.Lock()
		defer mu.Unlock()
		k := p.String() + "\x00" + strings.Join(cols, ",")
		if d, ok := dicts[k]; ok {
			return d
		}
		d := NewScoreDict()
		dicts[k] = d
		return d
	}

	mu.Lock()
	dicts = map[string]*ScoreDict{}
	mu.Unlock()

	ref := New(cat)
	want, err := ref.Run(plan, GBU)
	if err != nil {
		t.Fatal(err)
	}

	hinted := withCacheHint(plan, true)
	run := func() (Stats, error) {
		e := New(cat)
		e.DictFor = dictFor
		got, err := e.Run(hinted, GBU)
		if err != nil {
			return Stats{}, err
		}
		mustIdentical(t, want, got, fmt.Sprintf("dict run"))
		return e.Stats(), nil
	}
	cold, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheMisses == 0 {
		t.Fatalf("cold run should miss (stats %+v)", cold)
	}
	warm, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheMisses != 0 {
		t.Errorf("warm run missed %d times, want 0 (dictionary not reused)", warm.CacheMisses)
	}
	if warm.ScoreEvals != 0 {
		t.Errorf("warm run evaluated %d scores, want 0", warm.ScoreEvals)
	}
}

// BenchmarkPreferScoreCache compares an unhinted and a hinted prefer over
// a low-cardinality key (year: ~60 distinct values over 5 000 movies). The
// CI bench-smoke job runs this via -bench BenchmarkPrefer.
func BenchmarkPreferScoreCache(b *testing.B) {
	cat := imdbCatalog(b)
	p := pref.New("recent", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9)
	plan := &algebra.Prefer{P: p, Input: &algebra.Scan{Table: "movies"}}
	for _, arm := range []struct {
		name string
		hint bool
	}{{"off", false}, {"on", true}} {
		hinted := withCacheHint(plan, arm.hint)
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := New(cat)
				if _, err := e.Run(hinted, Native); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
