package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"prefdb/internal/engine"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// Point is one JSON-serializable measurement emitted by the score-cache
// experiment (benchrunner -json collects them into a file, e.g.
// BENCH_PR3.json).
type Point struct {
	Experiment  string  `json:"experiment"`
	Label       string  `json:"label"`
	Cache       string  `json:"cache,omitempty"`
	TableRows   int     `json:"tableRows"`
	NDV         int     `json:"ndv,omitempty"`
	Selectivity float64 `json:"selectivity"`
	AutoHint    bool    `json:"autoHint,omitempty"`
	Millis      float64 `json:"millis"`
	ResultRows  int     `json:"resultRows"`
	PreferEvals int     `json:"preferEvals"`
	ScoreEvals  int     `json:"scoreEvals"`
	CacheHits   int     `json:"cacheHits,omitempty"`
	CacheMisses int     `json:"cacheMisses,omitempty"`
	// Zone-map fields (E14): batches the executor drained, the speedup over
	// the heap arm, which storage side served the batch scan and the
	// segment pruning counters ("" / 0 on the heap path).
	Batches         int     `json:"batches,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	Colstore        string  `json:"colstore,omitempty"`
	SegmentsScanned int     `json:"segmentsScanned,omitempty"`
	SegmentsSkipped int     `json:"segmentsSkipped,omitempty"`
	// Server-load fields (E15): concurrent client sessions and the
	// throughput / tail-latency profile of the wire-protocol server.
	Sessions  int     `json:"sessions,omitempty"`
	QPS       float64 `json:"qps,omitempty"`
	P50Millis float64 `json:"p50Millis,omitempty"`
	P95Millis float64 `json:"p95Millis,omitempty"`
	P99Millis float64 `json:"p99Millis,omitempty"`
}

// scoreCacheBaseRows sizes the synthetic relation at scale 1.0; the
// default benchrunner scale 0.25 yields 100 000 rows.
const scoreCacheBaseRows = 400_000

// scoreCacheTiers derives the key-cardinality sweep from the table size:
// ~1% of |R| (the cache's sweet spot), ~10%, and all-distinct (the
// adversarial case the heuristic must refuse and forced caching must
// survive within noise of uncached).
func scoreCacheTiers(rows int) []struct {
	Col string
	NDV int
} {
	clamp := func(n, lo int) int {
		if n < lo {
			return lo
		}
		return n
	}
	return []struct {
		Col string
		NDV int
	}{
		{"g_low", clamp(rows/100, 2)},
		{"g_mid", clamp(rows/10, 4)},
		{"g_all", rows},
	}
}

// scoreCacheDB builds the synthetic single-table database: id plus one
// uniformly distributed group column per cardinality tier.
func scoreCacheDB(rows int) (*engine.DB, error) {
	db := engine.Open()
	tiers := scoreCacheTiers(rows)
	cols := []schema.Column{{Name: "id", Kind: types.KindInt}}
	for _, tier := range tiers {
		cols = append(cols, schema.Column{Name: tier.Col, Kind: types.KindInt})
	}
	tbl, err := db.Catalog().CreateTable("items", schema.New(cols...).WithKey("id"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		row := []types.Value{types.Int(int64(i))}
		for _, tier := range tiers {
			row = append(row, types.Int(int64(i%tier.NDV)))
		}
		if err := tbl.Insert(row); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// --- E12: preference score cache (PR 3) ---

// runScoreCache sweeps cache mode × conditional selectivity × key
// cardinality over a prepared top-k preference query. The cached arm of
// the low-cardinality tier should show a multiple fewer score-expression
// evaluations and a wall-clock win; the all-distinct tier bounds the
// forced-cache overhead.
func runScoreCache(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	rows := int(scoreCacheBaseRows * e.Scale)
	if rows < 1000 {
		rows = 1000
	}
	db, err := scoreCacheDB(rows)
	if err != nil {
		return err
	}
	db.Workers = e.Workers
	fmt.Fprintf(w, "synthetic items table: %d rows\n", rows)
	header(w, "ndv", "sel", "cache", "time", "rows", "preferEvals", "scoreEvals", "hits", "misses", "auto-hint")
	for _, tier := range scoreCacheTiers(rows) {
		for _, sel := range []float64{0.1, 0.5, 1.0} {
			cutoff := tier.NDV - int(sel*float64(tier.NDV))
			sql := fmt.Sprintf(`SELECT id FROM items
				PREFERRING %[1]s >= %[2]d SCORE 0.5*recency(%[1]s, %[3]d) + 0.5*around(%[1]s, %[4]d) CONF 0.9 ON items
				USING sum TOP 10 BY score`, tier.Col, cutoff, tier.NDV, tier.NDV/2)
			prep, err := db.Prepare(sql)
			if err != nil {
				return fmt.Errorf("ndv=%d sel=%.1f: %w", tier.NDV, sel, err)
			}
			autoHint := strings.Contains(prep.Plan(), "[cache ndv≈")
			// The auto arm shows the heuristic picking the winning side per
			// regime: it matches `on` where the key cardinality is low and
			// `off` (within noise) where keys are all-distinct.
			for _, cache := range []engine.CacheMode{engine.CacheOff, engine.CacheAuto, engine.CacheOn} {
				m, err := MeasurePrepared(ctx, prep, repeats,
					engine.WithMode(engine.ModeGBU), engine.WithScoreCache(cache))
				if err != nil {
					return fmt.Errorf("ndv=%d sel=%.1f cache=%v: %w", tier.NDV, sel, cache, err)
				}
				fmt.Fprintf(w, "%d\t%.1f\t%v\t%.2fms\t%d\t%d\t%d\t%d\t%d\t%v\n",
					tier.NDV, sel, cache, float64(m.Duration.Microseconds())/1000, m.Rows,
					m.Stats.PreferEvals, m.Stats.ScoreEvals, m.Stats.CacheHits, m.Stats.CacheMisses, autoHint)
				e.RecordPoint(Point{
					Experiment:  "scorecache",
					Label:       fmt.Sprintf("%s ndv=%d sel=%.1f", tier.Col, tier.NDV, sel),
					Cache:       cache.String(),
					TableRows:   rows,
					NDV:         tier.NDV,
					Selectivity: sel,
					AutoHint:    autoHint,
					Millis:      float64(m.Duration.Microseconds()) / 1000,
					ResultRows:  m.Rows,
					PreferEvals: m.Stats.PreferEvals,
					ScoreEvals:  m.Stats.ScoreEvals,
					CacheHits:   m.Stats.CacheHits,
					CacheMisses: m.Stats.CacheMisses,
				})
			}
		}
	}
	return nil
}
