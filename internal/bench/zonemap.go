package bench

import (
	"context"
	"fmt"
	"io"

	"prefdb/internal/engine"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// zoneBaseRows sizes the largest synthetic relation at scale 1.0 (the
// paper's §VII data-size axis stretched to 10M rows); the |R| sweep runs
// the experiment at 1%, 10% and 100% of this scaled figure.
const zoneBaseRows = 10_000_000

// zoneSelectivities is the WHERE-clause sweep. The two low points are
// where zone-map pruning pays: with sequential ids the qualifying rows
// cluster in a handful of segments and every other segment is skipped on
// metadata alone.
var zoneSelectivities = []float64{0.001, 0.01, 0.1, 0.5}

// eventsDB builds the synthetic single-table database of the zone-map
// sweep: a sequential key plus a year column the preference scores. The
// year distribution is deterministic and uniform over 1970..2011, so the
// preference's conditional part (year >= 2000) accepts a fixed fraction
// regardless of the WHERE selectivity under sweep.
func eventsDB(rows int) (*engine.DB, error) {
	db := engine.Open()
	tbl, err := db.Catalog().CreateTable("events", schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "year", Kind: types.KindInt},
	).WithKey("id"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		year := 1970 + (i*37)%42
		if err := tbl.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(year))}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// --- E14: zone-map segment pruning (PR 6) ---

// runZoneMap sweeps |R| × WHERE selectivity over the same
// scan→filter→prefer→top-k shape, comparing the heap batch path
// against the columnar segment store. The events table's ids are
// sequential, so segment zone maps on id partition the key space exactly
// and a `id <= cutoff` conjunct disqualifies every segment past the
// cutoff before any kernel runs. Expected shape: at selectivity ≤0.01
// the colstore arm skips nearly all segments and wins by a multiple;
// at 0.5 the two arms converge since half the data must be touched
// either way. The score cache stays off so the sweep isolates storage.
func runZoneMap(ctx context.Context, e *Env, w io.Writer, repeats int) error {
	maxRows := int(zoneBaseRows * e.Scale)
	if maxRows < 4000 {
		maxRows = 4000
	}
	header(w, "|R|", "sel", "store", "time", "rows", "scanned", "segments", "skipped", "speedup-vs-heap")
	for _, rows := range []int{maxRows / 100, maxRows / 10, maxRows} {
		if rows < 1000 {
			rows = 1000
		}
		db, err := eventsDB(rows)
		if err != nil {
			return err
		}
		db.Workers = e.Workers
		// Warm the segment store so the sweep measures scans, not the
		// one-time row→column compaction (amortized across every query
		// until the next DML invalidates the table version).
		if t, tErr := db.Catalog().Table("events"); tErr == nil {
			t.ColStore()
		}
		for _, sel := range zoneSelectivities {
			cutoff := int(sel * float64(rows))
			sql := fmt.Sprintf(`SELECT id FROM events
				WHERE id <= %d
				PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON events
				USING sum TOP 10 BY score`, cutoff)
			prep, err := db.Prepare(sql)
			if err != nil {
				return fmt.Errorf("rows=%d sel=%g: %w", rows, sel, err)
			}
			baseline := 0.0
			for _, arm := range []struct {
				label string
				mode  engine.ColstoreMode
			}{{"heap", engine.ColstoreOff}, {"colstore", engine.ColstoreOn}} {
				m, err := MeasurePrepared(ctx, prep, repeats,
					engine.WithMode(engine.ModeNative), engine.WithScoreCache(engine.CacheOff),
					engine.WithColstore(arm.mode))
				if err != nil {
					return fmt.Errorf("rows=%d sel=%g %s: %w", rows, sel, arm.label, err)
				}
				ms := float64(m.Duration.Microseconds()) / 1000
				speedup := 0.0
				if arm.label == "heap" {
					baseline = ms
				} else if ms > 0 {
					speedup = baseline / ms
				}
				speedupCell := "–"
				if speedup > 0 {
					speedupCell = fmt.Sprintf("%.2fx", speedup)
				}
				fmt.Fprintf(w, "%d\t%.3f\t%s\t%.2fms\t%d\t%d\t%d\t%d\t%s\n",
					rows, sel, arm.label, ms, m.Rows, m.Stats.RowsScanned,
					m.Stats.SegmentsScanned, m.Stats.SegmentsSkipped, speedupCell)
				e.RecordPoint(Point{
					Experiment:      "zonemap",
					Label:           fmt.Sprintf("rows=%d sel=%.3f %s", rows, sel, arm.label),
					TableRows:       rows,
					Selectivity:     sel,
					Millis:          ms,
					ResultRows:      m.Rows,
					PreferEvals:     m.Stats.PreferEvals,
					ScoreEvals:      m.Stats.ScoreEvals,
					Batches:         m.Stats.Batches,
					Speedup:         speedup,
					Colstore:        arm.mode.String(),
					SegmentsScanned: m.Stats.SegmentsScanned,
					SegmentsSkipped: m.Stats.SegmentsSkipped,
				})
			}
		}
	}
	return nil
}
