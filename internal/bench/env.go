package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prefdb/internal/datagen"
	"prefdb/internal/engine"
	"prefdb/internal/exec"
)

// Env lazily materializes the benchmark databases at a given scale so
// several experiments can share one load.
type Env struct {
	// Scale is the datagen scale factor (1.0 ≈ 20k movies / 20k papers).
	Scale float64
	// Seed drives data generation.
	Seed      int64
	imdb      *engine.DB
	imdbSizes datagen.Sizes
	dblp      *engine.DB
	dblpSizes datagen.Sizes
}

// NewEnv returns an environment at the given scale with the default seed.
func NewEnv(scale float64) *Env { return &Env{Scale: scale, Seed: 42} }

// IMDB returns (loading on first use) the movie database.
func (e *Env) IMDB() (*engine.DB, error) {
	if e.imdb == nil {
		db := engine.Open()
		sizes, err := datagen.LoadIMDB(db.Catalog(), datagen.Config{Scale: e.Scale, Seed: e.Seed})
		if err != nil {
			return nil, err
		}
		e.imdb, e.imdbSizes = db, sizes
	}
	return e.imdb, nil
}

// DBLP returns (loading on first use) the bibliography database.
func (e *Env) DBLP() (*engine.DB, error) {
	if e.dblp == nil {
		db := engine.Open()
		sizes, err := datagen.LoadDBLP(db.Catalog(), datagen.Config{Scale: e.Scale, Seed: e.Seed})
		if err != nil {
			return nil, err
		}
		e.dblp, e.dblpSizes = db, sizes
	}
	return e.dblp, nil
}

// DBFor returns the database a workload query runs against.
func (e *Env) DBFor(q Query) (*engine.DB, error) {
	if strings.HasPrefix(q.Name, "DBLP") {
		return e.DBLP()
	}
	return e.IMDB()
}

// Measurement is one timed query execution.
type Measurement struct {
	Mode     engine.Mode
	Duration time.Duration
	Stats    exec.Stats
	Rows     int
}

// Measure runs a query under one mode, returning the best-of-repeats
// wall-clock time (cold-cache effects do not exist in an in-memory engine;
// min-of-N suppresses scheduler noise). Canceling ctx aborts the run
// between and within repetitions.
func Measure(ctx context.Context, db *engine.DB, sql string, mode engine.Mode, repeats int) (Measurement, error) {
	if repeats < 1 {
		repeats = 1
	}
	best := Measurement{Mode: mode}
	for i := 0; i < repeats; i++ {
		start := time.Now()
		res, err := db.QueryContext(ctx, sql, engine.WithMode(mode))
		elapsed := time.Since(start)
		if err != nil {
			return Measurement{}, fmt.Errorf("%v: %w", mode, err)
		}
		if i == 0 || elapsed < best.Duration {
			best.Duration = elapsed
			best.Stats = res.Stats
			best.Rows = res.Rel.Len()
		}
	}
	return best, nil
}

// MeasurePrepared times repeated runs of a prepared statement under the
// given options (best-of-repeats, like Measure). The plan is compiled
// once, so the runs time execution alone.
func MeasurePrepared(ctx context.Context, p *engine.Prepared, repeats int, opts ...engine.QueryOption) (Measurement, error) {
	if repeats < 1 {
		repeats = 1
	}
	var best Measurement
	for i := 0; i < repeats; i++ {
		start := time.Now()
		res, err := p.RunContext(ctx, opts...)
		elapsed := time.Since(start)
		if err != nil {
			return Measurement{}, err
		}
		if i == 0 || elapsed < best.Duration {
			best.Duration = elapsed
			best.Stats = res.Stats
			best.Rows = res.Rel.Len()
		}
	}
	return best, nil
}

// CompareModes measures a query under the given modes.
func CompareModes(ctx context.Context, db *engine.DB, sql string, modes []engine.Mode, repeats int) ([]Measurement, error) {
	out := make([]Measurement, 0, len(modes))
	for _, m := range modes {
		meas, err := Measure(ctx, db, sql, m, repeats)
		if err != nil {
			return nil, err
		}
		out = append(out, meas)
	}
	return out, nil
}

// ReportModes is the mode lineup reported in experiment tables: the paper's
// GBU and FtP against the two plug-in baselines, with the fully pipelined
// native execution as a reference point.
func ReportModes() []engine.Mode {
	return []engine.Mode{
		engine.ModeNative, engine.ModeGBU, engine.ModeFtP,
		engine.ModePluginNaive, engine.ModePluginMerged,
	}
}
