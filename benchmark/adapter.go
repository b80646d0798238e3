package main

// adapter.go is the only file of the benchmark that touches the repository's
// APIs. Everything else works on the neutral types declared here, so a PR
// that renames or removes an engine symbol has exactly one file to fix. The
// symbols used are listed in README.md ("Surface later PRs must keep
// compiling").

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"prefdb"
	"prefdb/internal/bench"
	"prefdb/internal/parser"
	"prefdb/internal/planner"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
	"prefdb/internal/wire"
)

// serverPackage is the server command the serve workload builds and runs;
// serverArgs are the only flags it passes (everything else is default).
const serverPackage = "./cmd/prefdbserver"

func serverArgs(snapshot string) []string {
	return []string{"-open", snapshot, "-addr", "127.0.0.1:0"}
}

// serverBanner precedes the bound address on the server's stdout.
const serverBanner = "prefdbserver listening on "

// isRejection recognizes the server's per-session admission error, the one
// failure counted as server.rejected_ops.
func isRejection(msg string) bool { return strings.Contains(msg, "statement limit reached") }

// counters mirrors the engine's per-statement execution counters.
type counters struct {
	RowsScanned, TuplesMaterialized, CellsMaterialized int
	NativeCalls, IndexProbes, PreferEvals, ScoreEvals  int
	CacheHits, CacheMisses, Batches                    int
	SegmentsScanned, SegmentsSkipped                   int
	ColBatches, RowsMaterialized, JoinProbeBatches     int
}

func (c *counters) add(o counters) {
	c.RowsScanned += o.RowsScanned
	c.TuplesMaterialized += o.TuplesMaterialized
	c.CellsMaterialized += o.CellsMaterialized
	c.NativeCalls += o.NativeCalls
	c.IndexProbes += o.IndexProbes
	c.PreferEvals += o.PreferEvals
	c.ScoreEvals += o.ScoreEvals
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.Batches += o.Batches
	c.SegmentsScanned += o.SegmentsScanned
	c.SegmentsSkipped += o.SegmentsSkipped
	c.ColBatches += o.ColBatches
	c.RowsMaterialized += o.RowsMaterialized
	c.JoinProbeBatches += o.JoinProbeBatches
}

func countersOf(s prefdb.Stats) counters {
	return counters{
		RowsScanned: s.RowsScanned, TuplesMaterialized: s.TuplesMaterialized, CellsMaterialized: s.CellsMaterialized,
		NativeCalls: s.NativeCalls, IndexProbes: s.IndexProbes, PreferEvals: s.PreferEvals, ScoreEvals: s.ScoreEvals,
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses, Batches: s.Batches,
		SegmentsScanned: s.SegmentsScanned, SegmentsSkipped: s.SegmentsSkipped,
		ColBatches: s.ColBatches, RowsMaterialized: s.RowsMaterialized, JoinProbeBatches: s.JoinProbeBatches,
	}
}

// outcome is what one statement produced, reduced to what the harness
// checks and counts.
type outcome struct {
	// elapsed is the time spent in the engine call alone; fingerprinting a
	// materialized result is the harness's cost, not the statement's.
	elapsed time.Duration
	fp      fingerprint
	pairs   []scorePair // filled only when opts.keepPairs
	message string      // DDL/DML effect
	stats   counters
}

// runOpts are the only per-statement options the workloads use.
type runOpts struct {
	mode      string // "" = database default (GBU)
	workers1  bool   // WithWorkers(1); otherwise the default 0 = GOMAXPROCS
	keepPairs bool   // retain ⟨score, conf⟩ for the cross-mode comparison
}

func (o runOpts) options() ([]prefdb.QueryOption, error) {
	var out []prefdb.QueryOption
	if o.mode != "" {
		m, err := prefdb.ParseMode(o.mode)
		if err != nil {
			return nil, fmt.Errorf("mode %q: %w", o.mode, err)
		}
		out = append(out, prefdb.WithMode(m))
	}
	if o.workers1 {
		out = append(out, prefdb.WithWorkers(1))
	}
	return out, nil
}

func modeNames() []string {
	var out []string
	for _, m := range prefdb.Modes() {
		out = append(out, m.String())
	}
	return out
}

// tableIIQuery is one statement of the paper's Table II workload.
type tableIIQuery struct{ Name, SQL string }

func tableII() []tableIIQuery {
	var out []tableIIQuery
	for _, q := range bench.AllQueries() {
		out = append(out, tableIIQuery{Name: q.Name, SQL: q.SQL})
	}
	return out
}

// --- databases ---

type database struct {
	db *prefdb.DB
	pl *planner.Planner
}

func wrapDB(db *prefdb.DB) *database {
	return &database{db: db, pl: planner.New(db.Catalog())}
}

func openDB(colstore bool) *database {
	if colstore {
		return wrapDB(prefdb.Open(prefdb.WithDefaultColstore(prefdb.ColstoreOn)))
	}
	return wrapDB(prefdb.Open())
}

// loadPaper loads the synthetic IMDB and DBLP datasets and returns the
// number of rows generated.
func (d *database) loadPaper(scale float64, seed int64) (int, error) {
	cfg := prefdb.DatagenConfig{Scale: scale, Seed: seed}
	total := 0
	for _, load := range []func(*prefdb.DB, prefdb.DatagenConfig) (map[string]int, error){prefdb.LoadIMDB, prefdb.LoadDBLP} {
		sizes, err := load(d.db, cfg)
		if err != nil {
			return 0, fmt.Errorf("datagen: %w", err)
		}
		for _, n := range sizes {
			total += n
		}
	}
	return total, nil
}

var eventTiers = []string{"gold", "silver", "bronze", "basic"}

// eventUsers is the user_id domain: wide enough that a 100k-row window
// holds more distinct keys than the executor's 64k score-memo cap.
const eventUsers = 200_000

// loadEvents builds the synthetic scan table through the catalog API, plus a
// four-row dimension table the operator ladder joins to. ids are sequential
// so zone maps on id partition the key space; every other column is
// seed-derived and uniform, so no zone map on it can prune.
func (d *database) loadEvents(rows int, seed int64) error {
	cat := d.db.Catalog()
	events, err := cat.CreateTable("events", schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "year", Kind: types.KindInt},
		schema.Column{Name: "tier", Kind: types.KindString},
		schema.Column{Name: "rating", Kind: types.KindFloat},
		schema.Column{Name: "user_id", Kind: types.KindInt},
	).WithKey("id"))
	if err != nil {
		return fmt.Errorf("create events: %w", err)
	}
	r := newRNG(seed, 1)
	for i := 0; i < rows; i++ {
		x := r.next()
		if err := events.Insert([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(1970 + x%42)),
			types.Str(eventTiers[(x>>8)%4]),
			types.Float(float64((x>>16)%101) / 10),
			types.Int(int64((x >> 32) % eventUsers)),
		}); err != nil {
			return fmt.Errorf("insert events: %w", err)
		}
	}
	tiers, err := cat.CreateTable("tiers", schema.New(
		schema.Column{Name: "tier", Kind: types.KindString},
		schema.Column{Name: "weight", Kind: types.KindFloat},
	).WithKey("tier"))
	if err != nil {
		return fmt.Errorf("create tiers: %w", err)
	}
	for i, name := range eventTiers {
		if err := tiers.Insert([]types.Value{types.Str(name), types.Float(1 - 0.25*float64(i))}); err != nil {
			return fmt.Errorf("insert tiers: %w", err)
		}
	}
	return nil
}

// buildColstore waits out background compaction of the table and forces a
// current columnar image, returning how long that took.
func (d *database) buildColstore(table string) (time.Duration, error) {
	t, err := d.db.Catalog().Table(table)
	if err != nil {
		return 0, fmt.Errorf("colstore: %w", err)
	}
	start := time.Now()
	t.WaitCompaction()
	t.ColStore()
	return time.Since(start), nil
}

// statsRebuild times Table.Stats() right after an Insert invalidated it.
// The inserted tuple is all NULLs, which every column kind accepts.
func (d *database) statsRebuild(table string) (time.Duration, error) {
	t, err := d.db.Catalog().Table(table)
	if err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	if err := t.Insert(make([]types.Value, t.Schema().Len())); err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	start := time.Now()
	t.Stats()
	return time.Since(start), nil
}

func (d *database) save(path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := prefdb.Save(d.db, f); err != nil {
		f.Close()
		return 0, fmt.Errorf("snapshot save: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	return st.Size(), nil
}

func loadSnapshot(path string) (*database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	db, err := prefdb.Load(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot load: %w", err)
	}
	return wrapDB(db), nil
}

// --- sessions and statements ---

// conn is a session, embedded or remote; both run the same statements.
type conn struct{ s prefdb.Session }

func (d *database) session() *conn { return &conn{s: prefdb.NewSession(d.db)} }

func dial(addr string) (*conn, error) {
	s, err := prefdb.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{s: s}, nil
}

func (c *conn) close() error { return c.s.Close() }

func (c *conn) query(ctx context.Context, sql string, o runOpts) (outcome, error) {
	opts, err := o.options()
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	res, err := c.s.QueryContext(ctx, sql, opts...)
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf(res, start, o.keepPairs), nil
}

// exec runs a DML statement.
func (c *conn) exec(ctx context.Context, sql string) (outcome, error) {
	start := time.Now()
	res, err := c.s.ExecContext(ctx, sql)
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf(res, start, false), nil
}

// stream drains a streaming result row by row; consuming the rows (here:
// folding them into the fingerprint) is part of a streamed statement.
func (c *conn) stream(ctx context.Context, sql string, o runOpts) (outcome, error) {
	opts, err := o.options()
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	rows, err := c.s.StreamContext(ctx, sql, opts...)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{fp: newFingerprint()}
	for rows.Next() {
		addRow(&out, rows.Row(), o.keepPairs)
	}
	if err := rows.Close(); err != nil {
		return outcome{}, err
	}
	out.elapsed = time.Since(start)
	out.stats = countersOf(rows.Stats())
	return out, nil
}

type prepared struct{ st prefdb.Stmt }

func (c *conn) prepare(sql string) (*prepared, error) {
	st, err := c.s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &prepared{st: st}, nil
}

func (p *prepared) run(ctx context.Context, o runOpts) (outcome, error) {
	opts, err := o.options()
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	res, err := p.st.RunContext(ctx, opts...)
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf(res, start, o.keepPairs), nil
}

func outcomeOf(res *prefdb.Result, start time.Time, keepPairs bool) outcome {
	out := outcome{elapsed: time.Since(start), fp: newFingerprint(), message: res.Message, stats: countersOf(res.Stats)}
	if res.Rel != nil {
		for _, row := range res.Rel.Rows {
			addRow(&out, row, keepPairs)
		}
	}
	return out
}

func addRow(out *outcome, row prefdb.Row, keepPairs bool) {
	out.fp.add(types.HashTuple(row.Tuple), row.SC.Score, row.SC.Conf, row.SC.Known)
	if keepPairs {
		out.pairs = append(out.pairs, scorePair{score: row.SC.Score, conf: row.SC.Conf, known: row.SC.Known})
	}
}

// traced runs one query as the explicit public sequence
// ParseQuery → Plan → OptimizeContext → RunPlanContext, reporting one span
// per call. The optimize span is standalone: RunPlanContext optimizes again
// internally (the optimizer does not modify its input), so run_plan minus
// optimize is the executor's self time.
func (d *database) traced(ctx context.Context, sql string, o runOpts, span func(name string, start, end time.Time)) (outcome, error) {
	opts, err := o.options()
	if err != nil {
		return outcome{}, err
	}
	t0 := time.Now()
	q, err := parser.ParseQuery(sql)
	t1 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	span("parser.parse", t0, t1)
	plan, err := d.pl.Plan(q)
	t2 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	span("planner.plan", t1, t2)
	_, err = d.db.Optimizer().OptimizeContext(ctx, plan.Root)
	t3 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	span("optimizer.optimize", t2, t3)
	res, err := d.db.RunPlanContext(ctx, plan, opts...)
	t4 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	span("engine.run_plan", t3, t4)
	return outcomeOf(res, t0, false), nil
}

// --- fixed micro-probes of single layers ---

// wireRowCodec times Encoder.Row / Decoder.Row over a fixed 256-row batch of
// the result shape the workloads stream (two text/int columns plus ⟨S, C⟩).
func wireRowCodec(reps int) (encNs, decNs, bytesPerRow float64) {
	const n = 256
	rows := make([]prel.Row, n)
	for i := range rows {
		rows[i] = prel.Row{
			Tuple: []types.Value{types.Str(fmt.Sprintf("Title of movie %06d", i)), types.Int(int64(1950 + i%60))},
			SC:    types.NewSC(float64(i%100)/100, 0.5+float64(i%50)/100),
		}
	}
	var enc, dec []float64
	var buf []types.Value
	size := 0
	for r := 0; r < reps; r++ {
		var e wire.Encoder
		t0 := time.Now()
		for _, row := range rows {
			e.Row(row)
		}
		t1 := time.Now()
		d := wire.NewDecoder(e.Bytes())
		for range rows {
			_, buf = d.Row(buf)
		}
		t2 := time.Now()
		enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/n)
		dec = append(dec, float64(t2.Sub(t1).Nanoseconds())/n)
		size = len(e.Bytes())
	}
	return median(enc), median(dec), float64(size) / n
}

// prelTopK times prel.TopK over n rows with seed-derived scores.
func prelTopK(n, k, reps int, seed int64) float64 {
	r := newRNG(seed, 2)
	rows := make([]prel.Row, n)
	for i := range rows {
		rows[i] = prel.Row{Tuple: []types.Value{types.Int(int64(i))}, SC: types.NewSC(float64(r.next()%1_000_000)/1e6, 0.9)}
	}
	var us []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		top := prel.TopK(rows, k, false)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if len(top) != k {
			return 0
		}
	}
	return median(us)
}
