package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The probes are fixed micro-measurements of single layers that do not
// depend on the workload's statement mix. They run at the end of every
// traced run so that every per-layer metric is a measured number on every
// workload. Where the workload itself exercises the layer (the operator
// ladder runs on the workload's own data; the served workload has a real
// server), the workload's numbers are used instead of a stand-in.

const probeReps = 3

// timeQuery returns the median latency (ms) of reps runs of one statement.
func timeQuery(ctx context.Context, c *conn, sql string, o runOpts, reps int) (float64, error) {
	var lat []float64
	for i := 0; i < reps; i++ {
		out, err := c.query(ctx, sql, o)
		if err != nil {
			return 0, err
		}
		lat = append(lat, ms(out.elapsed))
	}
	return median(lat), nil
}

// probes fills the fixed per-layer metrics into m and returns what failed.
func (e *env) probes(ctx context.Context, m map[string]float64, plain, traced *tally, ls *layerSamples) []string {
	var problems []string
	note := func(what string, err error) {
		if err != nil {
			problems = append(problems, fmt.Sprintf("probe %s: %v", what, err))
		}
	}
	local := e.db.session()

	// Operator ladder on the workload's own data.
	for i, sql := range ladder(e.w.dataset, e.w.scale) {
		v, err := timeQuery(ctx, local, sql, runOpts{}, probeReps)
		note("ladder."+ladderRungs[i], err)
		m["exec.ladder."+ladderRungs[i]+"_ms"] = v
	}

	// The stand-in database (IMDB + DBLP at a quarter of the paper scale)
	// for the mode matrix and, off the served workload, for snapshot and
	// server costs.
	probe := openDB(false)
	_, err := probe.loadPaper(0.25*e.cfg.Sizes.paper, e.cfg.Seed)
	note("load", err)
	psess := probe.session()
	for _, q := range tableII() { // build statistics before the first timed mode
		_, err := psess.query(ctx, q.SQL, runOpts{})
		note("warm-up "+q.Name, err)
	}
	geo := map[string]float64{}
	for _, mode := range modeNames() {
		var lat []float64
		for _, q := range tableII() {
			v, err := timeQuery(ctx, psess, q.SQL, runOpts{mode: mode}, probeReps)
			note(q.Name+"/"+mode, err)
			lat = append(lat, v)
		}
		geo[mode] = geomean(lat)
		m["engine.mode_ms_geomean."+mode] = geo[mode]
	}
	m["plugin.slowdown_vs_gbu"] = ratio(geo["plugin-merged"], geo["gbu"])

	if e.w.dataset == dataServed {
		e.servedNumbers(m, plain, traced, ls, note)
	} else {
		note("server", e.serverProbe(ctx, probe, m))
	}

	m["wire.encode_row_ns"], m["wire.decode_row_ns"], m["wire.bytes_per_row"] = wireRowCodec(200)
	m["prel.topk_us"] = prelTopK(100_000, 10, 9, e.cfg.Seed)

	// Colstore build and statistics rebuild on the workload's biggest table;
	// both mutate the harness's database, so they come last.
	table := "cast"
	if e.w.dataset == dataEvents {
		table = "events"
		m["colstore.build_ms"] = e.parts["colstore_build"] * 1e3
	} else {
		d, err := e.db.buildColstore(table)
		note("colstore", err)
		m["colstore.build_ms"] = ms(d)
	}
	var d time.Duration
	d, err = e.db.statsRebuild(table)
	note("stats", err)
	m["catalog.stats_rebuild_ms"] = ms(d)
	return problems
}

// servedNumbers takes the snapshot, server and wire metrics from the served
// workload's own set-up and passes.
func (e *env) servedNumbers(m map[string]float64, plain, traced *tally, ls *layerSamples, note func(string, error)) {
	m["snapshot.save_ms"] = e.parts["snapshot_save"] * 1e3
	m["snapshot.bytes"] = float64(e.snapSize)
	t0 := time.Now()
	_, err := loadSnapshot(filepath.Join(e.tmp, "snapshot.gob"))
	note("snapshot load", err)
	m["snapshot.load_ms"] = ms(time.Since(t0))
	m["server.start_ms"] = e.parts["server_start"] * 1e3
	m["server.connect_ms"] = e.parts["connect"] * 1e3 / float64(len(e.conns))
	m["server.prepare_ms"] = e.parts["prepare"] * 1e3 / 16
	m["server.rejected_ops"] = float64(plain.rejected)
	for k, c := range e.w.classes {
		if c.name != e.w.primary {
			continue
		}
		m["server.class_ms_p50."+c.name] = median(plain.lat[k])
		m["server.class_ms_p95."+c.name] = percentile(plain.lat[k], 0.95)
		// Remote and embedded medians of the traced passes, where the two
		// alternate under the same load.
		m["wire.roundtrip_overhead_ms"] = median(traced.lat[k]) - median(ls.whole[k])
	}
}

// serverProbe measures snapshot, server and wire costs on the stand-in
// database: save, load, start a prefdbserver child over the snapshot, dial,
// prepare the served workload's 16 top-k texts, and run them remotely and
// embedded.
func (e *env) serverProbe(ctx context.Context, probe *database, m map[string]float64) error {
	tmp, err := os.MkdirTemp(filepath.Join(e.root, "benchmark", "out"), "probe-")
	if err != nil {
		return fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	snapshot := filepath.Join(tmp, "snapshot.gob")

	t0 := time.Now()
	size, err := probe.save(snapshot)
	if err != nil {
		return err
	}
	m["snapshot.save_ms"], m["snapshot.bytes"] = ms(time.Since(t0)), float64(size)
	t0 = time.Now()
	if _, err := loadSnapshot(snapshot); err != nil {
		return err
	}
	m["snapshot.load_ms"] = ms(time.Since(t0))

	t0 = time.Now()
	srv, err := startServer(e.bin, snapshot, filepath.Join(e.root, "benchmark", "out", "server.log"))
	if err != nil {
		return err
	}
	defer func() { _ = srv.stop() }()
	m["server.start_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	remote, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer func() { _ = remote.close() }()
	m["server.connect_ms"] = ms(time.Since(t0))

	serve, err := buildWorkload("serve_mixed", e.cfg.Seed, e.cfg.Sizes, 2)
	if err != nil {
		return err
	}
	topk := &serve.classes[0]
	local := probe.session()
	var rs, ls []*prepared
	t0 = time.Now()
	for v := 0; v < topk.variants; v++ {
		st, err := remote.prepare(topk.sql(v))
		if err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		rs = append(rs, st)
	}
	m["server.prepare_ms"] = ms(time.Since(t0)) / float64(topk.variants)
	for v := 0; v < topk.variants; v++ {
		st, err := local.prepare(topk.sql(v))
		if err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		ls = append(ls, st)
	}
	var rlat, llat []float64
	rejected := 0
	for i := 0; i < 320; i++ {
		rout, err := rs[i%len(rs)].run(ctx, runOpts{})
		if err != nil {
			if !isRejection(err.Error()) {
				return err
			}
			rejected++
			continue
		}
		lout, err := ls[i%len(ls)].run(ctx, runOpts{})
		if err != nil {
			return err
		}
		if !rout.fp.matches(lout.fp, true) {
			return fmt.Errorf("remote and embedded results of one prepared text differ")
		}
		rlat, llat = append(rlat, ms(rout.elapsed)), append(llat, ms(lout.elapsed))
	}
	m["server.rejected_ops"] = float64(rejected)
	m["server.class_ms_p50."+topk.name] = median(rlat)
	m["server.class_ms_p95."+topk.name] = percentile(rlat, 0.95)
	m["wire.roundtrip_overhead_ms"] = median(rlat) - median(llat)
	return nil
}
