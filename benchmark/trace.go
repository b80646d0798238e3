package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// span is one timed call into a layer. Spans of one statement share Stmt;
// Parent is the span that caused this one (0 for a statement's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt"`
	Client  int    `json:"client"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	client int
	epoch  time.Time
	spans  []span
	stmts  int
}

func (t *tracer) add(parent, stmt int, class, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Stmt: stmt, Client: t.client, Class: class, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

func writeTrace(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("trace: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// layerSamples are what one client collected in its traced passes.
type layerSamples struct {
	layer map[string][]float64 // span name, plus "exec.self" → ms per statement
	whole map[int][]float64    // class → the same text run whole on the embedded engine
	// Per statement pair, as log ratios to the whole run beside it:
	// attributed is parse + plan + run_plan, traced adds the standalone
	// optimize (the traced statement). Logs, so that the mean of a pair run
	// in one order and a pair run in the other cancels the order's effect.
	attributed, traced map[int][]float64
	// GC pauses and bytes allocated during the untraced passes, which the
	// collections tracedPass forces do not touch.
	pauseNs, allocBytes uint64
}

func newLayerSamples() *layerSamples {
	return &layerSamples{layer: map[string][]float64{}, whole: map[int][]float64{}, attributed: map[int][]float64{}, traced: map[int][]float64{}}
}

func appendAll[K comparable](dst, src map[K][]float64) {
	for k, v := range src {
		dst[k] = append(dst[k], v...)
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracedPass is pass with one span per call into a layer. A read statement
// runs twice on the harness's embedded engine, back to back: whole, as one
// ad-hoc QueryContext, and as the explicit layer sequence. Each starts from a
// collected heap: otherwise the second inherits the first one's garbage and
// runs up to 16 % slower, which two cycles cannot average out. Which of the
// two goes first alternates from pass to pass. On the served workload the
// remote statement comes first, under a wire.roundtrip span, and the embedded
// pair is its replay for the server-side split.
func (e *env) tracedPass(ctx context.Context, ci int, t *tally, tr *tracer, ls *layerSamples, replay *conn) {
	served := e.w.dataset == dataServed
	for _, k := range e.w.clients[ci].cycle {
		c := &e.w.classes[k]
		n := t.next[k]
		t.next[k]++
		t.attempted++
		tr.stmts++
		o := runOpts{mode: c.mode}
		verify := func(out outcome, err error) bool {
			if err != nil {
				t.fail(fmt.Sprintf("%s (traced): %v", c.name, err))
				return false
			}
			if msg := e.check(k, n, out); msg != "" {
				t.fail(msg)
			}
			return true
		}
		start := time.Now()
		var root int
		if served || !c.reads() {
			name := "engine.exec"
			if served {
				name = "wire.roundtrip"
			}
			out, err := e.do(ctx, ci, k, n, o)
			if !verify(out, err) {
				continue
			}
			root = tr.add(0, tr.stmts, c.name, name, start, start.Add(out.elapsed))
			t.lat[k] = append(t.lat[k], ms(out.elapsed))
		} else {
			root = tr.add(0, tr.stmts, c.name, "stmt", start, start) // end patched below
		}
		if !c.reads() {
			continue
		}
		var wholeMs, seqMs, optMs float64
		whole := func() {
			w0 := time.Now()
			out, err := replay.query(ctx, c.sql(n), o)
			if !verify(out, err) {
				return
			}
			tr.add(root, tr.stmts, c.name, "engine.query", w0, w0.Add(out.elapsed))
			wholeMs = ms(out.elapsed)
			ls.whole[k] = append(ls.whole[k], wholeMs)
			if !served {
				t.lat[k] = append(t.lat[k], wholeMs)
			}
		}
		sequence := func() {
			var out outcome
			var err error
			out, seqMs, optMs, err = e.tracedSeq(ctx, k, n, o, tr, ls, root)
			verify(out, err)
		}
		first, second := whole, sequence
		if n%2 == 1 {
			first, second = sequence, whole
		}
		runtime.GC()
		first()
		runtime.GC()
		second()
		if wholeMs > 0 && seqMs > 0 {
			ls.attributed[k] = append(ls.attributed[k], math.Log(seqMs/wholeMs))
			ls.traced[k] = append(ls.traced[k], math.Log((seqMs+optMs)/wholeMs))
		}
		if !served {
			tr.spans[root-1].EndNs = time.Since(tr.epoch).Nanoseconds()
		}
	}
}

// tracedSeq runs one text through the adapter's layer sequence and files
// the spans (under one engine.sequence span) and samples. It returns the
// attributed time (parse + plan + run_plan) and the standalone optimize.
func (e *env) tracedSeq(ctx context.Context, k, n int, o runOpts, tr *tracer, ls *layerSamples, parent int) (out outcome, seqMs, optMs float64, err error) {
	c := &e.w.classes[k]
	start := time.Now()
	group := tr.add(parent, tr.stmts, c.name, "engine.sequence", start, start)
	d := map[string]float64{}
	out, err = e.db.traced(ctx, c.sql(n), o, func(name string, start, end time.Time) {
		tr.add(group, tr.stmts, c.name, name, start, end)
		d[name] = ms(end.Sub(start))
	})
	tr.spans[group-1].EndNs = time.Since(tr.epoch).Nanoseconds()
	if err != nil {
		return out, 0, 0, err
	}
	d["exec.self"] = math.Max(d["engine.run_plan"]-d["optimizer.optimize"], 0)
	for name, v := range d {
		ls.layer[name] = append(ls.layer[name], v)
	}
	return out, d["parser.parse"] + d["planner.plan"] + d["engine.run_plan"], d["optimizer.optimize"], nil
}

// tracedRun is the per-layer run: for tracedSeconds, or two cycles if that is
// longer, each client cycles through an untraced pass (the reference for
// tracing overhead and the source of the execution counts), a traced pass,
// and a pass under WithWorkers(1) (the sequential arm of
// exec.parallel_speedup). The fixed layer probes follow. Returns the tally of
// the untraced passes.
func (e *env) tracedRun(ctx context.Context, warm []*tally) (*tally, map[string]float64) {
	n := len(e.w.clients)
	plain, traced, seq1 := make([]*tally, n), make([]*tally, n), make([]*tally, n)
	tracers, samples := make([]*tracer, n), make([]*layerSamples, n)
	epoch := time.Now()
	for ci := 0; ci < n; ci++ {
		plain[ci], traced[ci], seq1[ci] = newTally(), newTally(), newTally()
		// One op counter per client across all three kinds of pass, so the
		// writer's keys stay unique.
		plain[ci].next = warm[ci].next
		traced[ci].next = warm[ci].next
		seq1[ci].next = warm[ci].next
		tracers[ci] = &tracer{client: ci, epoch: epoch}
		samples[ci] = newLayerSamples()
	}
	debug.FreeOSMemory()
	deadline := epoch.Add(time.Duration(math.Min(e.cfg.Seconds, tracedSeconds) * float64(time.Second)))
	e.loop(func(ci int) {
		replay := e.db.session()
		// At least two cycles: one for each order of the traced pairs.
		for cycles := 0; cycles < 2 || time.Now().Before(deadline); cycles++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.pass(ctx, ci, plain[ci], runOpts{})
			runtime.ReadMemStats(&after)
			samples[ci].pauseNs += after.PauseTotalNs - before.PauseTotalNs
			samples[ci].allocBytes += after.TotalAlloc - before.TotalAlloc
			e.tracedPass(ctx, ci, traced[ci], tracers[ci], samples[ci], replay)
			e.pass(ctx, ci, seq1[ci], runOpts{workers1: true})
		}
		_ = replay.close() // embedded sessions hold nothing to release
	})

	p, t, s := merge(plain), merge(traced), merge(seq1)
	ls := newLayerSamples()
	for _, c := range samples {
		appendAll(ls.layer, c.layer)
		appendAll(ls.whole, c.whole)
		appendAll(ls.attributed, c.attributed)
		appendAll(ls.traced, c.traced)
		ls.pauseNs += c.pauseNs
		ls.allocBytes += c.allocBytes
	}

	m := map[string]float64{
		"parser.parse_us":       median(ls.layer["parser.parse"]) * 1e3,
		"planner.plan_us":       median(ls.layer["planner.plan"]) * 1e3,
		"optimizer.optimize_us": median(ls.layer["optimizer.optimize"]) * 1e3,
		"engine.run_plan_ms":    median(ls.layer["engine.run_plan"]),
		"exec.self_ms":          median(ls.layer["exec.self"]),
	}
	// Per class: how much of a whole QueryContext the three attributed calls
	// explain, what the traced statement costs beside it, and what
	// WithWorkers(1) costs beside the default.
	var attributed, overhead, speedups []float64
	for k, c := range e.w.classes {
		if !c.reads() || len(ls.attributed[k]) == 0 {
			continue
		}
		attributed = append(attributed, math.Exp(mean(ls.attributed[k])))
		overhead = append(overhead, math.Exp(mean(ls.traced[k])))
		if len(s.lat[k]) > 0 && len(p.lat[k]) > 0 {
			speedups = append(speedups, median(s.lat[k])/median(p.lat[k]))
		}
	}
	m["engine.unattributed_ratio"] = math.Abs(1 - geomean(attributed))
	m["bench.trace_overhead_ratio"] = geomean(overhead)
	m["exec.parallel_speedup"] = geomean(speedups)
	m["bench.samples"] = float64(p.attempted)

	m["engine.gc_pause_ms_per_op"] = ratio(float64(ls.pauseNs)/1e6, float64(p.attempted))
	m["engine.alloc_kb_per_op"] = ratio(float64(ls.allocBytes)/1024, float64(p.attempted))
	reads := 0
	for k, c := range e.w.classes {
		if c.reads() {
			reads += len(p.lat[k])
		}
	}
	per := func(v int) float64 { return ratio(float64(v), float64(reads)) }
	st := p.stats
	m["exec.rows_scanned_per_op"] = per(st.RowsScanned)
	m["exec.tuples_materialized_per_op"] = per(st.TuplesMaterialized)
	m["exec.cells_materialized_per_op"] = per(st.CellsMaterialized)
	m["exec.prefer_evals_per_op"] = per(st.PreferEvals)
	m["exec.score_evals_per_op"] = per(st.ScoreEvals)
	m["exec.score_cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	m["exec.batches_per_op"] = per(st.Batches)
	m["exec.col_batches_per_op"] = per(st.ColBatches)
	m["exec.rows_late_materialized_ratio"] = ratio(float64(st.RowsMaterialized), float64(st.RowsScanned))
	m["exec.join_probe_batches_per_op"] = per(st.JoinProbeBatches)
	m["exec.index_probes_per_op"] = per(st.IndexProbes)
	m["colstore.segments_scanned_per_op"] = per(st.SegmentsScanned)
	m["colstore.segment_skip_ratio"] = ratio(float64(st.SegmentsSkipped), float64(st.SegmentsSkipped+st.SegmentsScanned))
	m["plugin.native_calls_per_op"] = per(st.NativeCalls)
	m["catalog.load_rows_per_s"] = ratio(float64(e.loadRows), e.parts["load"])

	all := merge([]*tally{p, t, s})
	for _, msg := range e.probes(ctx, m, p, t, ls) {
		all.fail(msg)
	}
	if err := writeTrace(filepath.Join(e.root, "benchmark", "out", "trace."+e.w.name+".jsonl"), tracers); err != nil {
		all.fail(err.Error())
	}
	// Class medians reported for a traced run are those of its untraced passes.
	all.lat = p.lat
	return all, m
}
