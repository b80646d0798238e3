package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// runConfig is what one workload process is asked to do.
type runConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Sizes is defaultSizes in every workload process; only the smoke test
	// shrinks it.
	Sizes sizes `json:"-"`
	// SetupOnly stops after set-up: measure takes such runs as further
	// samples of setup_s without touching the measured process.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Golden compares class fingerprints with golden.json (seed 42 only).
	Golden map[string]fingerprint `json:"-"`
}

// classResult is the per-class outcome of the timed run.
type classResult struct {
	Samples     int         `json:"samples"`
	P50Ms       float64     `json:"ms_p50"`
	P95Ms       float64     `json:"ms_p95"`
	Fingerprint fingerprint `json:"fingerprint"`
}

// runResult is what one workload process reports back.
type runResult struct {
	Config     runConfig              `json:"config"`
	SetupS     float64                `json:"setup_s"`
	SetupParts map[string]float64     `json:"setup_parts_s"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	EndToEnd   map[string]float64     `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64     `json:"per_layer,omitempty"`
	Classes    map[string]classResult `json:"classes,omitempty"`
}

// env is one workload set up and ready to run.
type env struct {
	cfg      runConfig
	w        *workload
	root     string
	bin      string // the built prefdbserver
	tmp      string
	db       *database // the embedded engine; for serve_mixed the harness's own copy, used for replays
	conns    []*conn   // one per client
	stmts    map[int][]*prepared
	server   *serverProc
	refs     map[int][]fingerprint // reference fingerprint per class and variant
	parts    map[string]float64
	loadRows int
	snapSize int64
}

func (e *env) part(name string, since time.Time) { e.parts[name] += time.Since(since).Seconds() }

// setup does everything a user pays before the first statement: datagen,
// index build, colstore compaction and, for the served workload, snapshot
// save, server start, dial and prepare. go build is excluded.
func setup(cfg runConfig, root, serverBin string) (*env, error) {
	w, err := buildWorkload(cfg.Workload, cfg.Seed, cfg.Sizes, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, w: w, root: root, bin: serverBin, stmts: map[int][]*prepared{}, refs: map[int][]fingerprint{}, parts: map[string]float64{}}
	if err := e.build(); err != nil {
		_ = e.teardown() // the set-up error is the one worth reporting
		return nil, err
	}
	return e, nil
}

func (e *env) build() (err error) {
	w, cfg, root := e.w, e.cfg, e.root
	t0 := time.Now()
	switch w.dataset {
	case dataPaper, dataServed:
		e.db = openDB(false)
		if e.loadRows, err = e.db.loadPaper(w.scale, cfg.Seed); err != nil {
			return err
		}
		e.part("load", t0)
	case dataEvents:
		e.db = openDB(true)
		if err := e.db.loadEvents(w.events, cfg.Seed); err != nil {
			return err
		}
		e.loadRows = w.events
		e.part("load", t0)
		t1 := time.Now()
		if _, err = e.db.buildColstore("events"); err != nil {
			return err
		}
		e.part("colstore_build", t1)
	}
	if w.dataset != dataServed {
		for range w.clients {
			e.conns = append(e.conns, e.db.session())
		}
		return nil
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(root, "benchmark", "out"), "serve-"); err != nil {
		return fmt.Errorf("temp dir: %w", err)
	}
	snapshot := filepath.Join(e.tmp, "snapshot.gob")
	t1 := time.Now()
	if e.snapSize, err = e.db.save(snapshot); err != nil {
		return err
	}
	e.part("snapshot_save", t1)
	t2 := time.Now()
	if e.server, err = startServer(e.bin, snapshot, filepath.Join(root, "benchmark", "out", "server.log")); err != nil {
		return err
	}
	e.part("server_start", t2) // dominated by the snapshot load inside the child
	t3 := time.Now()
	for range w.clients {
		c, err := dial(e.server.addr)
		if err != nil {
			return err
		}
		e.conns = append(e.conns, c)
	}
	e.part("connect", t3)
	t4 := time.Now()
	for ci, cl := range w.clients {
		for _, k := range cl.cycle {
			c := &w.classes[k]
			if c.kind != kindPrepared || e.stmts[k] != nil {
				continue
			}
			for v := 0; v < c.variants; v++ {
				st, err := e.conns[ci].prepare(c.sql(v))
				if err != nil {
					return fmt.Errorf("prepare %s: %w", c.name, err)
				}
				e.stmts[k] = append(e.stmts[k], st)
			}
		}
	}
	e.part("prepare", t4)
	return nil
}

// teardown closes sessions, stops the server child and waits for it.
func (e *env) teardown() error {
	var first error
	for _, c := range e.conns {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	if e.server != nil {
		if err := e.server.stop(); err != nil && first == nil {
			first = err
		}
	}
	if e.tmp != "" {
		if err := os.RemoveAll(e.tmp); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// do issues op n of class k on client ci's connection.
func (e *env) do(ctx context.Context, ci, k, n int, o runOpts) (outcome, error) {
	c := &e.w.classes[k]
	o.mode = c.mode
	switch c.kind {
	case kindPrepared:
		return e.stmts[k][n%c.variants].run(ctx, o)
	case kindStream:
		return e.conns[ci].stream(ctx, c.sql(n), o)
	case kindExec:
		return e.conns[ci].exec(ctx, c.sql(n))
	default:
		return e.conns[ci].query(ctx, c.sql(n), o)
	}
}

// check decides whether an op's result is correct; "" means yes.
func (e *env) check(k, n int, out outcome) string {
	c := &e.w.classes[k]
	if !c.reads() {
		if want := c.message(n); out.message != want {
			return fmt.Sprintf("%s: effect %q, want %q", c.name, out.message, want)
		}
		return ""
	}
	ref := e.refs[k][n%c.variants]
	if !out.fp.matches(ref, c.scoresOnly) {
		return fmt.Sprintf("%s[%d]: fingerprint %+v differs from the workers=1 reference %+v", c.name, n%c.variants, out.fp, ref)
	}
	if c.scoresOnly && !out.fp.ordered { // TOP k results arrive ranked
		return fmt.Sprintf("%s[%d]: scores are not non-increasing", c.name, n%c.variants)
	}
	return ""
}

// reference runs every text of every read class once under WithWorkers(1)
// and records its fingerprint: the oracle each later op is compared with.
// It also cross-checks the ⟨score, conf⟩ multisets of all modes of one
// Table II query, and seed 42's fingerprints against golden.json. It
// doubles as the first warm-up of lazily built state (statistics, score
// dictionaries, columnar images).
func (e *env) reference(ctx context.Context) (map[string]fingerprint, []string) {
	var problems []string
	byQuery := map[string][][]scorePair{}
	crossed := map[string]bool{} // Table II queries whose cross modes already ran
	classFP := map[string]fingerprint{}
	for ci, cl := range e.w.clients {
		seen := map[int]bool{}
		for _, k := range cl.cycle {
			c := &e.w.classes[k]
			if seen[k] || !c.reads() {
				continue
			}
			seen[k] = true
			for v := 0; v < c.variants; v++ {
				out, err := e.do(ctx, ci, k, v, runOpts{workers1: true, keepPairs: c.query != ""})
				if err != nil {
					problems = append(problems, fmt.Sprintf("reference %s[%d]: %v", c.name, v, err))
					out.fp = newFingerprint()
				}
				e.refs[k] = append(e.refs[k], out.fp)
				if c.query != "" {
					byQuery[c.query] = append(byQuery[c.query], out.pairs)
				}
			}
			classFP[c.name] = combine(e.refs[k])
			if c.query == "" || crossed[c.query] {
				continue
			}
			crossed[c.query] = true
			for _, mode := range e.w.crossModes {
				out, err := e.conns[ci].query(ctx, c.sql(0), runOpts{mode: mode, workers1: true, keepPairs: true})
				if err != nil {
					problems = append(problems, fmt.Sprintf("reference %s under %s: %v", c.query, mode, err))
					continue
				}
				byQuery[c.query] = append(byQuery[c.query], out.pairs)
			}
		}
	}
	for q, sets := range byQuery {
		for i := 1; i < len(sets); i++ {
			if !sameScores(sets[0], sets[i]) {
				problems = append(problems, fmt.Sprintf("%s: evaluation modes disagree on the score/conf multiset", q))
				break
			}
		}
	}
	for name, want := range e.cfg.Golden {
		if got, ok := classFP[name]; ok && got != want {
			problems = append(problems, fmt.Sprintf("%s: fingerprint %+v differs from golden.json %+v", name, got, want))
		}
	}
	sort.Strings(problems)
	return classFP, problems
}

// tally collects what one client observed; each client owns one, so the
// loops need no locking.
type tally struct {
	lat       map[int][]float64 // class → latencies in ms
	next      map[int]int       // class → ops issued so far
	attempted int
	failed    int
	rejected  int
	errs      []string
	stats     counters
}

func newTally() *tally { return &tally{lat: map[int][]float64{}, next: map[int]int{}} }

func (t *tally) fail(msg string) {
	t.failed++
	if isRejection(msg) {
		t.rejected++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, msg)
	}
}

// pass issues one trip through a client's cycle and records every op.
func (e *env) pass(ctx context.Context, ci int, t *tally, o runOpts) {
	for _, k := range e.w.clients[ci].cycle {
		n := t.next[k]
		t.next[k]++
		t.attempted++
		out, err := e.do(ctx, ci, k, n, o)
		if err != nil {
			t.fail(fmt.Sprintf("%s: %v", e.w.classes[k].name, err))
			continue
		}
		t.lat[k] = append(t.lat[k], ms(out.elapsed))
		t.stats.add(out.stats)
		if msg := e.check(k, n, out); msg != "" {
			t.fail(msg)
		}
	}
}

// loop runs body for every client concurrently (one goroutine per client,
// never more than nproc) and waits for all of them.
func (e *env) loop(body func(ci int)) {
	var wg sync.WaitGroup
	for ci := range e.w.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			body(ci)
		}(ci)
	}
	wg.Wait()
}

// merge folds the per-client tallies; classes never span clients.
func merge(ts []*tally) *tally {
	out := newTally()
	for _, t := range ts {
		for k, l := range t.lat {
			out.lat[k] = append(out.lat[k], l...)
		}
		for k, n := range t.next {
			out.next[k] += n
		}
		out.attempted += t.attempted
		out.failed += t.failed
		out.rejected += t.rejected
		out.errs = append(out.errs, t.errs...)
		out.stats.add(t.stats)
	}
	return out
}

// classMedians returns each class's median latency in workload order,
// skipping classes without samples.
func (e *env) classMedians(t *tally) []float64 {
	var out []float64
	for k := range e.w.classes {
		if len(t.lat[k]) > 0 {
			out = append(out, median(t.lat[k]))
		}
	}
	return out
}

// reconcile checks, on the served workload, that the rows the writer left
// behind equal inserts − deletes: none after whole insert/update/delete
// cycles.
func (e *env) reconcile(ctx context.Context, t *tally) string {
	if e.w.dataset != dataServed {
		return ""
	}
	want := 0
	for k, c := range e.w.classes {
		if !c.reads() && len(t.lat[k])%3 != 0 {
			want = 1 // inserted, not yet deleted
		}
	}
	out, err := e.conns[0].query(ctx, benchRowsSQL, runOpts{})
	if err != nil {
		return fmt.Sprintf("reconcile: %v", err)
	}
	if out.fp.Rows != want {
		return fmt.Sprintf("reconcile: %d benchmark rows left in movies, inserts − deletes = %d", out.fp.Rows, want)
	}
	return ""
}

// hostPeakRSSMB is the peak resident set of the process hosting the engine:
// the server child on the served workload, this process otherwise.
func (e *env) hostPeakRSSMB() float64 {
	if e.server != nil {
		return peakRSSMB(e.server.cmd.Process.Pid)
	}
	return peakRSSMB(0)
}

// runWorkload is the body of one workload process.
func runWorkload(ctx context.Context, cfg runConfig, root, serverBin string) (*runResult, error) {
	res := &runResult{Config: cfg}
	t0 := time.Now()
	e, err := setup(cfg, root, serverBin)
	if e != nil {
		defer func() {
			if tErr := e.teardown(); tErr != nil {
				res.Errors = append(res.Errors, "teardown: "+tErr.Error())
			}
		}()
	}
	if err != nil {
		return nil, fmt.Errorf("setup %s: %w", cfg.Workload, err)
	}
	res.SetupS = time.Since(t0).Seconds()
	res.SetupParts = e.parts
	if cfg.SetupOnly {
		return res, nil
	}

	// Set-up garbage (discarded background compactions race the load) would
	// otherwise decide where the collector's heap goal starts, and with it
	// the peak RSS of the whole run.
	debug.FreeOSMemory()
	classFP, problems := e.reference(ctx)
	warm := make([]*tally, len(e.w.clients))
	e.loop(func(ci int) {
		warm[ci] = newTally()
		e.pass(ctx, ci, warm[ci], runOpts{})
	})

	var total *tally
	if cfg.Trace {
		total, res.PerLayer = e.tracedRun(ctx, warm)
	} else {
		total = e.timedRun(ctx, warm, res)
	}
	if msg := e.reconcile(ctx, total); msg != "" {
		problems = append(problems, msg)
	}
	if e.server != nil && !e.server.alive() {
		problems = append(problems, "the server process died during the run")
	}

	res.Attempted = total.attempted
	res.Failed = total.failed + len(problems)
	if res.EndToEnd != nil {
		// Failed cross-checks (reference, golden, cross-mode, reconcile, a dead
		// server) count like failed ops.
		res.EndToEnd["failed_ops_ratio"] = failedRatio(res.Failed, res.Attempted)
	}
	res.Errors = append(append(res.Errors, problems...), total.errs...)
	res.Classes = map[string]classResult{}
	for k, c := range e.w.classes {
		res.Classes[c.name] = classResult{
			Samples: len(total.lat[k]), P50Ms: median(total.lat[k]), P95Ms: percentile(total.lat[k], 0.95),
			Fingerprint: classFP[c.name],
		}
	}
	return res, nil
}

// timedRun is the measured closed loop with tracing off: whole passes until
// the time is up, so the statement mix of every run is the same.
func (e *env) timedRun(ctx context.Context, warm []*tally, res *runResult) *tally {
	tallies := make([]*tally, len(e.w.clients))
	for ci := range tallies {
		tallies[ci] = newTally()
		tallies[ci].next = warm[ci].next // DML keys continue after the warm-up pass
	}
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(e.cfg.Seconds * float64(time.Second)))
	e.loop(func(ci int) {
		for time.Now().Before(deadline) {
			e.pass(ctx, ci, tallies[ci], runOpts{})
		}
	})
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	total := merge(tallies)
	ops := total.attempted - total.failed
	res.EndToEnd = map[string]float64{
		"setup_s":     res.SetupS,
		"ops_per_s":   float64(ops) / elapsed,
		"lat_ms_p50":  geomean(e.classMedians(total)),
		"peak_rss_mb": e.hostPeakRSSMB(),
	}
	if e.server == nil { // the engine's allocations are this process's
		res.EndToEnd["alloc_kb_per_op"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(total.attempted))
	}
	// A p95 needs at least ten samples beyond it.
	for k, c := range e.w.classes {
		if c.name == e.w.primary && len(total.lat[k]) >= 200 {
			res.EndToEnd["lat_ms_p95"] = percentile(total.lat[k], 0.95)
		}
	}
	return total
}
