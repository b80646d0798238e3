package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// environment is recorded with every result file: a number without it is
// not comparable.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Date       string  `json:"date"`
}

func currentEnv(o options, root string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
		Seed: o.seed, RunSeconds: o.seconds,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "unknown" {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// workloadReport is one workload's entry in result.json.
type workloadReport struct {
	Why        string                 `json:"why"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	EndToEnd   map[string]*float64    `json:"end_to_end"`
	SetupParts map[string]float64     `json:"setup_parts_s"`
	Classes    map[string]classResult `json:"classes"`
	PerLayer   map[string]float64     `json:"per_layer,omitempty"`
	// SelfcheckDelta is, per end-to-end metric, the relative difference
	// between the two runs of -selfcheck; -compare calls a metric
	// unresolved when it exceeds the metric's bound.
	SelfcheckDelta map[string]float64 `json:"selfcheck_delta,omitempty"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Schema    int                        `json:"schema"`
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// allEndToEnd is every end-to-end metric the suite prints, gated or not.
func allEndToEnd() []metricSpec { return append(append([]metricSpec(nil), endToEnd...), suiteOnly...) }

func reportOf(w string, plain, traced *runResult) *workloadReport {
	r := &workloadReport{
		Why: workloadWhy[w], Attempted: plain.Attempted, Failed: plain.Failed, Errors: plain.Errors,
		EndToEnd: map[string]*float64{}, SetupParts: plain.SetupParts, Classes: plain.Classes,
	}
	for _, m := range allEndToEnd() {
		if v, ok := plain.EndToEnd[m.Name]; ok {
			r.EndToEnd[m.Name] = &v
		} else {
			r.EndToEnd[m.Name] = nil // not supported by this workload's samples
		}
	}
	if traced != nil {
		r.PerLayer = traced.PerLayer
		r.Attempted += traced.Attempted
		r.Failed += traced.Failed
		r.Errors = append(r.Errors, traced.Errors...)
	}
	failed := failedRatio(r.Failed, r.Attempted) // of both runs
	r.EndToEnd["failed_ops_ratio"] = &failed
	return r
}

// failedRatio is failed_ops_ratio: errors, wrong fingerprints, failed
// cross-checks and the ops lost with a dead process, over the ops attempted.
func failedRatio(failed, attempted int) float64 {
	return math.Min(1, ratio(float64(failed), float64(attempted)))
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading result: %w", err)
	}
	var r resultFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &r, nil
}

// --- golden fingerprints ---

type goldenFile map[string]map[string]fingerprint // workload → class → fingerprint

func goldenPath(root string) string { return filepath.Join(root, "benchmark", "golden.json") }

func readGolden(root string) (goldenFile, error) {
	raw, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, fmt.Errorf("golden fingerprints: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("decoding golden.json: %w", err)
	}
	return g, nil
}

// --- printing ---

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unitOf(name string) string {
	for _, m := range append(allEndToEnd(), perLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// printRun writes one run's numbers by name and unit.
func printRun(w io.Writer, res *runResult) {
	kind := "untraced"
	if res.Config.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0f s): %d ops attempted, %d failed\n",
		res.Config.Workload, kind, res.Config.Seed, res.Config.Seconds, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   ! %s\n", e)
	}
	for _, m := range allEndToEnd() {
		if v, ok := res.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "   %-42s %14.4f %s\n", m.Name, v, m.Unit)
		} else if res.EndToEnd != nil {
			fmt.Fprintf(w, "   %-42s %14s %s\n", m.Name, "n/a", m.Unit)
		}
	}
	for _, name := range sortedKeys(res.PerLayer) {
		fmt.Fprintf(w, "   %-42s %14.4f %s\n", name, res.PerLayer[name], unitOf(name))
	}
	for _, name := range sortedKeys(res.Classes) {
		c := res.Classes[name]
		fmt.Fprintf(w, "   %-42s %14.4f ms  (p95 %.4f ms, %d samples)\n", "engine.class_ms_p50."+name, c.P50Ms, c.P95Ms, c.Samples)
	}
}

// driverLine renders the one JSON object the driver reads from the last
// line of stdout; complete is false when a declared metric is missing.
func driverLine(res *runResult, spec []metricSpec, values map[string]float64) (string, bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	complete := true
	for _, m := range spec {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			complete = false
			continue
		}
		metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	raw, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0 && complete,
		"attempted": attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return "{}", false
	}
	return string(raw), complete
}

// --- the suite ---

// suite runs every workload untraced and, when traced is set, traced.
func suite(o options, root string, traced bool) *resultFile {
	out := &resultFile{Schema: 1, Env: currentEnv(o, root), Workloads: map[string]*workloadReport{}}
	for _, w := range workloadNames {
		plain := measure(o, w, false)
		printRun(os.Stdout, plain)
		var tr *runResult
		if traced {
			tr = measure(o, w, true)
			printRun(os.Stdout, tr)
		}
		out.Workloads[w] = reportOf(w, plain, tr)
	}
	return out
}

func (r *resultFile) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func runSuite(o options, root string) error {
	if err := prepareRun(&o, root); err != nil {
		return err
	}
	res := suite(o, root, !o.updateGolden)
	if o.updateGolden {
		g := goldenFile{}
		for name, w := range res.Workloads {
			g[name] = map[string]fingerprint{}
			for class, c := range w.Classes {
				if c.Fingerprint.Rows > 0 {
					g[name][class] = c.Fingerprint
				}
			}
		}
		if err := writeJSON(goldenPath(root), g); err != nil {
			return err
		}
	}
	path := filepath.Join(root, "benchmark", "out", "result.json")
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if res.failed() > 0 {
		return errIncorrect
	}
	return nil
}

// --- selfcheck and compare ---

// worsening is by how much of base the value got worse (negative: better).
func worsening(m metricSpec, base, val float64) float64 {
	if base == 0 {
		if val == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if m.Better == "higher" {
		return (base - val) / base
	}
	return (val - base) / base
}

// selfcheck runs the suite twice on the same binary: the ruler must agree
// with itself within its own bounds before it can judge a change. The first
// run is traced as well, so its file is a complete baseline; both files carry
// the deltas, so -compare against either can answer "unresolved".
func selfcheck(o options, root string) error {
	if err := prepareRun(&o, root); err != nil {
		return err
	}
	a := suite(o, root, true)
	b := suite(o, root, false)
	bad := 0
	fmt.Printf("%-18s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "run 1", "run 2", "delta", "bound", "")
	for _, w := range workloadNames {
		wa, wb := a.Workloads[w], b.Workloads[w]
		wa.SelfcheckDelta = map[string]float64{}
		wb.SelfcheckDelta = wa.SelfcheckDelta
		for _, m := range allEndToEnd() {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if va == nil || vb == nil {
				continue
			}
			delta := math.Max(worsening(m, *va, *vb), worsening(m, *vb, *va))
			wa.SelfcheckDelta[m.Name] = delta
			verdict := "ok"
			if delta > m.Bound {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-18s %-18s %14.4f %14.4f %7.1f%% %6.0f%%  %s\n", w, m.Name, *va, *vb, 100*delta, 100*m.Bound, verdict)
		}
	}
	out := filepath.Join(root, "benchmark", "out")
	if err := writeJSON(filepath.Join(out, "result.selfcheck.1.json"), a); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(out, "result.selfcheck.2.json"), b); err != nil {
		return err
	}
	if a.failed()+b.failed() > 0 {
		return errIncorrect
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d end-to-end metrics differ between two runs of the same binary by more than their bound", bad)
	}
	return nil
}

// compareFiles prints one row per workload × end-to-end metric. A metric the
// base has and the new file lacks (the workload's process died) is worse.
func compareFiles(oldPath, newPath string) error {
	base, err := readResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-18s %-18s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "verdict")
	for _, w := range workloadNames {
		wb, wc := base.Workloads[w], cur.Workloads[w]
		if wb == nil {
			continue
		}
		if wc == nil {
			wc = &workloadReport{}
		}
		for _, m := range allEndToEnd() {
			vb, vc := wb.EndToEnd[m.Name], wc.EndToEnd[m.Name]
			switch {
			case vb == nil:
				continue // the workload does not support this metric
			case vc == nil:
				worse++
				fmt.Printf("%-18s %-18s %14.4f %14s %8s  worse\n", w, m.Name, *vb, "missing", "")
				continue
			}
			verdict := "ok"
			switch {
			case math.Max(wb.SelfcheckDelta[m.Name], wc.SelfcheckDelta[m.Name]) > m.Bound:
				verdict = "unresolved" // the ruler's own runs differ by more than the bound
			case worsening(m, *vb, *vc) > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-18s %-18s %14.4f %14.4f %8.3f  %s\n", w, m.Name, *vb, *vc, ratio(*vc, *vb), verdict)
		}
	}
	if worse > 0 {
		return errors.New("compare: at least one metric is worse than its bound allows")
	}
	return nil
}
