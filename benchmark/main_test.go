package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	// A 10 % move weighs the same on a fast and on a slow class.
	base := geomean([]float64{9, 390})
	if a, b := geomean([]float64{9.9, 390})/base, geomean([]float64{9, 429})/base; math.Abs(a-b) > 1e-9 {
		t.Errorf("geomean weighs classes unevenly: %v vs %v", a, b)
	}
	if geomean([]float64{0, 4}) != 4 || geomean(nil) != 0 {
		t.Error("geomean must skip non-positive entries and be 0 for none")
	}
}

func TestFingerprint(t *testing.T) {
	type row struct {
		h    uint64
		s, c float64
	}
	rows := []row{{11, 0.9, 0.8}, {22, 0.9, 0.8}, {33, 0.5, 0.6}}
	fold := func(rs []row) fingerprint {
		f := newFingerprint()
		for _, r := range rs {
			f.add(r.h, r.s, r.c, true)
		}
		return f
	}
	ranked := fold(rows)
	shuffled := fold([]row{rows[2], rows[0], rows[1]})
	if !shuffled.matches(ranked, false) {
		t.Error("fingerprint depends on row order")
	}
	if !ranked.ordered || shuffled.ordered {
		t.Errorf("ordered: ranked %v (want true), shuffled %v (want false)", ranked.ordered, shuffled.ordered)
	}
	// Another row tied on score at the TOP k cut: same multiset, other tuple.
	tied := fold([]row{rows[0], {44, 0.9, 0.8}, rows[2]})
	if tied.matches(ranked, false) || !tied.matches(ranked, true) {
		t.Error("a row swapped for one tied on score must differ in full and match on scores only")
	}
	if fold([]row{rows[0], rows[1], {33, 0.5, 0.61}}).matches(ranked, true) {
		t.Error("a changed confidence went unnoticed")
	}
	if fold(rows[:2]).matches(ranked, true) {
		t.Error("a missing row went unnoticed")
	}
	bottom := newFingerprint()
	bottom.add(11, 0, 0, false)
	known := newFingerprint()
	known.add(11, 0, 0, true)
	if bottom.matches(known, true) {
		t.Error("⟨⊥, 0⟩ and ⟨0, 0⟩ must differ")
	}
	if combine([]fingerprint{ranked, tied}) == combine([]fingerprint{tied, ranked}) {
		t.Error("combine must depend on which text produced which result")
	}
}

func TestSameScores(t *testing.T) {
	a := []scorePair{{0.1 + 0.2 + 0.3, 0.9, true}, {0.5, 0.8, true}, {0, 0, false}}
	b := []scorePair{{0, 0, false}, {0.5, 0.8, true}, {0.3 + 0.2 + 0.1, 0.9, true}} // other summation order
	if !sameScores(a, b) {
		t.Error("summation order must not matter")
	}
	b[1].conf = 0.7
	if sameScores(a, b) {
		t.Error("a different confidence went unnoticed")
	}
}

// TestCompareFlagsLostWorkloads: a workload whose process died reports no
// metrics, and failed cross-checks raise only failed_ops_ratio; -compare must
// call both worse.
func TestCompareFlagsLostWorkloads(t *testing.T) {
	healthy := func() *runResult {
		return &runResult{Attempted: 100, EndToEnd: map[string]float64{
			"setup_s": 1, "ops_per_s": 5, "lat_ms_p50": 20, "peak_rss_mb": 300, "alloc_kb_per_op": 10,
		}}
	}
	write := func(name string, res *runResult) string {
		path := filepath.Join(t.TempDir(), name)
		file := &resultFile{Schema: 1, Workloads: map[string]*workloadReport{"scan_wide": reportOf("scan_wide", res, nil)}}
		if err := writeJSON(path, file); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", healthy())
	if err := compareFiles(base, write("same.json", healthy())); err != nil {
		t.Errorf("identical results: %v", err)
	}
	dead := &runResult{Attempted: 1, Failed: 1, EndToEnd: map[string]float64{"failed_ops_ratio": 1}}
	if err := compareFiles(base, write("dead.json", dead)); err == nil {
		t.Error("a workload without metrics passed")
	}
	mismatch := healthy()
	mismatch.Failed = 3 // e.g. golden, cross-mode and reconcile
	if err := compareFiles(base, write("mismatch.json", mismatch)); err == nil {
		t.Error("failed cross-checks passed")
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, declared any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &declared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, declared) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
}

// TestSmoke runs every workload for a moment at a twentieth of the size,
// untraced and traced, and requires every op to pass its checks and every
// declared metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads datasets and starts server processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "benchmark", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	serverBin := ""
	if _, err := exec.LookPath("go"); err == nil {
		if serverBin, err = buildServer(root); err != nil {
			t.Fatal(err)
		}
	}
	small := sizes{paper: 0.05, events: 20_000}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			served := name == "serve_mixed" || trace // a traced run probes a server too
			if served && serverBin == "" {
				continue
			}
			if trace && name != "scan_selective" && name != "serve_mixed" {
				continue // one embedded and the served workload cover the traced paths
			}
			cfg := runConfig{Workload: name, Seed: 7, Seconds: 0.5, Trace: trace, Sizes: small}
			res, err := runWorkload(context.Background(), cfg, root, serverBin)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", name, trace, res.Failed, res.Attempted, res.Errors)
			}
			spec, values := endToEnd, res.EndToEnd
			if trace {
				spec, values = perLayer, res.PerLayer
			}
			if _, complete := driverLine(res, spec, values); !complete {
				t.Errorf("%s (trace %v): a declared metric is missing from %v", name, trace, values)
			}
			for class, c := range res.Classes {
				if c.Samples == 0 {
					t.Errorf("%s (trace %v): class %s has no samples", name, trace, class)
				}
			}
		}
	}
}
