// Command benchmark is the repository's fixed measurement spine: five
// workloads, the same end-to-end metrics on each, and per-layer numbers
// timed from outside the engine. See README.md.
//
//	go run ./benchmark -seed 42                  every workload, untraced then traced; writes out/result.json
//	go run ./benchmark -workload W -trace 0|1    one run in the form the driver reads (last stdout line is JSON)
//	go run ./benchmark -selfcheck                the suite twice; fails if the two disagree beyond the bounds
//	go run ./benchmark -compare old.json new.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	child        bool
	setupOnly    bool
	serverBin    string
	selfcheck    bool
	compare      bool
	spec         bool
	updateGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the generated data and of every statement constant")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of one timed run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as declared in spec.go")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite golden.json from a seed-42 run of every workload")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its result")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	flag.StringVar(&o.serverBin, "server-bin", "", "internal: path of the built prefdbserver")
	flag.Parse()

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("incorrect results or failed operations (see above)")

func run(o options, args []string) error {
	switch {
	case o.spec:
		raw, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		fmt.Println(string(raw))
		return nil
	case o.compare:
		if len(args) != 2 {
			return errors.New("usage: -compare old.json new.json")
		}
		return compareFiles(args[0], args[1])
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, "benchmark", "out"), 0o755); err != nil {
		return fmt.Errorf("output directory: %w", err)
	}
	switch {
	case o.child:
		return runChild(o, root)
	case o.workload != "":
		return runOne(o, root)
	case o.selfcheck:
		return selfcheck(o, root)
	default:
		return runSuite(o, root)
	}
}

// runChild is the body of a workload process: it prints its runResult as
// the last line of stdout for the parent to read.
func runChild(o options, root string) error {
	cfg := runConfig{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace != 0, Sizes: defaultSizes, SetupOnly: o.setupOnly}
	if o.seed == 42 && !o.updateGolden {
		golden, err := readGolden(root)
		if err != nil {
			return err
		}
		cfg.Golden = golden[o.workload]
	}
	res, err := runWorkload(context.Background(), cfg, root, o.serverBin)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(raw))
	return nil
}

// spawn re-executes this binary as a workload process. A fresh process per
// workload gives clean RSS and GC state, and a crash costs that workload's
// ops, not the run.
func spawn(o options, workload string, trace, setupOnly bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	args := []string{
		"-child", "-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-server-bin", o.serverBin,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	if o.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload process %s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("workload process %s: reading result: %w", workload, err)
	}
	return &res, nil
}

// measure runs one workload the way the driver sees it. A single set-up
// time is too noisy to gate on (first-touch page faults, and on the scan
// workloads a race between the load and background compaction: 0.87 or
// 1.25 s), so an untraced run first sets the workload up in setupSamples-1
// further fresh processes and reports the median as setup_s. A process that
// dies counts as one failed op with nothing else attempted.
func measure(o options, workload string, trace bool) *runResult {
	var setups []float64
	var err error
	for i := 1; err == nil && !trace && i < setupSamples; i++ {
		var s *runResult
		if s, err = spawn(o, workload, false, true); err == nil {
			setups = append(setups, s.SetupS)
		}
	}
	var res *runResult
	if err == nil {
		res, err = spawn(o, workload, trace, false)
	}
	if err != nil {
		res = &runResult{
			Config:    runConfig{Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: trace},
			Attempted: 1, Failed: 1, Errors: []string{err.Error()},
		}
		if !trace {
			res.EndToEnd = map[string]float64{"failed_ops_ratio": 1}
		}
		return res
	}
	if res.EndToEnd != nil {
		res.EndToEnd["setup_s"] = median(append(setups, res.SetupS))
	}
	return res
}

// prepareRun builds what the run needs outside the timed region.
func prepareRun(o *options, root string) error {
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	o.serverBin = bin
	return nil
}

// runOne is the driver's entry point: one workload, one JSON line.
func runOne(o options, root string) error {
	if _, err := buildWorkload(o.workload, o.seed, defaultSizes, 1); err != nil {
		return err
	}
	if err := prepareRun(&o, root); err != nil {
		return err
	}
	res := measure(o, o.workload, o.trace != 0)
	spec, values := endToEnd, res.EndToEnd
	if o.trace != 0 {
		spec, values = perLayer, res.PerLayer
	}
	printRun(os.Stdout, res)
	line, complete := driverLine(res, spec, values)
	fmt.Println(line)
	if res.Failed > 0 || !complete {
		return errIncorrect
	}
	return nil
}
