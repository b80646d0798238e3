// Command benchrunner regenerates the paper's evaluation tables and
// figures (see EXPERIMENTS.md for the mapping).
//
// Usage:
//
//	benchrunner -exp all -scale 0.25 -repeats 3
//	benchrunner -exp prefs
//	benchrunner -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"text/tabwriter"

	"prefdb/internal/bench"
	"prefdb/internal/exec"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all'")
		scale   = flag.Float64("scale", 0.25, "dataset scale factor (1.0 ≈ 20k movies)")
		repeats = flag.Int("repeats", 3, "repetitions per measurement (best-of)")
		timeout = flag.Duration("timeout", 0, "overall wall-clock budget for the run (0 = none)")
		list    = flag.Bool("list", false, "list experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
				return
			}
			runtime.GC() // settle allocations so the heap profile reflects live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
			}
			f.Close()
		}()
	}

	// SIGINT/SIGTERM cancel the run's context: the active query stops at
	// its next guard poll and the runner exits cleanly instead of dying
	// mid-materialization.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "id\tpaper\ttitle")
		for _, ex := range bench.Experiments() {
			fmt.Fprintf(w, "%s\t%s\t%s\n", ex.ID, ex.Paper, ex.Title)
		}
		w.Flush()
		return
	}

	env := bench.NewEnv(*scale)
	var toRun []bench.Experiment
	if *exp == "all" {
		toRun = bench.Experiments()
	} else {
		ex, err := bench.FindExperiment(*exp)
		if err != nil {
			fatal(err)
		}
		toRun = []bench.Experiment{ex}
	}

	for _, ex := range toRun {
		fmt.Printf("=== %s — %s (%s) ===\n", ex.ID, ex.Title, ex.Paper)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		err := ex.Run(ctx, env, w, *repeats)
		w.Flush()
		if err != nil {
			var ge *exec.GuardError
			if errors.As(err, &ge) {
				fmt.Fprintf(os.Stderr, "benchrunner: %s aborted: %v\n", ex.ID, ge)
				fmt.Fprintf(os.Stderr, "benchrunner: partial stats of the interrupted query: %v\n", ge.Stats)
				os.Exit(130)
			}
			fatal(fmt.Errorf("%s: %w", ex.ID, err))
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
