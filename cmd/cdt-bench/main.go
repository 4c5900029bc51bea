// Command cdt-bench regenerates the tables and figures of the
// paper's evaluation section. Each experiment prints one aligned
// text table per (sub-)figure: the X column is the swept parameter,
// the remaining columns are the series the paper plots.
//
// Usage:
//
//	cdt-bench -list
//	cdt-bench -exp fig13
//	cdt-bench -exp all -scale 100       # fast smoke reproduction
//	cdt-bench -exp fig7-8 -scale 1      # full-scale (minutes)
//	cdt-bench -exp fig7-8 -csv out.csv  # machine-readable output
//	cdt-bench -exp fig7-8 -json out.json
//	cdt-bench -bench -json bench.json   # micro-benchmark trajectory
//
// With -bench, the figure experiments are skipped: the fixed
// micro-benchmark set runs instead (round advance, game solve,
// snapshot encode, tracing overhead), printing an aligned table and —
// with -json — writing one {name, iters, ns_per_op, allocs_per_op,
// bytes_per_op} record per case. CI archives that file per PR as the
// performance trajectory. In bench mode -reps repeats every case and
// reports the per-metric MEDIAN, damping scheduler noise, plus the
// fastest run's ns/op as min_ns_per_op; CI uses -reps 5.
//
// Adding -baseline <file> diffs the fresh run against an archived
// trajectory and exits non-zero when any case regressed more than
// -regress-pct percent (default 25) on time or allocs/op. The time is
// min_ns_per_op when both trajectories carry it, so an fsync-bound
// case is not flagged on disk jitter, and ns_per_op otherwise:
//
//	cdt-bench -bench -reps 5 -json new.json -baseline old.json
//
// The comparison is only meaningful when both trajectories were
// produced on the same machine; CI builds the merge-base and the PR
// head on one runner for exactly this reason.
//
// -cpuprofile and -memprofile write pprof profiles of whatever mode
// ran (figures or benches) — the standard way to find where an
// advance round actually spends its time:
//
//	cdt-bench -bench -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
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

	"cmabhs/internal/experiment"
)

func main() {
	os.Exit(run())
}

// run is main with explicit exit codes, so profile writers registered
// up front flush on every path (os.Exit would skip them).
func run() int {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Int("scale", 1, "divide all round counts by this (fast smoke runs)")
		reps     = flag.Int("reps", 1, "replications: per sweep point (figures) or per case, median reported (-bench)")
		seed     = flag.Int64("seed", 1, "master seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = #CPU)")
		csvPath  = flag.String("csv", "", "also write figures as CSV to this file")
		jsonPath = flag.String("json", "", "also write figures as JSON to this file")
		chart    = flag.Bool("chart", false, "render figures as ASCII charts instead of tables")
		bench    = flag.Bool("bench", false, "run the micro-benchmark set instead of figure experiments (-json writes the trajectory)")
		baseline = flag.String("baseline", "", "with -bench: compare against this archived trajectory and exit non-zero on regressions")
		regress  = flag.Float64("regress-pct", 25, "with -baseline: fail when ns/op (min of -reps when both sides record it) or allocs/op regress more than this percentage")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdt-bench:", err)
		return 1
	}
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *bench {
		results, err := runMicroBenches(*jsonPath, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdt-bench:", err)
			return 1
		}
		if *baseline != "" {
			if err := diffAgainstBaseline(results, *baseline, *regress); err != nil {
				fmt.Fprintln(os.Stderr, "cdt-bench:", err)
				return 1
			}
		}
		return 0
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiment.Registry {
			heavy := ""
			if e.Heavy {
				heavy = " (heavy at scale 1)"
			}
			fmt.Printf("  %-16s %s%s\n", e.ID, e.Description, heavy)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	s := experiment.Defaults()
	s.Scale = *scale
	s.Replications = *reps
	s.Seed = *seed
	s.Workers = *workers

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range experiment.Registry {
			ids = append(ids, e.ID)
		}
	}

	var csvOut *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdt-bench:", err)
			return 1
		}
		defer f.Close()
		csvOut = f
	}
	var allFigs []experiment.Figure
	interrupted := false

	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		if id == "settings" {
			if err := experiment.RunAndRender(ctx, os.Stdout, id, s); err != nil {
				fmt.Fprintln(os.Stderr, "cdt-bench:", err)
				return 1
			}
			continue
		}
		e, ok := experiment.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "cdt-bench: unknown experiment %q (try -list)\n", id)
			return 1
		}
		figs, err := e.Run(ctx, s)
		if errors.Is(err, context.Canceled) {
			// Interrupted mid-experiment: drop this experiment's
			// partial sweep, but still flush everything completed so
			// far to the -csv/-json outputs before exiting non-zero.
			fmt.Fprintf(os.Stderr, "cdt-bench: interrupted during %s; flushing completed experiments\n", id)
			interrupted = true
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdt-bench:", err)
			return 1
		}
		for j := range figs {
			if j > 0 {
				fmt.Println()
			}
			render := figs[j].Render
			if *chart {
				render = figs[j].RenderChart
			}
			if err := render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "cdt-bench:", err)
				return 1
			}
			if csvOut != nil {
				fmt.Fprintf(csvOut, "# %s: %s\n", figs[j].ID, figs[j].Title)
				if err := figs[j].RenderCSV(csvOut); err != nil {
					fmt.Fprintln(os.Stderr, "cdt-bench:", err)
					return 1
				}
			}
		}
		allFigs = append(allFigs, figs...)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdt-bench:", err)
			return 1
		}
		if err := experiment.SaveFigures(f, allFigs); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "cdt-bench:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cdt-bench:", err)
			return 1
		}
	}
	if interrupted {
		if csvOut != nil {
			csvOut.Close()
		}
		return 130
	}
	return 0
}

// startProfiles turns on the requested pprof outputs and returns the
// function that flushes them. With both paths empty it is a no-op.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cdt-bench: cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cdt-bench: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cdt-bench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cdt-bench: memprofile:", err)
			}
		}
	}, nil
}
