// Command fdbench regenerates the evaluation's figures and tables.
//
// Usage:
//
//	fdbench -list                 # show every experiment
//	fdbench -run fig4             # run one experiment (text table)
//	fdbench -run all -quick       # everything, reduced trials
//	fdbench -run fig1 -format csv # machine-readable output
//	fdbench -run fig6 -seed 7     # different random seed
//	fdbench -run fig1 -parallel 1 # force serial (output is identical)
//	fdbench -run all -quick -timingjson BENCH_quick.json
//	fdbench -run all -quick -compare BENCH_baseline.json
//	fdbench -run fig1 -cpuprofile cpu.prof -memprofile mem.prof
//
// Experiments run their parameter cells on a worker pool; -parallel
// sets the pool size (0 = all CPUs). Output is byte-identical at any
// worker count for the same seed. -timingjson additionally writes
// per-experiment wall-clock timings to a JSON file, so CI can persist
// the perf trajectory as an artifact without polluting stdout.
// -compare checks the run's timings against a baseline report and
// exits non-zero on a regression beyond the default gate (>2x and
// >50 ms absolute); the comparison goes to stderr so the table output
// stays byte-identical. -cpuprofile/-memprofile write pprof profiles
// so hotspots can be localised without editing code.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/perf"
)

func main() {
	os.Exit(run())
}

// run carries the whole command so the CPU profile (and any other
// cleanup) flushes on every exit path; os.Exit skips deferred calls,
// which would leave -cpuprofile truncated exactly when -compare
// detects a regression.
func run() int {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		run        = flag.String("run", "", "experiment id to run, or 'all'")
		format     = flag.String("format", "text", "output format: text or csv")
		seed       = flag.Uint64("seed", 1, "random seed")
		quick      = flag.Bool("quick", false, "reduced trial counts")
		parallel   = flag.Int("parallel", 0, "worker goroutines per experiment (0 = all CPUs, 1 = serial)")
		timingJSON = flag.String("timingjson", "", "write per-experiment wall-clock timings to this JSON file")
		compare    = flag.String("compare", "", "compare timings against this baseline JSON; exit 2 on regression")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "fdbench: unknown -format %q (want text or csv)\n", *format)
		flag.Usage()
		return 2
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range bench.List() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: fdbench -run <id>   (or -run all)")
		}
		return 0
	}

	var targets []bench.Experiment
	if *run == "all" {
		targets = bench.List()
	} else {
		e, err := bench.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		targets = []bench.Experiment{e}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	workers := *parallel
	if workers <= 0 {
		workers = bench.AutoWorkers()
	}
	cfg := bench.RunConfig{Seed: *seed, Quick: *quick, Workers: workers}
	report := &perf.Report{
		Seed: *seed, Quick: *quick, Parallel: workers,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: perf.HostCPUModel(),
	}
	for i, e := range targets {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		res := e.Run(cfg)
		elapsed := time.Since(start)
		report.Experiments = append(report.Experiments, perf.Timing{
			ID: e.ID, Ms: float64(elapsed.Microseconds()) / 1e3,
		})
		report.TotalMs += float64(elapsed.Microseconds()) / 1e3
		var err error
		if *format == "csv" {
			err = res.Table.WriteCSV(os.Stdout)
		} else {
			err = res.Table.WriteText(os.Stdout)
			fmt.Printf("shape: %s\n", res.Shape)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *timingJSON != "" {
		if err := report.Write(*timingJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		f.Close()
	}
	if *compare != "" {
		base, err := perf.Load(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, w := range perf.EnvMismatch(report, base) {
			fmt.Fprintf(os.Stderr, "perf: WARNING: environment differs from baseline — %s\n", w)
		}
		regs := perf.DefaultGate.Regressions(report, base)
		for _, d := range perf.Compare(report, base) {
			switch d.Status {
			case perf.StatusAdded:
				fmt.Fprintf(os.Stderr, "perf: %-16s (added)   %8.1f ms, no baseline\n", d.ID, d.CurrentMs)
			case perf.StatusRemoved:
				fmt.Fprintf(os.Stderr, "perf: %-16s (removed) %8.1f ms baseline no longer measured\n", d.ID, d.BaselineMs)
			default:
				fmt.Fprintf(os.Stderr, "perf: %-16s %8.1f ms -> %8.1f ms (%.2fx)\n",
					d.ID, d.BaselineMs, d.CurrentMs, d.Ratio)
			}
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "perf: %d experiment(s) regressed beyond %.1fx (or vanished) vs %s:\n",
				len(regs), perf.DefaultGate.MaxRatio, *compare)
			for _, d := range regs {
				if d.Status == perf.StatusRemoved {
					fmt.Fprintf(os.Stderr, "perf:   %s: removed (%.1f ms baseline unverifiable)\n", d.ID, d.BaselineMs)
					continue
				}
				fmt.Fprintf(os.Stderr, "perf:   %s: %.1f ms -> %.1f ms (%.2fx)\n",
					d.ID, d.BaselineMs, d.CurrentMs, d.Ratio)
			}
			return 2
		}
		fmt.Fprintf(os.Stderr, "perf: no regressions beyond %.1fx vs %s\n",
			perf.DefaultGate.MaxRatio, *compare)
	}
	return 0
}
