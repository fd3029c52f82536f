// Command picl-bench regenerates the tables and figures of the PiCL
// paper's evaluation (§VI). Each experiment prints an aligned text table
// whose rows/series correspond to the paper's artifact; EXPERIMENTS.md
// records a reference run next to the paper's reported numbers.
//
// Usage:
//
//	picl-bench -exp f9            # one experiment
//	picl-bench -exp f9,f11,f12    # several
//	picl-bench -exp all           # everything (minutes of CPU)
//	picl-bench -exp f9 -benches gcc,mcf,lbm
//	picl-bench -exp f9 -factor 1  # full paper scale (hours)
//	picl-bench -exp all -j 8      # 8 simulation workers (default: NumCPU)
//	picl-bench -list
//
// The evaluation matrix is embarrassingly parallel; -j spreads the
// (scheme, benchmark, parameter) cells across a worker pool. Table
// output on stdout is byte-identical for every -j (results are memoized
// per cell and tables are assembled in a deterministic replay pass);
// progress lines (cells done, in flight, wall-clock per cell) go to
// stderr and can be silenced with -progress=false.
//
// The default scale factor 64 shrinks caches, footprints, translation
// tables and epochs by 1/64 together, preserving the ratios the results
// are made of (see DESIGN.md §3).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"picl/internal/exp"
	"picl/internal/stats"
)

type experiment struct {
	name string
	desc string
	run  func(r *exp.Runner, benches []string) (fmt.Stringer, error)
}

func tableExp(f func(r *exp.Runner, benches []string) (*stats.Table, error)) func(*exp.Runner, []string) (fmt.Stringer, error) {
	return func(r *exp.Runner, benches []string) (fmt.Stringer, error) {
		return f(r, benches)
	}
}

type text string

func (t text) String() string { return string(t) }

var experiments = []experiment{
	{"t3", "Table III analog: hardware storage overhead",
		func(r *exp.Runner, _ []string) (fmt.Stringer, error) {
			return exp.Table3(exp.Full().Hierarchy(8)), nil
		}},
	{"t4", "Table IV: system configuration",
		func(r *exp.Runner, _ []string) (fmt.Stringer, error) { return text(r.Table4()), nil }},
	{"t5", "Table V: multiprogram workloads",
		func(r *exp.Runner, _ []string) (fmt.Stringer, error) { return text(exp.Table5()), nil }},
	{"f9", "Fig 9: single-core normalized execution time",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.Fig9(b) })},
	{"f10", "Fig 10: 8-core multiprogram normalized execution time",
		func(r *exp.Runner, _ []string) (fmt.Stringer, error) { return r.Fig10() }},
	{"f11", "Fig 11: commits per epoch interval",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.Fig11(b) })},
	{"f12", "Fig 12: normalized NVM I/O operations by category",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.Fig12(b) })},
	{"f13", "Fig 13: PiCL undo log size over 8 epochs",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.Fig13(b) })},
	{"f14", "Fig 14: observed epoch length at 500M-instruction target",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.Fig14(b) })},
	{"f15", "Fig 15: LLC size sensitivity",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.Fig15(b) })},
	{"f16", "Fig 16 (§VI-E): NVM write-latency sensitivity",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.Fig16(b) })},
	{"a1", "Ablation: ACS-gap sweep",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.AblationACSGap(b) })},
	{"a2", "Ablation: undo buffer size sweep",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.AblationUndoBuffer(b) })},
	{"a3", "Ablation: epoch length sweep",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.AblationEpochLength(b) })},
	{"a4", "Ablation: write-through DRAM memory-side cache (§IV-C)",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.AblationDRAMCache(b) })},
	{"a5", "Ablation: memory controller design (banks, read priority)",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.AblationController(b) })},
	{"r2", "Recovery latency model (§IV-C)",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.RecoveryLatency(b) })},
	{"r3", "Availability and daily compute loss (§IV-C)",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.AvailabilityReport(b) })},
	{"elat", "Epoch latency: commit-to-persist gap distribution (PiCL)",
		tableExp(func(r *exp.Runner, b []string) (*stats.Table, error) { return r.EpochLatency(b) })},
}

func main() {
	var (
		expFlag   = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		benchFlag = flag.String("benches", "", "comma-separated benchmark subset (default: the experiment's own set)")
		factor    = flag.Float64("factor", 64, "scale-down factor (64 = default miniature scale, 1 = full paper scale)")
		list      = flag.Bool("list", false, "list experiments and exit")
		verbose   = flag.Bool("v", false, "log each simulation run")
		jobs      = flag.Int("j", 0, "simulation workers (0 = NumCPU, 1 = serial)")
		progress  = flag.Bool("progress", true, "report per-cell progress on stderr")
		csvDir    = flag.String("csv", "", "also write each experiment's table as <dir>/<exp>.csv")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list || *expFlag == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-4s %s\n", e.name, e.desc)
		}
		if *expFlag == "" {
			os.Exit(2)
		}
		return
	}

	scale := exp.Scaled()
	//lint:ignore floateq exact test of the literal the user typed on the flag, not computed timing
	if *factor != 64 {
		scale = exp.Scale{
			Name:            fmt.Sprintf("scaled-1/%g", *factor),
			Factor:          1 / *factor,
			EpochInstr:      uint64(30_000_000 / *factor),
			Epochs:          8,
			MulticoreEpochs: 4,
		}
		//lint:ignore floateq exact test of the literal the user typed on the flag, not computed timing
		if *factor == 1 {
			scale = exp.Full()
		}
	}
	runner := exp.NewRunner(scale)
	runner.Clock = time.Now // injected: internal/exp itself must stay wall-clock-free
	runner.Jobs = *jobs
	if *verbose {
		runner.Log = os.Stderr
	}
	if *progress {
		runner.Progress = os.Stderr
	}

	var benches []string
	if *benchFlag != "" {
		benches = strings.Split(*benchFlag, ",")
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, e := range experiments {
			want[e.name] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	fmt.Printf("# picl-bench scale=%s\n\n", scale.Name)
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		t0 := time.Now()
		out, err := e.run(runner, benches)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out.String())
		if *csvDir != "" {
			if tb, ok := out.(*stats.Table); ok {
				path := filepath.Join(*csvDir, e.name+".csv")
				if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Println()
		// Wall-clock is nondeterministic; keep it off stdout so table
		// output is byte-identical across runs and across -j values.
		fmt.Fprintf(os.Stderr, "(%s completed in %.1fs)\n", e.name, time.Since(t0).Seconds())
	}
}
