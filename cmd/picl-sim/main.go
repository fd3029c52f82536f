// Command picl-sim runs one checkpointing scheme over one workload (or
// an 8-core mix) and prints the full statistics of the run: cycles,
// commits, NVM traffic by category, scheme counters, and — for PiCL —
// undo-log footprint.
//
// Usage:
//
//	picl-sim -scheme picl -bench gcc
//	picl-sim -scheme journal -bench mcf -epochs 16
//	picl-sim -scheme picl -mix 2            # Table V mix W2, 8 cores
//	picl-sim -record gcc.trace -n 1000000   # dump the synthetic stream
//	picl-sim -replay mine.trace             # replay a recorded trace
//	picl-sim -trace run.json                # Chrome trace_event export (Perfetto)
//	picl-sim -metrics                       # Prometheus text metrics on stdout
//	picl-sim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"picl/internal/exp"
	"picl/internal/nvm"
	"picl/internal/obs"
	"picl/internal/sim"
	"picl/internal/trace"
)

func main() {
	var (
		scheme   = flag.String("scheme", "picl", "scheme: ideal|journal|shadow|frm|thynvm|picl")
		bench    = flag.String("bench", "gcc", "SPEC2006 benchmark name")
		mix      = flag.Int("mix", -1, "run Table V multiprogram mix W<n> instead of -bench")
		epochs   = flag.Int("epochs", 8, "run length in epochs")
		factor   = flag.Float64("factor", 64, "scale-down factor (1 = full paper scale)")
		replay   = flag.String("replay", "", "replay a recorded trace file instead of -bench")
		record   = flag.String("record", "", "dump -bench's synthetic stream to this trace file and exit")
		recordN  = flag.Int("n", 1_000_000, "accesses to dump with -record")
		traceOut = flag.String("trace", "", "write the run's event stream as Chrome trace_event JSON (load at ui.perfetto.dev)")
		traceCap = flag.Int("trace-cap", 1<<18, "event recorder capacity for -trace (keeps the most recent events)")
		metrics  = flag.Bool("metrics", false, "print the run's metrics in Prometheus text format instead of the summary")
		timeline = flag.Bool("timeline", false, "print per-epoch statistics")
		jobs     = flag.Int("j", 0, "simulation workers (0 = NumCPU; the scheme run and its ideal baseline parallelize)")
		list     = flag.Bool("list", false, "list benchmarks and schemes")
	)
	flag.Parse()

	scale, err := exp.ScaleOf(*factor, *epochs)
	if err == nil && *recordN < 1 {
		err = fmt.Errorf("-n %d: want at least 1", *recordN)
	}
	if err == nil && *traceCap < 1 {
		err = fmt.Errorf("-trace-cap %d: want at least 1", *traceCap)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "picl-sim:", err)
		os.Exit(2)
	}

	if *record != "" {
		p, err := trace.ProfileFor(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		g := trace.NewSynthetic(p.Scale(scale.Factor), 1<<34, 13)
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.WriteTrace(f, trace.Record(g, *recordN)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d accesses of %s to %s\n", *recordN, *bench, *record)
		return
	}

	if *list {
		fmt.Println("schemes:   ", sim.SchemeNames())
		fmt.Println("benchmarks:", trace.Benchmarks())
		fmt.Println("mixes:      W0..W7 (picl-bench -exp t5 shows contents)")
		return
	}

	runner := exp.NewRunner(scale)
	runner.Jobs = *jobs

	benches := []string{*bench}
	if *mix >= 0 {
		mixes := trace.Mixes()
		if *mix >= len(mixes) {
			fmt.Fprintf(os.Stderr, "mix W%d out of range (0..%d)\n", *mix, len(mixes)-1)
			os.Exit(2)
		}
		benches = mixes[*mix]
	}

	var opts []exp.Opt
	tcap := 0
	if *traceOut != "" {
		tcap = *traceCap
		opts = append(opts, exp.WithTraceCap(tcap))
	}

	var res *sim.Result
	switch {
	case *replay != "":
		res, err = runTraceFile(*replay, *scheme, scale, tcap)
		benches = []string{*replay}
	case *timeline:
		res, err = runTimeline(*scheme, benches[0], scale, tcap)
	case *scheme != "ideal":
		// Fetch the scheme run and its ideal baseline (used for the
		// normalized summary below) through the worker pool together.
		var both []*sim.Result
		both, err = runner.RunAll([]exp.Req{
			{Scheme: *scheme, Benches: benches, Opts: opts},
			{Scheme: "ideal", Benches: benches},
		})
		if err == nil {
			res = both[0]
		}
	default:
		res, err = runner.Run(*scheme, benches, opts...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.WriteChromeTrace(f, res.Events); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d overwritten; raise -trace-cap to keep more)\n",
			len(res.Events), *traceOut, res.EventsDropped)
	}

	if *metrics {
		fmt.Print(res.PromText())
		return
	}

	if *timeline {
		fmt.Printf("per-epoch timeline for %s/%s:\n", *scheme, benches[0])
		fmt.Printf("%-6s %12s %12s %9s %8s %8s %8s\n",
			"epoch", "cycles", "stall", "commits", "wb", "rand", "seq")
		for _, e := range res.Timeline {
			fmt.Printf("%-6d %12d %12d %9d %8d %8d %8d\n",
				e.Epoch, e.Cycles, e.StallCycles, e.Commits, e.Writebacks, e.Random, e.Sequential)
		}
		fmt.Println()
	}

	fmt.Printf("scheme        %s\n", res.Scheme)
	fmt.Printf("workload      %v (scale %s)\n", benches, scale.Name)
	fmt.Printf("cores         %d\n", res.Cores)
	fmt.Printf("instructions  %d\n", res.Instructions)
	fmt.Printf("cycles        %d (CPI %.2f)\n", res.Cycles, float64(res.Cycles)/float64(res.Instructions))
	fmt.Printf("commits       %d (%d forced)\n", res.Commits, res.ForcedCommit)
	fmt.Printf("stall cycles  %d at epoch boundaries\n", res.BoundaryStallCycles)
	fmt.Printf("nvm ops       writeback=%d sequential=%d random=%d demand-reads=%d\n",
		res.NVM.Ops(nvm.CatWriteback), res.NVM.Ops(nvm.CatSequential),
		res.NVM.Ops(nvm.CatRandom), res.NVM.Ops(nvm.CatDemand))
	fmt.Printf("nvm busy      %d cycles, %d row activations, %d queue-full events\n",
		res.NVM.BusyCycles, res.NVM.RowActivations, res.NVM.StallEvents)
	if res.LogTotalBytes > 0 {
		fmt.Printf("undo log      %.2f MB written, %.2f MB peak\n",
			float64(res.LogTotalBytes)/(1<<20), float64(res.LogPeakBytes)/(1<<20))
	}
	fmt.Printf("scheme counters:\n%s", res.Counters.String())

	// Normalized-to-ideal summary.
	if *replay == "" && *scheme != "ideal" {
		if ideal, err := runner.Run("ideal", benches); err == nil {
			fmt.Printf("normalized execution time vs ideal: %.3fx\n",
				float64(res.Cycles)/float64(ideal.Cycles))
		}
	}
}

// runTimeline runs one benchmark with per-epoch sampling enabled.
func runTimeline(scheme, bench string, scale exp.Scale, traceCap int) (*sim.Result, error) {
	p, err := trace.ProfileFor(bench)
	if err != nil {
		return nil, err
	}
	h := scale.Hierarchy(1)
	m, err := sim.New(sim.Config{
		Scheme:       scheme,
		Baseline:     scale.Params(),
		Workloads:    []trace.Generator{trace.NewSynthetic(p.Scale(scale.Factor), 1<<34, 13)},
		Hierarchy:    &h,
		EpochInstr:   scale.EpochInstr,
		InstrPerCore: uint64(scale.Epochs) * scale.EpochInstr,
		Timeline:     true,
		TraceCap:     traceCap,
	})
	if err != nil {
		return nil, err
	}
	return m.Run(), nil
}

// runTraceFile replays a recorded trace under the given scheme.
func runTraceFile(path, scheme string, scale exp.Scale, traceCap int) (*sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	accs, err := trace.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	h := scale.Hierarchy(1)
	m, err := sim.New(sim.Config{
		Scheme:       scheme,
		Baseline:     scale.Params(),
		Workloads:    []trace.Generator{trace.NewReplayer(path, accs)},
		Hierarchy:    &h,
		EpochInstr:   scale.EpochInstr,
		InstrPerCore: uint64(scale.Epochs) * scale.EpochInstr,
		TraceCap:     traceCap,
	})
	if err != nil {
		return nil, err
	}
	return m.Run(), nil
}
