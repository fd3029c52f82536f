// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives four workloads through the system's public
// surfaces — sim.Machine, exp.Runner, picl.Open, and a spawned picl-simd
// over loopback — checks that their outputs are correct, prints every
// metric by name and unit, and writes one JSON report per run.
//
// Run it through run.sh, which builds it and picl-simd from source:
//
//	bash benchmark/run.sh --workload sim-gcc --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -out .bench_build/setA
//	bash benchmark/run.sh -compare .bench_build/setA .bench_build/setB
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one (-trace 1).
// The exit status is non-zero when any operation or check failed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// metricDef describes one end-to-end metric. bound is the share of the
// baseline median by which the metric may get worse before a change is a
// regression; 0 means the metric must not get worse at all. workloads
// lists the workloads that report it (nil: every workload).
type metricDef struct {
	name, unit, better string
	bound              float64
	workloads          []string
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

// endToEnd are the metrics every untraced run reports and prints on its
// last line; BENCHMARK.json gates them with these bounds. The operation
// behind op_latency_us, and the statistic taken over it, is per workload
// (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, nil},
	{"op_latency_us", "us", "lower", 0.24, nil},
	{"rss_mb", "MB", "lower", 0.10, nil},
}

// named are the workload-specific end-to-end metrics. -compare gates
// them beside endToEnd with these bounds. The tails are p90, not p99:
// over ten runs a p99 moved by up to 26% (commits) and 68% (requests).
var named = []metricDef{
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.07, []string{"sim-gcc"}},
	{"wall_s", "s", "lower", 0.08, []string{"fig9"}},
	{"picl_gmean_normtime", "ratio", "lower", 0, []string{"fig9"}},
	{"commit_p50_us", "us", "lower", 0.08, []string{"durable-commit"}},
	{"commit_p90_us", "us", "lower", 0.10, []string{"durable-commit"}},
	{"commits_per_s", "1/s", "higher", 0.08, []string{"durable-commit"}},
	{"run_p50_us", "us", "lower", 0.10, []string{"serve-mixed"}},
	{"run_p90_us", "us", "lower", 0.10, []string{"serve-mixed"}},
	{"computed_p50_ms", "ms", "lower", 0.10, []string{"serve-mixed"}},
	{"achieved_rps", "1/s", "higher", 0.10, []string{"serve-mixed"}},
	{"peak_rss_mb", "MB", "lower", 0.10, nil},
	{"failed_frac", "frac", "lower", 0, nil},
}

// reports says whether workload w reports metric d.
func (d metricDef) reports(w string) bool {
	return d.workloads == nil || slices.Contains(d.workloads, w)
}

// layerDef is one per-layer metric, the workload whose traced run
// measures it, and the end-to-end metric it should move.
type layerDef struct {
	name, unit, better, owner, moves string
}

// perLayer lists every per-layer metric a traced run reports.
var perLayer = []layerDef{
	{"trace.next_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"trace.next_per_kinstr", "count/kinstr", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"cache.load_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"cache.store_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"cache.self_ns_per_instr", "ns/instr", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"cache.l1_hit_ratio", "ratio", "higher", "sim-gcc", "sim_minstr_per_s"},
	{"cache.l2_hit_ratio", "ratio", "higher", "sim-gcc", "sim_minstr_per_s"},
	{"cache.llc_hit_ratio", "ratio", "higher", "sim-gcc", "sim_minstr_per_s"},
	{"cache.lookup_hit_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"cache.insert_evict_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"core.onstore_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"core.fill_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"core.evict_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"core.tick_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"core.boundary_us", "us", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"core.hooks_ns_per_instr", "ns/instr", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"core.acs_writebacks_per_kinstr", "count/kinstr", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"bloom.insert_probe_ns", "ns", "lower", "sim-gcc", "sim_minstr_per_s; commit_p50_us"},
	{"undolog.append_gc_ns", "ns", "lower", "sim-gcc", "commit_p50_us; setup_s (durable-commit)"},
	{"nvm.submit_ns", "ns", "lower", "sim-gcc", "wall_s"},
	{"nvm.ops_per_kinstr", "count/kinstr", "lower", "sim-gcc", "wall_s"},
	{"nvm.queue_stalls_per_kinstr", "count/kinstr", "lower", "sim-gcc", "wall_s"},
	{"nvm.busy_frac", "frac", "lower", "sim-gcc", "wall_s"},
	{"sim.residue_ns_per_instr", "ns/instr", "lower", "sim-gcc", "sim_minstr_per_s"},
	{"exp.cell_ms.ideal", "ms", "lower", "fig9", "wall_s"},
	{"exp.cell_ms.journal", "ms", "lower", "fig9", "wall_s"},
	{"exp.cell_ms.shadow", "ms", "lower", "fig9", "wall_s"},
	{"exp.cell_ms.frm", "ms", "lower", "fig9", "wall_s"},
	{"exp.cell_ms.thynvm", "ms", "lower", "fig9", "wall_s"},
	{"exp.cell_ms.picl", "ms", "lower", "fig9", "wall_s"},
	{"exp.pool_busy_frac", "frac", "higher", "fig9", "wall_s"},
	{"exp.tail_idle_s", "s", "lower", "fig9", "wall_s"},
	{"storage.log_append_us", "us", "lower", "durable-commit", "commit_p50_us; commit_p90_us"},
	{"storage.log_fsync_us", "us", "lower", "durable-commit", "commit_p50_us; commit_p90_us"},
	{"storage.image_write_us", "us", "lower", "durable-commit", "commit_p50_us; commit_p90_us"},
	{"storage.image_fsync_us", "us", "lower", "durable-commit", "commit_p50_us; commit_p90_us"},
	{"storage.marker_set_us", "us", "lower", "durable-commit", "commit_p50_us; commit_p90_us"},
	{"storage.fsyncs_per_commit", "count", "lower", "durable-commit", "commit_p50_us; commit_p90_us"},
	{"undolog.blocks_per_commit", "count", "lower", "durable-commit", "commit_p50_us; setup_s (durable-commit)"},
	{"undolog.encode_block_ns", "ns", "lower", "durable-commit", "commit_p50_us; setup_s (durable-commit)"},
	{"undolog.decode_block_ns", "ns", "lower", "durable-commit", "commit_p50_us; setup_s (durable-commit)"},
	{"picl.write_ns", "ns", "lower", "durable-commit", "commits_per_s"},
	{"picl.sync_self_us", "us", "lower", "durable-commit", "commit_p50_us"},
	{"picl.open_ms", "ms", "lower", "durable-commit", "setup_s (durable-commit)"},
	{"serve.handler_hit_us", "us", "lower", "serve-mixed", "run_p50_us"},
	{"serve.key_us", "us", "lower", "serve-mixed", "run_p50_us"},
	{"serve.store_get_us", "us", "lower", "serve-mixed", "run_p50_us"},
	{"serve.claim_us", "us", "lower", "serve-mixed", "computed_p50_ms"},
	{"serve.compute_ms", "ms", "lower", "serve-mixed", "computed_p50_ms; run_p90_us"},
	{"serve.put_ms", "ms", "lower", "serve-mixed", "computed_p50_ms"},
	{"storage.results_put_ms", "ms", "lower", "serve-mixed", "computed_p50_ms"},
	{"serve.source_frac.hit", "frac", "higher", "serve-mixed", "run_p50_us"},
	{"serve.source_frac.computed", "frac", "lower", "serve-mixed", "run_p90_us"},
	{"serve.client_overhead_us", "us", "lower", "serve-mixed", "run_p50_us"},
	{"trace_overhead_frac", "frac", "lower", "every workload", "none (tracing cost)"},
}

// workload is one traffic mix. run measures it untraced; traced records
// its per-layer metrics into layers (and its checks into e.rep).
type workload struct {
	name   string
	run    func(e *env) error
	traced func(e *env, layers map[string]Metric) error
}

var workloads = []workload{
	{"sim-gcc", runSimGCC, tracedSimGCC},
	{"fig9", runFig9, tracedFig9},
	{"durable-commit", runDurable, tracedDurable},
	{"serve-mixed", runServe, tracedServe},
}

// env is what one workload run is given.
type env struct {
	seed    int64
	seconds float64 // measuring budget
	quick   bool    // test/probe sizes: about a second per workload
	golden  *golden
	simd    string // picl-simd binary
	spans   *spanLog
	tc      timerCost
	rep     *Report
	log     io.Writer // progress notes (stderr)
}

func (e *env) budget() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// measure calls op until budget has elapsed, and setup setupReps times
// spread evenly over the budget, so that the set-ups and the operations
// sample the same stretch of host time: the host's speed changes from
// one stretch of seconds to the next, and set-ups done back to back
// would all catch one of them. The first set-up comes before any op,
// which uses what it set up (setup learns its index). setup returns the
// time to report for it; measure returns those times in seconds. The
// garbage a set-up leaves is collected and returned to the OS before the
// next op, so that rss_mb reads the workload's own resident set rather
// than how far the runtime had got in returning a set-up's leftovers.
func measure(budget time.Duration, setup func(i int) (time.Duration, error), op func() error) ([]float64, error) {
	var setups []float64
	start := time.Now()
	for ops := 0; ; {
		elapsed := time.Since(start)
		if len(setups) < setupReps && elapsed >= time.Duration(len(setups))*budget/setupReps {
			d, err := setup(len(setups))
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			debug.FreeOSMemory()
			continue
		}
		if ops > 0 && elapsed >= budget {
			return setups, nil
		}
		if err := op(); err != nil {
			return nil, err
		}
		ops++
	}
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the expected outputs (see golden.json).
type golden struct {
	SimGCC    map[string]string  `json:"sim_gcc_promtext_sha256"`
	Fig9Table map[string]string  `json:"fig9_table_sha256"`
	Fig9GMean map[string]float64 `json:"fig9_picl_gmean"`
	ServeWarm map[string]string  `json:"serve_warm_digests"`
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: sim-gcc, fig9, durable-commit, serve-mixed, or all")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 25, "measuring time per run")
		traceOn = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
		outDir  = fs.String("out", ".bench_build/reports", "directory for the JSON report and span file")
		simd    = fs.String("simd", ".bench_build/bin/picl-simd", "picl-simd binary for serve-mixed")
		quick   = fs.Bool("quick", false, "about one second per workload (tests)")
		compare = fs.Bool("compare", false, "compare the reports in two directories: -compare A B")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare DIR_A DIR_B")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *name == "all" {
		var common []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				common = append(common, "-"+f.Name+"="+f.Value.String())
			}
		})
		return runAll(common, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep := &Report{Workload: w.name, Seed: *seed, Seconds: *seconds, Traced: *traceOn == 1,
		Quick: *quick, Host: hostInfo()}
	e := &env{seed: *seed, seconds: float64(*seconds), quick: *quick, golden: g,
		simd: *simd, rep: rep, log: &lockedWriter{w: stderr}}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traceOn))
	if rep.Traced {
		err = runTraced(e, w, base+".spans.json")
	} else {
		err = w.run(e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	rep.Correct = rep.Failed == 0
	if rep.Attempted > 0 {
		rep.named("failed_frac", float64(rep.Failed)/float64(rep.Attempted), "frac")
	}
	rep.print(stdout)
	if err := writeJSON(base+".json", rep); err != nil {
		fmt.Fprintln(stderr, "benchmark: report:", err)
		return 1
	}
	line, err := json.Marshal(rep.resultLine())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// lockedWriter serializes writes to w: the daemons of serve-mixed, two of
// which can run at once, write their standard error to the run's log.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runTraced measures the workload's own layers, then fills the layers it
// does not reach from the other workloads' quick probes, so every
// per-layer metric has a measured value on every workload.
func runTraced(e *env, w workload, spanPath string) error {
	e.spans = newSpanLog()
	e.tc = calibrateTimer()
	layers := map[string]Metric{}
	if err := w.traced(e, layers); err != nil {
		return err
	}
	own := e.rep.Reconcile // a sim-gcc probe must not replace it
	for _, o := range workloads {
		if o.name == w.name || !missingFrom(layers, o.name) {
			continue
		}
		probe := *e
		probe.quick, probe.seconds = true, 1
		got := map[string]Metric{}
		if err := o.traced(&probe, got); err != nil {
			return fmt.Errorf("probe %s: %w", o.name, err)
		}
		for name, m := range got {
			if _, ok := layers[name]; !ok {
				layers[name] = m
			}
		}
	}
	for _, d := range perLayer {
		m, ok := layers[d.name]
		if !ok {
			m = Metric{Unit: d.unit, Skipped: "not measured"}
		}
		m.Moves = d.moves
		layers[d.name] = m
	}
	e.rep.Layers, e.rep.Reconcile = layers, own
	kept, dropped, err := e.spans.writeChrome(spanPath)
	if err != nil {
		return err
	}
	e.rep.SpanFile, e.rep.Spans, e.rep.Dropped = spanPath, kept, dropped
	return nil
}

// missingFrom reports whether some per-layer metric owned by workload
// owner has not been measured yet.
func missingFrom(layers map[string]Metric, owner string) bool {
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok && d.owner == owner {
			return true
		}
	}
	return false
}

// runAll runs every workload in its own process (so peak RSS and GC
// state belong to one workload), passing args to each, and fails if any
// of them failed.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload="+w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
