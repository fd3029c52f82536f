// Package exp defines one reproducible experiment per table and figure of
// the paper's evaluation (§VI), at two scales:
//
//   - Full scale replicates the paper's parameters exactly (Table IV
//     hierarchy, 30 M-instruction epochs, 1 B-cycle-class runs). It takes
//     hours of host CPU.
//   - Scaled (the default, factor 1/64) shrinks the cache hierarchy,
//     workload footprints, translation tables, and epoch lengths by the
//     same power of two, preserving the ratios the results are made of:
//     write-set per epoch vs. cache capacity, table capacity vs. write
//     set, flush size vs. epoch duration. The NVM device timing is NOT
//     scaled (it is a device property), and neither is the 4 KB page
//     size, which makes the page-granularity baselines comparatively
//     coarser at small scale — noted in EXPERIMENTS.md.
//
// A Runner memoizes (scheme, benchmark, parameter) runs so figures that
// share data (Figs. 9, 11, 12, 13 all read the single-core matrix) pay
// for each simulation once, and schedules independent cells across a
// worker pool (Runner.Jobs): the evaluation matrix is embarrassingly
// parallel, so the full reproduction run scales with host cores while
// remaining byte-identical to a serial run.
package exp

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"picl/internal/baselines"
	"picl/internal/cache"
	"picl/internal/core"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/obs"
	"picl/internal/sim"
	"picl/internal/stats"
	"picl/internal/trace"
)

// Scale fixes the experiment scale.
type Scale struct {
	Name string
	// Factor scales hierarchy, footprints, tables and epoch length.
	Factor float64
	// EpochInstr is the checkpoint interval (paper: 30 M x Factor).
	EpochInstr uint64
	// Epochs is the run length in epochs for single-core figures
	// (Fig. 13 measures the log over 8 epochs).
	Epochs int
	// MulticoreEpochs bounds the 8-core runs (they cost 8x per epoch).
	MulticoreEpochs int
}

// Scaled returns the default miniature scale (factor 1/64).
func Scaled() Scale {
	return Scale{
		Name:            "scaled-1/64",
		Factor:          1.0 / 64,
		EpochInstr:      30_000_000 / 64,
		Epochs:          8,
		MulticoreEpochs: 4,
	}
}

// Full returns the paper-parameter scale.
func Full() Scale {
	return Scale{
		Name:            "full",
		Factor:          1,
		EpochInstr:      30_000_000,
		Epochs:          8,
		MulticoreEpochs: 4,
	}
}

// ScaleOf returns the scale a -factor flag names: caches, footprints,
// tables and the 30 M-instruction epoch all shrunk by factor (1 = the
// paper's parameters), with single-core and multicore runs epochs long.
// It rejects epochs below 1 and a factor that is not a positive
// finite number (or leaves an epoch under one instruction): such a
// scale runs for ever or prints NaN. It rejects an epoch count whose
// run length does not fit a uint64 (RunLength), which would wrap to a
// run of another length. It also rejects a factor that
// leaves a scaled L1, L2 or LLC, of one core or of a Table V mix's
// cores, with a geometry cache.New refuses (a set count that is not a
// power of two), where every run would panic.
func ScaleOf(factor float64, epochs int) (Scale, error) {
	if !(factor > 0) || uint64(30_000_000/factor) == 0 {
		return Scale{}, fmt.Errorf("exp: scale factor %g: want a positive number of at most 30000000", factor)
	}
	if epochs < 1 {
		return Scale{}, fmt.Errorf("exp: %d epochs: want at least 1", epochs)
	}
	s := Scale{
		Name:            fmt.Sprintf("1/%g", factor),
		Factor:          1 / factor,
		EpochInstr:      uint64(30_000_000 / factor),
		Epochs:          epochs,
		MulticoreEpochs: epochs,
	}
	if _, err := RunLength(epochs, s.EpochInstr); err != nil {
		return Scale{}, err
	}
	for _, cores := range []int{1, len(trace.Mixes()[0])} {
		h := s.Hierarchy(cores)
		for _, c := range []cache.Config{h.L1, h.L2, h.LLC} {
			if err := c.Validate(); err != nil {
				return Scale{}, fmt.Errorf("exp: scale factor %g: %d-core hierarchy: %v", factor, cores, err)
			}
		}
	}
	return s, nil
}

// RunLength returns the instructions per core of a run epochs long at
// epochInstr instructions per epoch, or an error naming both when the
// product does not fit a uint64 (it would wrap, and the wrapped length
// would be simulated and keyed as if asked for).
func RunLength(epochs int, epochInstr uint64) (uint64, error) {
	hi, n := bits.Mul64(uint64(epochs), epochInstr)
	if epochs < 0 || hi != 0 {
		return 0, fmt.Errorf("exp: %d epochs of %d instructions: the run length overflows 64 bits", epochs, epochInstr)
	}
	return n, nil
}

// Hierarchy returns the Table IV hierarchy scaled by s.Factor.
func (s Scale) Hierarchy(cores int) cache.HierarchyConfig {
	full := cache.DefaultHierarchyConfig(cores)
	scaleSize := func(bytes, floor int) int {
		v := int(float64(bytes) * s.Factor)
		if v < floor {
			v = floor
		}
		return v
	}
	full.L1.Size = scaleSize(full.L1.Size, 512)
	full.L2.Size = scaleSize(full.L2.Size, 2048)
	full.LLC.Size = scaleSize(full.LLC.Size, 16<<10)
	return full
}

// Params returns the baseline table sizes scaled by s.Factor.
func (s Scale) Params() baselines.Params {
	return baselines.DefaultParams().Scaled(s.Factor)
}

// Schemes is the presentation order of the paper's figures.
var Schemes = []string{"journal", "shadow", "frm", "thynvm", "picl"}

// RunKey identifies one memoized simulation. TraceCap/TraceMask are
// part of the key: a traced run carries its event stream in the result,
// so it must not be conflated with (or satisfied by) an untraced run of
// the same cell.
type RunKey struct {
	Scheme     string
	Bench      string
	Cores      int
	EpochInstr uint64
	Instr      uint64
	LLCSize    int
	NVMName    string
	ACSGap     int
	BufEntries int
	TraceCap   int
	TraceMask  obs.Mask
}

// Runner executes and memoizes simulations at one scale. Run and RunAll
// are safe for concurrent use: the memo is single-flight per RunKey, so
// a cell shared between figures (the Fig. 9/11/12/13 single-core matrix)
// simulates exactly once no matter how many goroutines ask for it.
type Runner struct {
	Scale Scale
	// Jobs is the worker-pool width for RunAll and the sweep figures.
	// Zero means runtime.NumCPU(); one reproduces the serial engine.
	Jobs int
	// Log, if non-nil, receives one line per completed simulation.
	Log io.Writer
	// Progress, if non-nil, receives one line per completed cell with
	// done/total counts, cells still in flight, and per-cell wall clock.
	// Point it at stderr: table output on stdout stays byte-identical
	// between -j 1 and -j N.
	Progress io.Writer
	// Clock supplies wall-clock readings for the per-cell timing shown on
	// Progress lines. It is nil by default — this package must not read
	// the host clock itself (the picl-lint determinism rule enforces
	// that), so binaries that want timed progress inject time.Now here.
	// With a nil Clock, elapsed times report as zero.
	Clock func() time.Time

	mu       sync.Mutex
	memo     map[RunKey]*flight
	total    int // cells submitted to the pool (for progress lines)
	done     int // cells completed
	inflight int // cells currently simulating
}

// flight is one single-flight memo cell: the first goroutine to claim a
// key simulates and closes ready; everyone else waits on it. RunAll
// pre-registers unstarted flights so the progress total is exact from
// the first completed cell; the first Run to arrive claims (starts) the
// cell and simulates it. done distinguishes a completed flight from one
// whose claimer panicked: waiters woken by ready re-check under the lock
// and re-claim a cell that never finished, so a single doomed claimer
// cannot wedge every other requester of the key.
type flight struct {
	ready   chan struct{}
	res     *sim.Result
	err     error
	started bool
	done    bool
}

// NewRunner builds a runner for the given scale.
func NewRunner(s Scale) *Runner {
	return &Runner{Scale: s, memo: make(map[RunKey]*flight)}
}

// jobs resolves the effective worker count.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.NumCPU()
}

// Opt mutates a run configuration (sensitivity sweeps).
type Opt func(*sim.Config)

// WithLLCSize overrides the total shared LLC capacity in bytes
// (pre-scaling; the runner applies Scale.Factor).
func WithLLCSize(bytes int) Opt {
	return func(c *sim.Config) { c.Hierarchy.LLC.Size = bytes }
}

// WithNVM overrides the device model.
func WithNVM(cfg nvm.Config) Opt {
	return func(c *sim.Config) { c.NVM = &cfg }
}

// WithPiCL overrides PiCL parameters.
func WithPiCL(cfg core.Config) Opt {
	return func(c *sim.Config) { c.PiCL = cfg }
}

// WithEpochInstr overrides the checkpoint interval (pre-scaled value).
func WithEpochInstr(n uint64) Opt {
	return func(c *sim.Config) { c.EpochInstr = n }
}

// WithEpochs overrides the run length in epochs.
func WithEpochs(n int) Opt {
	return func(c *sim.Config) { c.InstrPerCore = uint64(n) * c.EpochInstr }
}

// WithTraceCap attaches an event-trace ring of the given capacity to the
// run (Result.Events). Traced cells memoize separately from untraced
// ones — the capacity is part of the RunKey.
func WithTraceCap(n int) Opt {
	return func(c *sim.Config) { c.TraceCap = n }
}

// WithTraceMask restricts ring recording to the given kinds; combine
// with WithTraceCap to keep low-rate lifecycle events from being
// overwritten by per-op NVM traffic on long runs.
func WithTraceMask(m obs.Mask) Opt {
	return func(c *sim.Config) { c.TraceMask = m }
}

// buildConfig assembles the simulation config for one single- or
// multi-benchmark run.
func (r *Runner) buildConfig(scheme string, benches []string, opts ...Opt) (sim.Config, error) {
	var gens []trace.Generator
	for i, b := range benches {
		p, err := trace.ProfileFor(b)
		if err != nil {
			return sim.Config{}, err
		}
		p = p.Scale(r.Scale.Factor)
		// Disjoint address regions per core (2^34 lines = 1 TiB apart).
		base := mem.LineAddr(uint64(i+1) << 34)
		gens = append(gens, trace.NewSynthetic(p, base, uint64(i)*977+13))
	}
	h := r.Scale.Hierarchy(len(benches))
	epochs := r.Scale.Epochs
	if len(benches) > 1 {
		epochs = r.Scale.MulticoreEpochs
	}
	cfg := sim.Config{
		Scheme:       scheme,
		PiCL:         core.DefaultConfig(),
		Baseline:     r.Scale.Params(),
		Workloads:    gens,
		Hierarchy:    &h,
		EpochInstr:   r.Scale.EpochInstr,
		InstrPerCore: uint64(epochs) * r.Scale.EpochInstr,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg, nil
}

// keyFor derives the memo key of a configured run.
func keyFor(scheme string, benches []string, cfg *sim.Config) RunKey {
	key := RunKey{
		Scheme:     scheme,
		Bench:      fmt.Sprint(benches),
		Cores:      len(benches),
		EpochInstr: cfg.EpochInstr,
		Instr:      cfg.InstrPerCore,
		LLCSize:    cfg.Hierarchy.LLC.Size,
		ACSGap:     cfg.PiCL.ACSGap,
		BufEntries: cfg.PiCL.BufferEntries,
		TraceCap:   cfg.TraceCap,
		TraceMask:  cfg.TraceMask,
	}
	if cfg.NVM != nil {
		key.NVMName = cfg.NVM.Name
	}
	return key
}

// KeyFor derives the memo key a Run with the same arguments would use,
// without running anything. It is the claim hook for layers that
// coalesce above the per-process memo (internal/serve's cross-process
// claim/lease protocol content-addresses its result store on this key).
func (r *Runner) KeyFor(scheme string, benches []string, opts ...Opt) (RunKey, error) {
	cfg, err := r.buildConfig(scheme, benches, opts...)
	if err != nil {
		return RunKey{}, err
	}
	return keyFor(scheme, benches, &cfg), nil
}

// Cached returns the memoized result for key if its flight has
// completed, without claiming or waiting. It is a peek for serving
// layers deciding between a warm answer and a claim.
func (r *Runner) Cached(key RunKey) (*sim.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.memo[key]
	if !ok || !f.done || f.err != nil {
		return nil, false
	}
	return f.res, true
}

// Canonical renders the key as a fixed-field-order string: the
// content-address input for cross-process stores, behind the model
// registry's hash (serve.DigestOf), and the "key" field of every served
// body. The trailing "|sharded=false" is a frozen literal of the v1
// format (it once named an engine choice that no longer exists); it
// stays so every served body keeps its bytes.
func (k RunKey) Canonical() string {
	return fmt.Sprintf("picl-runkey-v1|scheme=%s|bench=%s|cores=%d|epochinstr=%d|instr=%d|llc=%d|nvm=%s|acsgap=%d|buf=%d|tracecap=%d|tracemask=%d|sharded=false",
		k.Scheme, k.Bench, k.Cores, k.EpochInstr, k.Instr, k.LLCSize,
		k.NVMName, k.ACSGap, k.BufEntries, k.TraceCap, uint64(k.TraceMask))
}

// Run executes (or returns the memoized result of) one run. Concurrent
// calls with the same key wait for the first one to finish rather than
// simulating twice.
func (r *Runner) Run(scheme string, benches []string, opts ...Opt) (*sim.Result, error) {
	return r.RunCtx(context.Background(), scheme, benches, opts...)
}

// RunCtx is Run with caller cancellation. A cancelled context makes a
// waiter stop waiting and a would-be claimer decline the claim — the
// cell stays unstarted for the next live requester, so a disconnected
// HTTP client abandons its claim instead of leaking a pool worker into
// work nobody wants. A simulation already in flight runs to completion
// (the engine is not interruptible mid-run) and its result is memoized:
// cancellation races completion, it never discards finished work.
func (r *Runner) RunCtx(ctx context.Context, scheme string, benches []string, opts ...Opt) (*sim.Result, error) {
	cfg, err := r.buildConfig(scheme, benches, opts...)
	if err != nil {
		return nil, err
	}
	key := keyFor(scheme, benches, &cfg)

	for {
		r.mu.Lock()
		f, ok := r.memo[key]
		if !ok {
			f = &flight{ready: make(chan struct{})}
			r.memo[key] = f
			r.total++
		}
		if f.done {
			r.mu.Unlock()
			return f.res, f.err
		}
		if !f.started {
			if err := ctx.Err(); err != nil {
				// Abandon before claiming: the flight stays open for the
				// next requester with a live context.
				r.mu.Unlock()
				return nil, err
			}
			f.started = true
			r.inflight++
			r.mu.Unlock()
			return r.simulate(scheme, key, cfg, f)
		}
		ready := f.ready
		r.mu.Unlock()
		select {
		case <-ready:
			// Completed — or its claimer died; loop to re-read the flight
			// and, in the latter case, re-claim it.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// simulate executes one claimed flight. Completion is panic-safe: if the
// engine panics, the flight is failed and closed before the panic
// propagates, so waiters blocked on it re-claim instead of hanging.
func (r *Runner) simulate(scheme string, key RunKey, cfg sim.Config, f *flight) (*sim.Result, error) {
	var t0 time.Time
	if r.Clock != nil {
		t0 = r.Clock()
	}
	completed := false
	defer func() {
		if !completed {
			// Panicking out of the engine: release waiters with the
			// flight marked not-done so one of them re-claims.
			r.mu.Lock()
			f.started = false
			r.inflight--
			ready := f.ready
			f.ready = make(chan struct{})
			r.mu.Unlock()
			close(ready)
		}
	}()
	var res *sim.Result
	m, err := sim.New(cfg)
	if err == nil {
		res = m.Run()
	}
	r.mu.Lock()
	f.res, f.err = res, err
	f.done = true
	r.mu.Unlock()
	completed = true
	close(f.ready)
	var elapsed time.Duration
	if r.Clock != nil {
		elapsed = r.Clock().Sub(t0)
	}
	r.finishCell(scheme, key.Bench, f, elapsed)
	return f.res, f.err
}

// finishCell updates the progress counters and emits reporter lines.
func (r *Runner) finishCell(scheme, bench string, f *flight, elapsed time.Duration) {
	r.mu.Lock()
	r.done++
	r.inflight--
	done, total, inflight := r.done, r.total, r.inflight
	r.mu.Unlock()
	if r.Log != nil && f.err == nil {
		fmt.Fprintf(r.Log, "ran %-8s %-40s cycles=%d commits=%d\n",
			scheme, bench, f.res.Cycles, f.res.Commits)
	}
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, "[%d/%d] %-8s %-40s %6.2fs inflight=%d\n",
			done, total, scheme, bench, elapsed.Seconds(), inflight)
	}
}

// Req names one cell of the evaluation matrix for RunAll.
type Req struct {
	Scheme  string
	Benches []string
	Opts    []Opt
}

// RunAll executes every requested cell across the runner's worker pool
// and returns the results in request order (duplicates — cells two
// figures both need — are simulated once and share a *sim.Result). The
// first error aborts scheduling of cells not yet started and is
// returned; results of cells that did complete remain memoized.
func (r *Runner) RunAll(reqs []Req) ([]*sim.Result, error) {
	return r.RunAllCtx(context.Background(), reqs)
}

// RunAllCtx is RunAll with caller cancellation: a cancelled context
// stops the feed loop (cells not yet claimed never start), the idle
// workers drain, and ctx.Err() is returned. Cells already simulating
// finish and stay memoized.
func (r *Runner) RunAllCtx(ctx context.Context, reqs []Req) ([]*sim.Result, error) {
	// Register every fresh cell before any worker starts, so progress
	// lines report the true batch total from the first completion
	// instead of racing the feed loop. Workers claim the unstarted
	// flights through Run as usual.
	for _, req := range reqs {
		cfg, err := r.buildConfig(req.Scheme, req.Benches, req.Opts...)
		if err != nil {
			continue // Run will surface the same error in order
		}
		key := keyFor(req.Scheme, req.Benches, &cfg)
		r.mu.Lock()
		if _, ok := r.memo[key]; !ok {
			r.memo[key] = &flight{ready: make(chan struct{})}
			r.total++
		}
		r.mu.Unlock()
	}

	results := make([]*sim.Result, len(reqs))
	errs := make([]error, len(reqs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var failed sync.Once
	stop := make(chan struct{})

	workers := r.jobs()
	if workers > len(reqs) {
		workers = len(reqs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				req := reqs[i]
				results[i], errs[i] = r.RunCtx(ctx, req.Scheme, req.Benches, req.Opts...)
				if errs[i] != nil {
					failed.Do(func() { close(stop) })
				}
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case idx <- i:
		case <-stop:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// runFn is the cell-execution callback a sweep body receives; it has
// Run's signature so figure code reads identically serial or parallel.
type runFn func(scheme string, benches []string, opts ...Opt) (*sim.Result, error)

// sweep runs build twice: a recording pass that captures every cell the
// figure needs (handing back inert placeholder results), then — after
// RunAll has simulated those cells across the worker pool — a replay
// pass in which every run call is a memo hit. The replay pass assembles
// the table serially in program order, so output is byte-identical to a
// fully serial run regardless of Jobs.
func (r *Runner) sweep(build func(run runFn) (*stats.Table, error)) (*stats.Table, error) {
	var reqs []Req
	record := func(scheme string, benches []string, opts ...Opt) (*sim.Result, error) {
		reqs = append(reqs, Req{Scheme: scheme, Benches: benches, Opts: opts})
		return placeholderResult(), nil
	}
	if _, err := build(record); err != nil {
		return nil, err
	}
	if _, err := r.RunAll(reqs); err != nil {
		return nil, err
	}
	return build(r.Run)
}

// placeholderResult is what the recording pass hands out: shaped like a
// real result (non-zero denominators, non-nil counters) so figure
// arithmetic runs harmlessly, but never rendered — the recording pass's
// table is discarded.
func placeholderResult() *sim.Result {
	return &sim.Result{
		Cycles:       1,
		Instructions: 1,
		Commits:      1,
		Counters:     stats.NewCounters(),
	}
}

// MustRun is Run for harness code where errors are programming mistakes.
func (r *Runner) MustRun(scheme string, benches []string, opts ...Opt) *sim.Result {
	res, err := r.Run(scheme, benches, opts...)
	if err != nil {
		panic(err)
	}
	return res
}

// ForEach runs fn(i) for i in [0, n) across the runner's worker pool and
// returns the first error. It parallelizes non-memoized work — the
// recovery-latency machines, and the picl-fuzz campaign's per-seed
// fault runs — with the same width as the sweep engine; fn must only
// write state it owns (its index's slot of a results slice).
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	return r.ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach with caller cancellation: indices not yet handed
// to a worker are skipped once ctx is done, running calls finish, and
// ctx.Err() is returned.
func (r *Runner) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	workers := r.jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SortedKeys helps tests inspect the memo deterministically.
func (r *Runner) SortedKeys() []RunKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]RunKey, 0, len(r.memo))
	for k := range r.memo {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Scheme != keys[b].Scheme {
			return keys[a].Scheme < keys[b].Scheme
		}
		return keys[a].Bench < keys[b].Bench
	})
	return keys
}
