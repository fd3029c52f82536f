package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"testing"
	"time"

	"picl/internal/baselines"
	"picl/internal/cache"
	"picl/internal/checkpoint"
	"picl/internal/core"
	"picl/internal/exp"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/perf"
	"picl/internal/sim"
	"picl/internal/trace"
)

// sim-gcc is internal/perf's SimThroughputPiCL configuration: one core,
// PiCL, the gcc profile at 1/64 scale, 469k-instruction epochs. The
// caches are warmed for simWarmEpochs before anything is timed.
const (
	simEpochInstr = 469_000
	simWarmEpochs = 8
)

func simConfig(seed int64) sim.Config {
	g := trace.NewSynthetic(trace.MustProfile("gcc").Scale(1.0/64), 0, uint64(seed))
	h := exp.Scaled().Hierarchy(1)
	return sim.Config{Scheme: "picl", Workloads: []trace.Generator{g},
		Hierarchy: &h, EpochInstr: simEpochInstr, InstrPerCore: ^uint64(0)}
}

func warmEpochs(quick bool) uint64 {
	if quick {
		return 2
	}
	return simWarmEpochs
}

// runTo advances m until instr reaches target (one RunUntil call).
func runTo(m *sim.Machine, target uint64) *sim.Result {
	return m.RunUntil(func(_ uint64, instr uint64) bool { return instr >= target })
}

// setupSim builds a machine and warms its caches; set-up time is this.
func setupSim(seed int64, warm uint64) (*sim.Machine, *sim.Result, error) {
	m, err := sim.New(simConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	return m, runTo(m, warm*simEpochInstr), nil
}

// simEpochQuantile is the quantile of epoch time that op_latency_us
// reports. The host runs an epoch at one of two speeds (about 26 and
// 45 ms), switching every few seconds, and a stretch of a whole run can
// fall in the slow one, so the median epoch, or even the p10, says
// which speed a run caught. Every epoch does like work, so the fastest
// percent is the epoch's cost.
const simEpochQuantile = 0.01

func runSimGCC(e *env) error {
	warm := warmEpochs(e.quick)
	var m *sim.Machine
	var res *sim.Result
	var proms []string
	var lat, rates []float64
	var total uint64
	rss := sampleRSS(0)
	setups, err := measure(e.budget(), func(i int) (time.Duration, error) {
		// Every set-up builds and warms a machine; the first one's goes on
		// to simulate the timed epochs.
		t := time.Now()
		mm, wres, err := setupSim(e.seed, warm)
		d := time.Since(t)
		if err != nil {
			return 0, err
		}
		proms = append(proms, wres.PromText())
		if i == 0 {
			m, res = mm, wres
		}
		return d, nil
	}, func() error {
		// One simulated epoch per RunUntil call.
		prev := res.Instructions
		t := time.Now()
		res = runTo(m, (warm+uint64(len(lat))+1)*simEpochInstr)
		d := time.Since(t).Seconds()
		lat = append(lat, d*1e6)
		rates = append(rates, float64(res.Instructions-prev)/d/1e6)
		total += res.Instructions - prev
		return nil
	})
	rssMB := rss.median()
	if err != nil {
		return err
	}
	checkSimOutput(e, warm, proms)
	want := (warm + uint64(len(lat))) * simEpochInstr
	e.rep.ops(len(lat), 0)
	e.rep.check("sim-gcc instruction budget", res.Instructions >= want,
		fmt.Sprintf("simulated %d instructions, want >= %d", res.Instructions, want))

	e.rep.setE2E(setups, quantile(lat, simEpochQuantile), len(lat), rssMB, peakRSS(0))
	e.rep.named("sim_minstr_per_s", quantile(rates, 0.5), "Minstr/s")
	sum := 0.0
	for _, us := range lat {
		sum += us
	}
	e.rep.info("sim_ns_per_instr", sum*1e3/float64(total), "ns/instr")
	e.rep.info("epoch_p10_us", quantile(lat, 0.1), "us")
	return nil
}

// checkSimOutput checks the warm-up PromText: identical across the
// set-up repetitions, and equal to the golden digest where one exists.
func checkSimOutput(e *env, warm uint64, proms []string) {
	same := true
	for _, p := range proms[1:] {
		same = same && p == proms[0]
	}
	e.rep.check("sim-gcc PromText deterministic across set-ups", same, "")
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(proms[0])))
	key := fmt.Sprintf("seed %d, %d epochs", e.seed, warm)
	if want, ok := e.golden.SimGCC[key]; ok {
		e.rep.check("sim-gcc PromText golden ("+key+")", got == want, "sha256 "+got)
	} else {
		e.rep.unchecked("sim-gcc PromText golden ("+key+")", "no golden for this seed; sha256 "+got)
	}
}

// hookTimer decorates a scheme's cache hooks (Fill, EvictDirty, OnStore)
// with timing. It is the hierarchy's backend and observer in the mirror.
type hookTimer struct {
	s                  checkpoint.Scheme
	on                 bool // time the hooks of the current call
	parent             *acc // the span the hooks run inside
	fill, evict, store acc
}

func (h *hookTimer) record(a *acc, t time.Time) {
	d := time.Since(t)
	a.add(d)
	if h.parent != nil {
		h.parent.child += d
		h.parent.children++
	}
}

func (h *hookTimer) Fill(now uint64, l mem.LineAddr) (mem.Word, uint64) {
	h.fill.calls++
	if !h.on {
		return h.s.Fill(now, l)
	}
	t := time.Now()
	w, done := h.s.Fill(now, l)
	h.record(&h.fill, t)
	return w, done
}

func (h *hookTimer) EvictDirty(now uint64, l mem.LineAddr, data mem.Word, eid mem.EpochID) uint64 {
	h.evict.calls++
	if !h.on {
		return h.s.EvictDirty(now, l, data, eid)
	}
	t := time.Now()
	stall := h.s.EvictDirty(now, l, data, eid)
	h.record(&h.evict, t)
	return stall
}

func (h *hookTimer) OnStore(now uint64, l mem.LineAddr, old mem.Word, oldEID mem.EpochID, wasModified bool) (mem.EpochID, uint64) {
	h.store.calls++
	if !h.on {
		return h.s.OnStore(now, l, old, oldEID, wasModified)
	}
	t := time.Now()
	eid, stall := h.s.OnStore(now, l, old, oldEID, wasModified)
	h.record(&h.store, t)
	return eid, stall
}

// Engine constants the mirror must share with internal/sim's
// single-core loop; the mirror check fails if they drift.
const (
	mirrorTickEvery = 2_000_000
	mirrorOSLines   = 4
	mirrorOSArea    = mem.LineAddr(1 << 33)
	// mirrorSample times one access in this many; the rest only count.
	mirrorSample = 8
)

// mirror is a benchmark-side copy of sim's single-core run loop over a
// hierarchy whose backend and observer are a hookTimer. Driving the
// layers from benchmark code lets a traced run put spans around the
// generator, the hierarchy and the scheme hooks separately; the engine
// itself cannot be instrumented from outside. After the run, its
// clock, counters and NVM traffic must equal the engine's for the same
// input (checked), so the time it attributes is time the engine spends.
type mirror struct {
	gen   trace.Generator
	hier  *cache.Hierarchy
	sch   checkpoint.Scheme
	ctl   *nvm.Controller
	hooks *hookTimer

	clock, maxClock, instr uint64
	nextEpoch, nextTick    uint64

	timing                            bool
	n                                 uint64
	next, load, store, boundary, tick acc
}

func newMirror(seed int64) (*mirror, error) {
	cfg := simConfig(seed)
	ctl := nvm.NewController(nvm.DefaultConfig())
	sch, err := sim.MakeScheme(cfg.Scheme, ctl, false, core.Config{}, baselines.Params{})
	if err != nil {
		return nil, err
	}
	hooks := &hookTimer{s: sch}
	hier := cache.NewHierarchy(*cfg.Hierarchy, hooks, hooks)
	sch.Attach(hier)
	return &mirror{gen: cfg.Workloads[0], hier: hier, sch: sch, ctl: ctl, hooks: hooks,
		nextEpoch: simEpochInstr, nextTick: mirrorTickEvery}, nil
}

// begin opens a span of a and nests the hook spans under it.
func (m *mirror) begin(a *acc) time.Time {
	m.hooks.on, m.hooks.parent = true, a
	return time.Now()
}

func (m *mirror) end(a *acc, t time.Time) {
	a.add(time.Since(t))
	m.hooks.on, m.hooks.parent = false, nil
}

// timed runs f as a span of a when on (rare calls: boundary, tick).
func (m *mirror) timed(a *acc, on bool, f func()) {
	a.calls++
	if !on {
		f()
		return
	}
	t := m.begin(a)
	f()
	m.end(a, t)
}

// The hot path below avoids closures so that untimed accesses cost what
// they cost in the engine.

func (m *mirror) storeLine(l mem.LineAddr, on bool) {
	m.store.calls++
	var stall uint64
	if on {
		t := m.begin(&m.store)
		stall = m.hier.Store(m.clock, 0, l, 0)
		m.end(&m.store, t)
	} else {
		stall = m.hier.Store(m.clock, 0, l, 0)
	}
	m.clock = max(m.clock, stall)
}

func (m *mirror) loadLine(l mem.LineAddr, on bool) {
	m.load.calls++
	if on {
		t := m.begin(&m.load)
		_, m.clock = m.hier.Load(m.clock, 0, l)
		m.end(&m.load, t)
	} else {
		_, m.clock = m.hier.Load(m.clock, 0, l)
	}
}

// startTiming zeroes the accumulators and times from here on.
func (m *mirror) startTiming() {
	m.timing = true
	m.next, m.load, m.store, m.boundary, m.tick = acc{}, acc{}, acc{}, acc{}, acc{}
	m.hooks.fill, m.hooks.evict, m.hooks.store = acc{}, acc{}, acc{}
}

// runTo mirrors one sim.Machine.RunUntil call that stops at target.
func (m *mirror) runTo(target uint64) {
	for m.instr < target {
		m.n++
		on := m.timing && m.n%mirrorSample == 0
		var a trace.Access
		m.next.calls++
		if on {
			t := time.Now()
			a = m.gen.Next()
			m.next.add(time.Since(t))
		} else {
			a = m.gen.Next()
		}
		m.clock += uint64(a.Gap) + 1
		m.instr += uint64(a.Gap) + 1
		if a.Write {
			m.storeLine(a.Line, on)
		} else {
			m.loadLine(a.Line, on)
		}
		m.maxClock = max(m.maxClock, m.clock)
		if m.instr >= m.nextEpoch {
			m.boundaryStep()
			m.nextEpoch += simEpochInstr
		}
		if m.instr >= m.nextTick {
			m.timed(&m.tick, m.timing, func() { m.sch.Tick(m.maxClock) })
			m.nextTick += mirrorTickEvery
		}
	}
	m.timed(&m.tick, m.timing, func() { m.sch.Tick(m.maxClock) })
}

// boundaryStep mirrors sim's epoch boundary: the scheme commits, the
// core resumes at the scheme's resume time, and the OS handler saves
// state with cacheable stores.
func (m *mirror) boundaryStep() {
	now := m.maxClock
	var resume uint64
	m.timed(&m.boundary, m.timing, func() { resume = max(m.sch.EpochBoundary(now), now) })
	m.clock = max(m.clock, resume)
	m.maxClock = max(m.maxClock, resume)
	m.timed(&m.tick, m.timing, func() { m.sch.Tick(resume) })
	for i := 0; i < mirrorOSLines; i++ {
		m.storeLine(mirrorOSArea+mem.LineAddr(i), m.timing)
	}
	m.maxClock = max(m.maxClock, m.clock)
}

// matches compares the mirror's state with the engine's result for the
// same input and run boundaries.
func (m *mirror) matches(res *sim.Result) (bool, string) {
	switch {
	case res.Cycles != m.maxClock:
		return false, fmt.Sprintf("cycles %d, engine %d", m.maxClock, res.Cycles)
	case res.Instructions != m.instr:
		return false, fmt.Sprintf("instructions %d, engine %d", m.instr, res.Instructions)
	case res.Commits != m.sch.Commits():
		return false, fmt.Sprintf("commits %d, engine %d", m.sch.Commits(), res.Commits)
	case res.NVM != m.ctl.Stats():
		return false, "NVM traffic differs"
	case !maps.Equal(res.Counters.Snapshot(), m.sch.Counters().Snapshot()):
		return false, "scheme counters differ"
	}
	return true, fmt.Sprintf("%d cycles, %d instructions", m.maxClock, m.instr)
}

func tracedSimGCC(e *env, layers map[string]Metric) error {
	const src = "sim-gcc"
	warm := warmEpochs(e.quick)

	// The engine (untraced) and the mirror (traced) simulate the same
	// input epoch by epoch, alternating, so host-speed changes reach
	// both alike: the engine's time is the end-to-end ns/instr the
	// layers must add up to, and its result is what the mirror must equal.
	m, _, err := setupSim(e.seed, warm)
	if err != nil {
		return err
	}
	mr, err := newMirror(e.seed)
	if err != nil {
		return err
	}
	mr.runTo(warm * simEpochInstr)
	mr.startTiming()
	i0, clk0 := mr.instr, mr.maxClock
	nvm0, acs0 := mr.ctl.Stats(), mr.sch.Counters().Get("acs_writebacks")
	l1, l2, llc := mr.hier.L1(0).Stats(), mr.hier.L2(0).Stats(), mr.hier.LLC().Stats()
	var e2eTime, tracedTime time.Duration
	var res *sim.Result
	budget := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	epochs := uint64(0)
	for epochs == 0 || time.Since(start) < budget {
		epochs++
		target := (warm + epochs) * simEpochInstr
		t := time.Now()
		res = runTo(m, target)
		t1 := time.Now()
		mr.runTo(target)
		t2 := time.Now()
		e.spans.add("sim.epoch (engine)", -1, -1, 0, t, t1)
		e.spans.add("sim.epoch (mirror)", -1, -1, 0, t1, t2)
		e2eTime += t1.Sub(t)
		tracedTime += t2.Sub(t1)
	}
	ok, detail := mr.matches(res)
	e.rep.check("sim-gcc mirror equals engine", ok, detail)
	e.rep.ops(int(epochs), 0)
	e2eNs := float64(e2eTime.Nanoseconds()) / float64(mr.instr-i0)
	tracedNs := float64(tracedTime.Nanoseconds()) / float64(mr.instr-i0)

	tc := e.tc
	n := float64(mr.instr - i0)
	perInstr := func(a *acc, ns float64) float64 { return float64(a.calls) * ns / n }
	h := mr.hooks
	nextNs := mr.next.perCallNs(tc)
	loadNs, storeNs := mr.load.selfNs(tc), mr.store.selfNs(tc)
	fillNs, evictNs, onstoreNs := h.fill.perCallNs(tc), h.evict.perCallNs(tc), h.store.perCallNs(tc)
	traceNI := perInstr(&mr.next, nextNs)
	cacheNI := perInstr(&mr.load, loadNs) + perInstr(&mr.store, storeNs)
	hooksNI := perInstr(&h.fill, fillNs) + perInstr(&h.evict, evictNs) + perInstr(&h.store, onstoreNs)
	epochNI := perInstr(&mr.boundary, mr.boundary.selfNs(tc)) + perInstr(&mr.tick, mr.tick.selfNs(tc))
	residue := e2eNs - traceNI - cacheNI - hooksNI - epochNI

	layer(layers, "trace.next_ns", nextNs, "ns", src)
	layer(layers, "trace.next_per_kinstr", float64(mr.next.calls)/n*1000, "count/kinstr", src)
	layer(layers, "cache.load_ns", loadNs, "ns", src)
	layer(layers, "cache.store_ns", storeNs, "ns", src)
	layer(layers, "cache.self_ns_per_instr", cacheNI, "ns/instr", src)
	layer(layers, "cache.l1_hit_ratio", hitRatio(l1, mr.hier.L1(0).Stats()), "ratio", src)
	layer(layers, "cache.l2_hit_ratio", hitRatio(l2, mr.hier.L2(0).Stats()), "ratio", src)
	layer(layers, "cache.llc_hit_ratio", hitRatio(llc, mr.hier.LLC().Stats()), "ratio", src)
	layer(layers, "core.onstore_ns", onstoreNs, "ns", src)
	layer(layers, "core.fill_ns", fillNs, "ns", src)
	layer(layers, "core.evict_ns", evictNs, "ns", src)
	layer(layers, "core.tick_ns", mr.tick.perCallNs(tc), "ns", src)
	layer(layers, "core.boundary_us", mr.boundary.perCallNs(tc)/1e3, "us", src)
	layer(layers, "core.hooks_ns_per_instr", hooksNI, "ns/instr", src)
	layer(layers, "core.acs_writebacks_per_kinstr",
		float64(mr.sch.Counters().Get("acs_writebacks")-acs0)/n*1000, "count/kinstr", src)
	nvmLayers(layers, nvm0, mr.ctl.Stats(), n, float64(mr.maxClock-clk0), src)
	layer(layers, "sim.residue_ns_per_instr", residue, "ns/instr", src)
	layer(layers, "trace_overhead_frac", tracedNs/e2eNs-1, "frac", src)

	micro := microbenchmarks(e.quick)
	for name, ns := range micro {
		layer(layers, name, ns, "ns", src)
	}
	e.rep.Reconcile = []ReconRow{
		{Layer: "trace", NsPerInstr: traceNI, Description: "Generator.Next"},
		{Layer: "cache", NsPerInstr: cacheNI, Description: "Hierarchy.Load/Store self time"},
		{Layer: "core hooks", NsPerInstr: hooksNI, Description: "PiCL OnStore/Fill/EvictDirty, NVM submits included"},
		{Layer: "core epoch", NsPerInstr: epochNI, Description: "EpochBoundary + Tick self time"},
		{Layer: "sim residue", NsPerInstr: residue, Description: "engine's own loop: end-to-end minus the layers above"},
		{Layer: "end-to-end", NsPerInstr: e2eNs, Description: fmt.Sprintf(
			"untraced engine; for reference cache.lookup_hit_ns %.2f, cache.insert_evict_ns %.2f",
			micro["cache.lookup_hit_ns"], micro["cache.insert_evict_ns"])},
	}
	return nil
}

func hitRatio(before, after cache.Stats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// nvmLayers records the NVM controller's traffic between two snapshots
// over instr simulated instructions and cycles simulated cycles.
func nvmLayers(layers map[string]Metric, before, after nvm.Stats, instr, cycles float64, src string) {
	var ops uint64
	for i := range after.Count {
		ops += after.Count[i] - before.Count[i]
	}
	layer(layers, "nvm.ops_per_kinstr", float64(ops)/instr*1000, "count/kinstr", src)
	layer(layers, "nvm.queue_stalls_per_kinstr", float64(after.StallEvents-before.StallEvents)/instr*1000, "count/kinstr", src)
	layer(layers, "nvm.busy_frac", float64(after.BusyCycles-before.BusyCycles)/cycles, "frac", src)
}

// microbenchmarks runs internal/perf's substrate bodies (the ones
// BENCH_PR9.json records) and returns ns per operation.
func microbenchmarks(quick bool) map[string]float64 {
	testing.Init()
	benchtime := "300ms"
	if quick {
		benchtime = "20ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		panic(err) // registered by testing.Init
	}
	out := map[string]float64{}
	for name, f := range map[string]func(*testing.B){
		"cache.lookup_hit_ns":   perf.CacheLookupHit,
		"cache.insert_evict_ns": perf.CacheInsertEvict,
		"nvm.submit_ns":         perf.NVMSubmit,
		"bloom.insert_probe_ns": perf.BloomInsertProbe,
		"undolog.append_gc_ns":  perf.UndoLogAppendGC,
	} {
		r := testing.Benchmark(f)
		out[name] = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return out
}
