// Package sim is the trace-driven multi-core simulation engine (the
// stand-in for the paper's Pin+PRIME methodology, §VI-A): in-order cores
// at CPI 1 for non-memory instructions, blocking loads, store-buffered
// stores, a shared cache hierarchy, an FCFS NVM controller, and
// epoch-boundary interrupts delivered to the active checkpointing scheme.
//
// In functional mode the engine additionally maintains a golden reference
// of end-of-epoch memory states and supports crash injection: the run is
// frozen at an arbitrary instant, the scheme recovers from its durable
// state, and the result is compared bit-exactly against the golden image
// of the epoch the scheme claims to have restored.
//
// # Concurrency contract
//
// A Machine owns every piece of mutable state it touches — its scheme,
// cache hierarchy, NVM controller, trace generators, and reference
// images are all constructed by New and never shared. One Machine is
// strictly single-threaded (deterministic replay is the point), but any
// number of independent Machines may run concurrently: the packages
// underneath (cache, nvm, core, baselines, trace, undolog) keep no
// package-level mutable state. internal/exp relies on this to sweep the
// evaluation matrix across a worker pool; the -race test in this package
// enforces it.
package sim

import (
	"fmt"

	"picl/internal/baselines"
	"picl/internal/cache"
	"picl/internal/checkpoint"
	"picl/internal/core"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/obs"
	"picl/internal/stats"
	"picl/internal/trace"
)

// SchemeNames lists every scheme the engine can instantiate, in the
// paper's presentation order.
func SchemeNames() []string {
	return []string{"ideal", "journal", "shadow", "frm", "thynvm", "picl"}
}

// MakeScheme instantiates a scheme by name over the given controller.
func MakeScheme(name string, ctl *nvm.Controller, functional bool, piclCfg core.Config, params baselines.Params) (checkpoint.Scheme, error) {
	switch name {
	case "ideal":
		return baselines.NewIdeal(ctl, functional), nil
	case "journal":
		return baselines.NewJournalWith(ctl, functional, params), nil
	case "shadow":
		return baselines.NewShadowWith(ctl, functional, params), nil
	case "frm":
		return baselines.NewFRM(ctl, functional), nil
	case "thynvm":
		return baselines.NewThyNVMWith(ctl, functional, params), nil
	case "picl":
		return core.New(piclCfg, ctl, functional), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", name)
	}
}

// Config describes one simulation run.
type Config struct {
	// Scheme is the checkpointing scheme name (see SchemeNames).
	Scheme string
	// PiCL carries PiCL-specific parameters when Scheme == "picl".
	PiCL core.Config
	// Baseline sizes the redo schemes' translation tables (zero value =
	// paper defaults).
	Baseline baselines.Params
	// Workloads holds one generator per core.
	Workloads []trace.Generator
	// Hierarchy defaults to the Table IV system for len(Workloads) cores.
	Hierarchy *cache.HierarchyConfig
	// NVM defaults to nvm.DefaultConfig.
	NVM *nvm.Config
	// EpochInstr is the checkpoint interval in instructions per core
	// (paper default: 30 M).
	EpochInstr uint64
	// InstrPerCore is the run length per core.
	InstrPerCore uint64
	// OSHandlerLines models the per-core epoch-boundary interrupt handler
	// (paper §V-A): at every commit the OS saves registers and arithmetic
	// state with cacheable stores to a fixed per-core area. Default 4
	// lines (256 B of architectural state); 0 disables.
	OSHandlerLines int
	// Timeline records per-epoch statistics (Result.Timeline) — useful
	// for visualizing the baselines' stop-the-world commit spikes against
	// PiCL's flat profile.
	Timeline bool
	// SchedQuantum caps how many consecutive accesses the scheduler may
	// run on the chosen lagging core before it re-derives the schedule
	// from scratch. Purely a performance/robustness knob: the scheduler
	// re-checks the exact selection invariant after every access, so any
	// quantum produces cycle-identical results. 0 means the default (64).
	SchedQuantum int
	// TraceCap, when positive, attaches a machine-owned obs.Ring of that
	// capacity to every engine layer (scheme, hierarchy, NVM controller)
	// and returns the recorded stream in Result.Events. Events carry
	// simulated time only, so the stream is byte-identical however many
	// machines run in parallel around this one.
	TraceCap int
	// TraceMask restricts ring recording to the given kinds (zero = all).
	// Long runs use it to keep low-volume kinds (epoch lifecycle) from
	// being overwritten by high-volume ones (per-op NVM events).
	TraceMask obs.Mask
	// Tracer, if non-nil, receives events instead of a TraceCap ring
	// (Result.Events stays nil; the caller owns collection). The machine
	// calls it from its own goroutine only — see the obs.Tracer contract.
	Tracer obs.Tracer
	// Functional enables content tracking, golden snapshots and crash
	// injection (slower; used by correctness tests and examples).
	Functional bool
	// KeepGolden retains end-of-epoch snapshots (functional mode only);
	// disable for long functional runs that only need final recovery.
	KeepGolden bool
}

// EpochSample is one epoch's slice of a run timeline.
type EpochSample struct {
	Epoch mem.EpochID
	// Cycles is wall-clock spent in this epoch interval.
	Cycles uint64
	// StallCycles is boundary stop-the-world time charged to the epoch.
	StallCycles uint64
	// Writebacks/Random/Sequential are NVM ops issued during the epoch.
	Writebacks, Random, Sequential uint64
	// Commits in the interval (forced commits make this > 1).
	Commits uint64
}

// Result summarizes a completed run.
type Result struct {
	Scheme       string
	Cores        int
	Cycles       uint64
	Instructions uint64
	Commits      uint64
	ForcedCommit uint64
	// BoundaryStallCycles is time lost to stop-the-world commits.
	BoundaryStallCycles uint64
	NVM                 nvm.Stats
	// Counters is a copy of the scheme's counters at the end of the run,
	// taken once per RunUntil call: like Cycles and NVM, it does not move
	// when the machine runs on.
	Counters *stats.Counters
	// LogPeakBytes/LogTotalBytes report PiCL's undo-log footprint.
	LogPeakBytes  uint64
	LogTotalBytes uint64
	// Timeline holds per-epoch samples when Config.Timeline is set.
	Timeline []EpochSample
	// Events holds the recorded trace when Config.TraceCap is set
	// (oldest-first; the ring keeps the last TraceCap events).
	Events []obs.Event
	// EventsDropped counts trace events the ring overwrote.
	EventsDropped uint64
}

// PromText renders the run's aggregate metrics in the Prometheus text
// exposition format (picl_-prefixed, sorted, deterministic bytes):
// headline run counters, per-op NVM traffic, and every scheme counter.
func (r *Result) PromText() string {
	metrics := map[string]uint64{
		"cycles":                r.Cycles,
		"instructions":          r.Instructions,
		"commits":               r.Commits,
		"forced_commits":        r.ForcedCommit,
		"boundary_stall_cycles": r.BoundaryStallCycles,
		"nvm_busy_cycles":       r.NVM.BusyCycles,
		"nvm_row_activations":   r.NVM.RowActivations,
		"nvm_queue_stalls":      r.NVM.StallEvents,
		"nvm_dram_hits":         r.NVM.DRAMHits,
		"undo_log_peak_bytes":   r.LogPeakBytes,
		"undo_log_total_bytes":  r.LogTotalBytes,
		"trace_events_dropped":  r.EventsDropped,
	}
	for op := nvm.Op(0); op < nvm.Op(len(r.NVM.Count)); op++ {
		metrics["nvm_ops_"+op.String()] = r.NVM.Count[op]
		metrics["nvm_bytes_"+op.String()] = r.NVM.Bytes[op]
	}
	if r.Counters != nil {
		for k, v := range r.Counters.Snapshot() {
			metrics["scheme_"+k] = v
		}
	}
	return stats.PromText("picl_", metrics)
}

// NormalizedIOPS returns the scheme's operations in a Fig. 12 category
// divided by base write-back traffic (pass the Ideal run's write-backs).
func (r *Result) NormalizedIOPS(cat nvm.Category, baseWritebacks uint64) float64 {
	if baseWritebacks == 0 {
		return 0
	}
	return float64(r.NVM.Ops(cat)) / float64(baseWritebacks)
}

type coreState struct {
	gen   trace.Generator
	clock uint64
	instr uint64
	seq   uint64
}

// Machine is one configured simulation instance. A Machine is not safe
// for concurrent use, but distinct Machines are fully independent and
// may run on separate goroutines (see the package concurrency contract).
type Machine struct {
	cfg    Config
	scheme checkpoint.Scheme
	hier   *cache.Hierarchy
	ctl    *nvm.Controller
	cores  []*coreState
	// tr is the engine-level tracer (scheduler events); ring is the
	// machine-owned recorder when Config.TraceCap is set.
	tr   obs.Tracer
	ring *obs.Ring

	totalInstr uint64
	stallCyc   uint64
	osSeq      uint64
	// maxClock is the maximum core clock, maintained incrementally at
	// every clock update so Now() is O(1) instead of an O(cores) scan.
	maxClock uint64
	// nextEpoch/nextTick carry the boundary and ACS-tick schedule across
	// RunUntil calls, so a machine paused by a stop predicate (crash
	// injection, epoch-by-epoch stepping) resumes without re-firing
	// boundaries it already delivered.
	nextEpoch uint64
	nextTick  uint64

	timeline  []EpochSample
	lastEpoch struct {
		at      uint64
		stall   uint64
		commits uint64
		nvm     nvm.Stats
	}

	ref *mem.Image
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("sim: no workloads")
	}
	if cfg.EpochInstr == 0 {
		cfg.EpochInstr = 30_000_000
	}
	if cfg.InstrPerCore == 0 {
		cfg.InstrPerCore = 8 * cfg.EpochInstr
	}
	nvmCfg := nvm.DefaultConfig()
	if cfg.NVM != nil {
		nvmCfg = *cfg.NVM
	}
	if cfg.Functional && nvmCfg.Reordering() {
		return nil, fmt.Errorf("sim: functional durability tracking requires the FCFS single-bank controller (Banks=%d ReadPriority=%v)", nvmCfg.Banks, nvmCfg.ReadPriority)
	}
	ctl := nvm.NewController(nvmCfg)
	scheme, err := MakeScheme(cfg.Scheme, ctl, cfg.Functional, cfg.PiCL, cfg.Baseline)
	if err != nil {
		return nil, err
	}
	hcfg := cache.DefaultHierarchyConfig(len(cfg.Workloads))
	if cfg.Hierarchy != nil {
		hcfg = *cfg.Hierarchy
		hcfg.Cores = len(cfg.Workloads)
	}
	hier := cache.NewHierarchy(hcfg, scheme, scheme)
	scheme.Attach(hier)

	if cfg.OSHandlerLines == 0 {
		cfg.OSHandlerLines = 4
	}
	if cfg.OSHandlerLines < 0 {
		cfg.OSHandlerLines = 0
	}
	m := &Machine{cfg: cfg, scheme: scheme, hier: hier, ctl: ctl}
	m.nextEpoch = cfg.EpochInstr * uint64(len(cfg.Workloads))
	m.nextTick = 2_000_000
	if tr := cfg.Tracer; tr != nil {
		m.tr = tr
	} else if cfg.TraceCap > 0 {
		m.ring = obs.NewRing(cfg.TraceCap)
		m.ring.SetMask(cfg.TraceMask)
		m.tr = m.ring
	}
	if m.tr != nil {
		scheme.SetTracer(m.tr)
		hier.SetTracer(m.tr)
		ctl.SetTracer(m.tr)
	}
	for _, g := range cfg.Workloads {
		m.cores = append(m.cores, &coreState{gen: g})
	}
	if cfg.Timeline {
		// One sample per epoch boundary; preallocating the exact count
		// keeps sampleEpoch allocation-free during the run. The division
		// also sidesteps overflow for enormous budgets (both fields are
		// nonzero by this point); cap the reservation for pathological
		// budget/epoch ratios.
		epochs := cfg.InstrPerCore / cfg.EpochInstr
		if epochs > 1<<20 {
			epochs = 1 << 20
		}
		m.timeline = make([]EpochSample, 0, epochs+2)
	}
	if cfg.Functional {
		m.ref = mem.NewImage()
		if cfg.KeepGolden {
			// Golden end-of-epoch states are marks in the reference
			// image's copy-on-write history: mark 0 is the pristine
			// pre-epoch-1 state, and every commit — including forced
			// early commits triggered inside evictions — seals one more.
			// Snapshot cost is O(lines written in the epoch), not
			// O(footprint).
			m.ref.EnableHistory()
			scheme.SetCommitHook(func() { m.ref.Mark() })
		}
	}
	return m, nil
}

// Scheme exposes the scheme under test.
func (m *Machine) Scheme() checkpoint.Scheme { return m.scheme }

// Hierarchy exposes the cache hierarchy.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Controller exposes the NVM controller.
func (m *Machine) Controller() *nvm.Controller { return m.ctl }

// Now returns the maximum core clock (system time). O(1): the maximum is
// maintained at every clock update (step, boundary).
func (m *Machine) Now() uint64 { return m.maxClock }

// step runs one access quantum on the given core.
func (m *Machine) step(c *coreState, coreID int) {
	a := c.gen.Next()
	c.clock += uint64(a.Gap) + 1
	c.instr += uint64(a.Gap) + 1
	m.totalInstr += uint64(a.Gap) + 1
	if a.Write {
		c.seq++
		var payload mem.Word
		if m.cfg.Functional {
			payload = mem.PayloadFor(a.Line, m.scheme.SystemEID(), c.seq)
		}
		if stall := m.hier.Store(c.clock, coreID, a.Line, payload); stall > c.clock {
			c.clock = stall
		}
		if m.cfg.Functional {
			// The reference updates after the store so a forced commit
			// inside the store's eviction path (which flushes the
			// pre-store cache state) snapshots a matching golden image.
			m.ref.Write(a.Line, payload)
		}
	} else {
		_, done := m.hier.Load(c.clock, coreID, a.Line)
		c.clock = done
	}
	if c.clock > m.maxClock {
		m.maxClock = c.clock
	}
}

// boundary delivers the epoch interrupt: all cores synchronize at the
// barrier, the scheme commits, and everyone resumes at the scheme's
// resume time (stop-the-world schemes stall here).
func (m *Machine) boundary() {
	now := m.Now()
	resume := m.scheme.EpochBoundary(now)
	if resume < now {
		resume = now
	}
	if m.tr != nil {
		m.tr.Event(obs.Event{Kind: obs.KindEpochInt, Time: now, Dur: resume - now,
			Epoch: m.scheme.SystemEID(), A: m.totalInstr})
	}
	m.stallCyc += resume - now
	for _, c := range m.cores {
		if c.clock < resume {
			c.clock = resume
		}
	}
	if resume > m.maxClock {
		m.maxClock = resume
	}
	m.scheme.Tick(resume)
	if m.cfg.Timeline {
		m.sampleEpoch(resume)
	}
	// The OS boundary handler saves each core's architectural state with
	// cacheable stores (paper §V-A); these belong to the new epoch.
	for coreID, c := range m.cores {
		for i := 0; i < m.cfg.OSHandlerLines; i++ {
			m.osSeq++
			l := osSaveArea + mem.LineAddr(coreID*64+i)
			var payload mem.Word
			if m.cfg.Functional {
				payload = mem.PayloadFor(l, m.scheme.SystemEID(), m.osSeq)
			}
			if stall := m.hier.Store(c.clock, coreID, l, payload); stall > c.clock {
				c.clock = stall
			}
			if m.cfg.Functional {
				m.ref.Write(l, payload)
			}
		}
		if c.clock > m.maxClock {
			m.maxClock = c.clock
		}
	}
}

// osSaveArea is the fixed OS-visible region for boundary-handler state,
// disjoint from the harness workload address spaces.
const osSaveArea mem.LineAddr = 1 << 33

// sampleEpoch appends a timeline entry for the interval since the last
// boundary.
func (m *Machine) sampleEpoch(now uint64) {
	cur := m.ctl.Stats()
	prev := &m.lastEpoch
	m.timeline = append(m.timeline, EpochSample{
		Epoch:       m.scheme.SystemEID().Minus(1),
		Cycles:      now - prev.at,
		StallCycles: m.stallCyc - prev.stall,
		Writebacks:  cur.Ops(nvm.CatWriteback) - prev.nvm.Ops(nvm.CatWriteback),
		Random:      cur.Ops(nvm.CatRandom) - prev.nvm.Ops(nvm.CatRandom),
		Sequential:  cur.Ops(nvm.CatSequential) - prev.nvm.Ops(nvm.CatSequential),
		Commits:     m.scheme.Commits() - prev.commits,
	})
	prev.at = now
	prev.stall = m.stallCyc
	prev.commits = m.scheme.Commits()
	prev.nvm = cur
}

// Run executes the configured instruction budget and returns the result.
func (m *Machine) Run() *Result {
	return m.RunUntil(nil)
}

// RunUntil executes until the budget is exhausted or stop (if non-nil)
// returns true; stop is polled between access quanta with the system
// time. Used for crash injection at an instruction-precise point.
// RunUntil is resumable: the boundary and tick schedules live on the
// machine, so a run paused by its stop predicate continues exactly
// where it left off on the next call, so a caller may step a machine
// epoch by epoch and get the same run as one uninterrupted call.
//
// Scheduling: the engine always runs the lagging core — the lowest clock
// among cores with remaining budget, ties to the lowest index. Rather
// than rescanning all cores after every access, one selection pass also
// records the runner-up (the best of the remaining cores), and the
// chosen core keeps running while it provably remains the selection:
// stepping it only raises its own clock, so it stays the lagging core
// exactly until its (clock, index) key reaches the runner-up's. The
// schedule is re-derived whenever that bound is crossed, the core
// exhausts its budget, an epoch boundary raises every clock, or
// SchedQuantum accesses have run — so any quantum is cycle-identical to
// the original one-access-at-a-time selection loop.
func (m *Machine) RunUntil(stop func(now uint64, instr uint64) bool) *Result {
	target := m.cfg.InstrPerCore
	epochEvery := m.cfg.EpochInstr * uint64(len(m.cores))
	tickEvery := uint64(2_000_000)
	quantum := m.cfg.SchedQuantum
	if quantum <= 0 {
		quantum = 64
	}

run:
	for {
		// One pass finds the lagging core and the runner-up it must stay
		// ahead of. secondClock/secondID start past any real core, so a
		// sole eligible core runs an unbounded-horizon quantum.
		var c *coreState
		coreID := -1
		secondClock := ^uint64(0)
		secondID := len(m.cores)
		for i, cand := range m.cores {
			if cand.instr >= target {
				continue
			}
			if c == nil || cand.clock < c.clock {
				if c != nil {
					secondClock, secondID = c.clock, coreID
				}
				c, coreID = cand, i
			} else if cand.clock < secondClock {
				secondClock, secondID = cand.clock, i
			}
		}
		if c == nil {
			break
		}
		if m.tr != nil {
			// One event per derived schedule: which core won the lagging
			// selection and at what clock/instruction point.
			m.tr.Event(obs.Event{Kind: obs.KindQuantum, Time: c.clock,
				A: m.totalInstr, B: uint64(coreID)})
		}
		for steps := quantum; ; steps-- {
			m.step(c, coreID)
			resched := false
			if m.totalInstr >= m.nextEpoch {
				m.boundary()
				m.nextEpoch += epochEvery
				resched = true // all clocks may have been raised
			}
			if m.totalInstr >= m.nextTick {
				m.scheme.Tick(m.Now())
				m.nextTick += tickEvery
			}
			if stop != nil && stop(m.Now(), m.totalInstr) {
				break run
			}
			if resched || steps <= 1 || c.instr >= target ||
				c.clock > secondClock ||
				(c.clock == secondClock && coreID > secondID) {
				break
			}
		}
	}
	m.scheme.Tick(m.Now())
	return m.result()
}

func (m *Machine) result() *Result {
	r := &Result{
		Scheme:              m.scheme.Name(),
		Cores:               len(m.cores),
		Cycles:              m.Now(),
		Instructions:        m.totalInstr,
		Commits:             m.scheme.Commits(),
		BoundaryStallCycles: m.stallCyc,
		NVM:                 m.ctl.Stats(),
		Counters:            m.scheme.Counters().Clone(),
	}
	r.Timeline = m.timeline
	if m.ring != nil {
		r.Events = m.ring.Events()
		r.EventsDropped = m.ring.Dropped()
	}
	if p, ok := m.scheme.(*core.PiCL); ok {
		r.LogPeakBytes = p.Log().PeakBytes()
		r.LogTotalBytes = p.Log().TotalBytes()
	}
	switch s := m.scheme.(type) {
	case *baselines.Journal:
		r.ForcedCommit = s.ForcedCommits
	case *baselines.Shadow:
		r.ForcedCommit = s.ForcedCommits
	case *baselines.ThyNVM:
		r.ForcedCommit = s.ForcedCommits
	}
	return r
}

// Golden reconstructs the end-of-epoch snapshot for epoch e from the
// reference image's history (functional + KeepGolden runs only). Epoch 0
// is the pristine initial state.
func (m *Machine) Golden(e mem.EpochID) (*mem.Image, bool) {
	if !m.cfg.Functional || !m.cfg.KeepGolden {
		return nil, false
	}
	if int(e) < 0 || int(e) > m.ref.Marks() {
		return nil, false
	}
	return m.ref.At(int(e)), true
}

// Reference returns the running architectural reference image.
func (m *Machine) Reference() *mem.Image { return m.ref }

// CrashAndRecover injects a crash at time t, runs the scheme's recovery,
// and verifies the result against the golden snapshot. It returns the
// recovered epoch, or an error describing the inconsistency.
func (m *Machine) CrashAndRecover(t uint64) (mem.EpochID, error) {
	if !m.cfg.Functional || !m.cfg.KeepGolden {
		return 0, fmt.Errorf("sim: crash injection requires Functional and KeepGolden")
	}
	m.scheme.CrashAt(t)
	img, eid, err := m.scheme.Recover()
	if err != nil {
		return 0, err
	}
	want, ok := m.Golden(eid)
	if !ok {
		return eid, fmt.Errorf("sim: recovered to epoch %d with only %d epochs recorded", eid, m.ref.Marks())
	}
	if !img.Equal(want) {
		return eid, fmt.Errorf("sim: recovery to epoch %d diverges on lines %v", eid, img.Diff(want, 5))
	}
	return eid, nil
}
