// Package picl is a software-transparent, persistent cache log for
// nonvolatile main memory — a from-scratch reproduction of Nguyen &
// Wentzlaff, "PiCL: a Software-Transparent, Persistent Cache Log for
// Nonvolatile Main Memory" (MICRO 2018).
//
// The package offers a high-level facade over the full simulation stack
// (cache hierarchy, NVM device model, checkpointing schemes): build a
// Machine, issue line-granular reads and writes like a program would,
// commit epochs, pull the plug at any instant, and recover — bit-exact —
// to the last persisted checkpoint. Software on top needs no transactions,
// no persist barriers, no cache-flush instructions: that is the paper's
// point.
//
//	m, _ := picl.New()
//	m.Write(0x1000, 42)
//	m.CommitEpoch()
//	...
//	m.Crash()
//	img, epoch, _ := m.Recover()
//
// Lower layers are available under internal/ for the experiment harness
// (cmd/picl-bench regenerates every table and figure of the paper) and
// are documented in DESIGN.md.
//
// Granularity note: the simulation carries one 64-bit word per 64-byte
// cache line as the line's content. Write(addr, v) sets the content of
// the line containing addr; Read(addr) returns it. This preserves every
// crash-consistency property (which version of which line survives)
// at one eighth of the memory cost of full line data.
package picl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"picl/internal/baselines"
	"picl/internal/cache"
	"picl/internal/checkpoint"
	"picl/internal/core"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/obs"
	"picl/internal/sim"
	"picl/internal/stats"
	"picl/internal/storage"
)

// Sentinel errors returned (wrapped, with context) by the facade; assert
// them with errors.Is. They are part of the public API so concurrent
// harnesses on top can branch on failure kind instead of matching error
// strings.
var (
	// ErrCrashed reports an operation on a machine whose power was cut;
	// Recover the durable state or build a new Machine.
	ErrCrashed = errors.New("picl: machine has crashed")
	// ErrNeedCore reports a construction with fewer than one core.
	ErrNeedCore = errors.New("picl: need at least one core")
	// ErrNoPointInTime reports RecoverTo on a scheme without multi-epoch
	// log history (every single-checkpoint baseline).
	ErrNoPointInTime = errors.New("picl: scheme has no point-in-time recovery")
	// ErrBadHierarchy reports an invalid WithHierarchy geometry.
	ErrBadHierarchy = errors.New("picl: invalid cache hierarchy geometry")
	// ErrNoTrace reports WriteTrace on a machine built without WithTracing.
	ErrNoTrace = errors.New("picl: tracing not enabled")
	// ErrBackend reports a durable-backend failure: a storage operation
	// failed (Open, a mirror write, Close), Open was asked for a scheme
	// that cannot drive a store, or the machine was used after Close.
	ErrBackend = errors.New("picl: durable backend error")
	// ErrTornLog reports a durable log recovery cannot trust: its
	// superblock is torn or corrupt, or a block of the prefix the last
	// commit names fails validation (media rot). Blocks past that prefix
	// were never synced under a commit and are dropped silently on open,
	// whatever their shape.
	ErrTornLog = errors.New("picl: torn or corrupt durable log")
)

// Config re-exports PiCL's hardware parameters (ACS gap, undo buffer
// size, bloom filter sizing, log region).
type Config = core.Config

// DefaultConfig returns the paper's evaluated PiCL configuration
// (ACS-gap 3, 2 KB undo buffer, 4096-bit bloom filter).
func DefaultConfig() Config { return core.DefaultConfig() }

// Schemes returns the names accepted by WithScheme: "picl" (default),
// and the paper's baselines "ideal", "journal", "shadow", "frm",
// "thynvm".
func Schemes() []string { return sim.SchemeNames() }

// options collects Machine construction parameters.
type options struct {
	scheme    string
	cores     int
	piclCfg   Config
	nvmCfg    nvm.Config
	hierarchy *cache.HierarchyConfig
	traceCap  int
	wrapper   StoreWrapper
}

// Option customizes New.
type Option func(*options)

// WithScheme selects the crash-consistency scheme (default "picl").
func WithScheme(name string) Option { return func(o *options) { o.scheme = name } }

// WithCores sets the core count (default 1).
func WithCores(n int) Option { return func(o *options) { o.cores = n } }

// WithConfig overrides PiCL's parameters.
func WithConfig(c Config) Option { return func(o *options) { o.piclCfg = c } }

// WithNVM overrides the NVM device model (see DefaultNVM, DRAM).
func WithNVM(c nvm.Config) Option { return func(o *options) { o.nvmCfg = c } }

// WithTracing attaches an event recorder of the given capacity (events;
// the ring keeps the most recent ones) to every layer of the machine:
// epoch lifecycle, undo logging, ACS scans, cache evictions, and NVM
// operations are captured with simulated-cycle timestamps. Export with
// WriteTrace. Zero or negative capacity disables tracing (the default);
// a disabled machine pays no tracing overhead.
func WithTracing(capacity int) Option { return func(o *options) { o.traceCap = capacity } }

// LevelGeometry describes one cache level for WithHierarchy. SizeBytes
// is the level's capacity (per core for the private L1/L2, total shared
// capacity for the LLC); Ways is the set associativity; LatencyCycles is
// the lookup latency.
type LevelGeometry struct {
	SizeBytes     int
	Ways          int
	LatencyCycles uint64
}

// WithHierarchy replaces the default Table IV cache hierarchy with an
// arbitrary three-level geometry. New reports ErrBadHierarchy if any
// level cannot build a cache: non-positive size or ways, more than 16
// ways, or a set count that is not a power of two.
func WithHierarchy(l1, l2, llc LevelGeometry) Option {
	return func(o *options) {
		o.hierarchy = &cache.HierarchyConfig{
			L1:  cache.Config{Name: "l1", Size: l1.SizeBytes, Ways: l1.Ways, Latency: l1.LatencyCycles},
			L2:  cache.Config{Name: "l2", Size: l2.SizeBytes, Ways: l2.Ways, Latency: l2.LatencyCycles},
			LLC: cache.Config{Name: "llc", Size: llc.SizeBytes, Ways: llc.Ways, Latency: llc.LatencyCycles},
		}
	}
}

// WithSmallCaches swaps in a miniature hierarchy (1 KB L1 and 8 KB L2
// per core, one 32 KB LLC shared by all cores, however many) so small
// example workloads still exercise evictions and memory traffic. It is
// WithHierarchy with a canned geometry.
func WithSmallCaches() Option {
	return WithHierarchy(
		LevelGeometry{SizeBytes: 1 << 10, Ways: 4, LatencyCycles: 1},
		LevelGeometry{SizeBytes: 8 << 10, Ways: 8, LatencyCycles: 4},
		LevelGeometry{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 30},
	)
}

// DefaultNVM returns the paper's NVM device model (128 ns row read,
// 368 ns row write, 2 KB rows).
func DefaultNVM() nvm.Config { return nvm.DefaultConfig() }

// DRAM returns a conventional-DRAM device model for comparison.
func DRAM() nvm.Config { return nvm.DRAMConfig() }

// Machine is a crash-consistent simulated NVMM system: cores with a
// cache hierarchy over nonvolatile memory, protected by the configured
// scheme. A Machine is not safe for concurrent use, but distinct
// Machines share no mutable state and may run on separate goroutines
// (the experiment harness sweeps many at once).
type Machine struct {
	scheme  checkpoint.Scheme
	hier    *cache.Hierarchy
	ctl     *nvm.Controller
	ring    *obs.Ring // nil unless WithTracing
	clock   uint64
	crashed bool
	closed  bool
	ioQueue []pendingIO

	// Durable-mode state (machines built with Open).
	durable      *storage.Dir
	durablePiCL  *core.PiCL
	recoveredImg Image
	recoveredEID uint64
}

// pendingIO is an outward-facing write held until its epoch persists.
type pendingIO struct {
	tag   string
	epoch mem.EpochID
}

// New constructs a Machine in functional mode.
func New(opts ...Option) (*Machine, error) {
	o := options{scheme: "picl", cores: 1, piclCfg: core.DefaultConfig(), nvmCfg: nvm.DefaultConfig()}
	for _, f := range opts {
		f(&o)
	}
	if o.cores < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrNeedCore, o.cores)
	}
	if h := o.hierarchy; h != nil {
		for _, level := range []cache.Config{h.L1, h.L2, h.LLC} {
			if err := level.Validate(); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadHierarchy, err)
			}
		}
	}
	ctl := nvm.NewController(o.nvmCfg)
	scheme, err := sim.MakeScheme(o.scheme, ctl, true, o.piclCfg, baselines.DefaultParams())
	if err != nil {
		return nil, err
	}
	hcfg := cache.DefaultHierarchyConfig(o.cores)
	if o.hierarchy != nil {
		hcfg = *o.hierarchy
		hcfg.Cores = o.cores
	}
	hier := cache.NewHierarchy(hcfg, scheme, scheme)
	scheme.Attach(hier)
	m := &Machine{scheme: scheme, hier: hier, ctl: ctl}
	m.durablePiCL, _ = scheme.(*core.PiCL)
	if o.traceCap > 0 {
		m.ring = obs.NewRing(o.traceCap)
		scheme.SetTracer(m.ring)
		hier.SetTracer(m.ring)
		ctl.SetTracer(m.ring)
	}
	return m, nil
}

func (m *Machine) checkLive() error {
	if m.closed {
		return fmt.Errorf("%w: machine is closed", ErrBackend)
	}
	if m.crashed {
		return fmt.Errorf("%w; Recover or build a new one", ErrCrashed)
	}
	return nil
}

// checkWritable is checkLive plus the degraded-mode gate: a sticky
// durable-mirror failure turns the machine read-only — mutating
// operations report ErrBackend while reads, stats, and trace export
// keep working (graceful degradation instead of bricking the machine).
func (m *Machine) checkWritable() error {
	if err := m.checkLive(); err != nil {
		return err
	}
	if m.durablePiCL != nil {
		// Mirror failures are recorded sticky inside the hot paths (which
		// cannot return storage errors) and surfaced at the next mutating
		// operation.
		if err := m.durablePiCL.DurableErr(); err != nil {
			return fmt.Errorf("%w: durable store degraded to read-only: %w", ErrBackend, err)
		}
	}
	return nil
}

// Degraded reports whether the machine has entered read-only degraded
// mode: a durable-mirror write failed permanently (after the bounded
// retry), so the on-disk store froze at its last consistent marker and
// mutating operations now report ErrBackend. Reads, Stats, and
// WriteTrace keep working — the cached state is still coherent, only
// its durability is gone. DegradedCause returns the underlying failure.
func (m *Machine) Degraded() bool {
	return m.durablePiCL != nil && m.durablePiCL.DurableErr() != nil
}

// DegradedCause returns the sticky durable-mirror failure that put the
// machine in degraded mode, wrapped in ErrBackend (nil when healthy).
func (m *Machine) DegradedCause() error {
	if m.durablePiCL == nil {
		return nil
	}
	if err := m.durablePiCL.DurableErr(); err != nil {
		return fmt.Errorf("%w: %w", ErrBackend, err)
	}
	return nil
}

// Write stores value into the cache line containing addr, on core 0.
func (m *Machine) Write(addr uint64, value uint64) error {
	return m.WriteOn(0, addr, value)
}

// WriteOn stores value on the given core.
//
// Clock semantics (shared with ReadOn): the machine clock advances by the
// operation's one issue cycle, then clamps forward — never backward — to
// the operation's completion or stall time. A store's completion is its
// backpressure stall (stores are buffered and otherwise free); a load's
// is the hierarchy/memory latency. Both paths use the same monotone
// max-clamp, so interleaving reads and writes can never rewind time.
func (m *Machine) WriteOn(coreID int, addr uint64, value uint64) error {
	if err := m.checkWritable(); err != nil {
		return err
	}
	m.clock++
	if stall := m.hier.Store(m.clock, coreID, mem.Addr(addr).Line(), mem.Word(value)); stall > m.clock {
		m.clock = stall
	}
	return nil
}

// Read returns the content of the line containing addr, on core 0.
func (m *Machine) Read(addr uint64) (uint64, error) {
	return m.ReadOn(0, addr)
}

// ReadOn reads on the given core. The clock clamps forward to the load's
// completion time exactly as WriteOn clamps to its stall time (see
// WriteOn for the shared monotone-clock contract).
func (m *Machine) ReadOn(coreID int, addr uint64) (uint64, error) {
	if err := m.checkLive(); err != nil {
		return 0, err
	}
	m.clock++
	data, done := m.hier.Load(m.clock, coreID, mem.Addr(addr).Line())
	if done > m.clock {
		m.clock = done
	}
	return uint64(data), nil
}

// Advance moves the machine clock forward by n cycles (models compute
// between memory operations and lets asynchronous persists drain).
func (m *Machine) Advance(n uint64) {
	m.clock += n
	m.scheme.Tick(m.clock)
}

// CommitEpoch ends the current epoch. Under PiCL this is asynchronous
// (the ACS engine persists the epoch ACS-gap commits later); under the
// stop-the-world baselines it stalls until the flush drains.
func (m *Machine) CommitEpoch() error {
	if err := m.checkWritable(); err != nil {
		return err
	}
	if resume := m.scheme.EpochBoundary(m.clock); resume > m.clock {
		m.clock = resume
	}
	m.scheme.Tick(m.clock)
	return nil
}

// Drain blocks (advances the clock) until every outstanding NVM write is
// durable — a clean shutdown.
func (m *Machine) Drain() {
	if d := m.ctl.Drain(); d > m.clock {
		m.clock = d
	}
	m.clock++
	m.scheme.Tick(m.clock)
}

// Crash cuts power now: writes still queued in the memory controller are
// lost, caches are lost, and only NVM-durable state survives.
func (m *Machine) Crash() {
	m.CrashAt(m.clock)
}

// CrashAt cuts power at time t (>= the current clock progress is usual;
// earlier values crash "mid-flight" of already-issued writes).
func (m *Machine) CrashAt(t uint64) {
	m.scheme.CrashAt(t)
	m.crashed = true
}

// Sync forcefully makes every committed epoch durable before returning.
// Under PiCL this is the bulk-ACS extension (paper §IV-C): the current
// epoch is force-ended and one scan pass persists everything, releasing
// any buffered I/O writes; the scan visits only the LLC sets holding
// dirty lines. On a machine built with Open it costs one fsync, the
// commit's image write, which overwrites zero padding the image file
// was extended with ahead of it: recovery at the synced epoch needs no
// undo entry, so the undo log is not synced. Stop-the-world schemes
// simply commit and drain. Returns the number of cycles the sync cost.
// If the durable store's commit fails (after its bounded retry), Sync
// returns ErrBackend and the machine is degraded: the epoch it ended may
// or may not be on disk.
func (m *Machine) Sync() (uint64, error) {
	if err := m.checkWritable(); err != nil {
		return 0, err
	}
	start := m.clock
	type forcePersister interface{ ForcePersist(now uint64) uint64 }
	if fp, ok := m.scheme.(forcePersister); ok {
		if resume := fp.ForcePersist(m.clock); resume > m.clock {
			m.clock = resume
		}
		// A durable store whose commit failed degraded during it: the
		// epoch is not durable, and the caller must not act as if it were.
		if err := m.checkWritable(); err != nil {
			return 0, err
		}
	} else {
		if err := m.CommitEpoch(); err != nil {
			return 0, err
		}
		m.Drain()
	}
	return m.clock - start, nil
}

// QueueIO buffers an outward-facing I/O write issued now (paper §IV-C:
// "I/O writes must be buffered and delayed until the epochs that these
// I/O writes happened in have been fully persisted"). The tag is
// returned by ReleaseIO once its epoch is durable.
func (m *Machine) QueueIO(tag string) error {
	if err := m.checkWritable(); err != nil {
		return err
	}
	m.ioQueue = append(m.ioQueue, pendingIO{tag: tag, epoch: m.scheme.SystemEID()})
	return nil
}

// ReleaseIO returns the tags of buffered I/O writes whose epochs have
// persisted since the last call (in issue order). Call after
// CommitEpoch/Advance/Sync. On a machine built with Open an epoch has
// persisted only once the store's commit of it completed, so a degraded
// store releases nothing past its last commit. After a crash nothing
// further releases: whatever was still pending is gone with the power,
// which is precisely why it was never shown to the outside world.
func (m *Machine) ReleaseIO() []string {
	if m.crashed {
		return nil
	}
	m.scheme.Tick(m.clock)
	return m.releaseIO()
}

func (m *Machine) releaseIO() []string {
	persisted := m.scheme.PersistedEID()
	if m.durablePiCL != nil && m.durablePiCL.Durable() != nil { // built with Open, closed or not
		persisted = min(persisted, m.durablePiCL.Durable().Committed())
	}
	var out []string
	i := 0
	for i < len(m.ioQueue) && m.ioQueue[i].epoch.AtMost(persisted) {
		out = append(out, m.ioQueue[i].tag)
		i++
	}
	m.ioQueue = m.ioQueue[i:]
	return out
}

// PendingIO reports how many I/O writes are still held back.
func (m *Machine) PendingIO() int { return len(m.ioQueue) }

// Image is recovered memory content.
type Image struct{ img *mem.Image }

// Read returns the recovered content of the line containing addr.
func (im Image) Read(addr uint64) uint64 {
	return uint64(im.img.Read(mem.Addr(addr).Line()))
}

// Lines reports how many lines hold non-zero content.
func (im Image) Lines() int { return im.img.Len() }

// Clone returns a copy of the image that nothing else changes: the
// snapshot to take of the live baseline Recovered returns.
func (im Image) Clone() Image { return Image{img: im.img.Clone()} }

// Recover runs the OS crash-recovery procedure against durable state and
// returns the consistent memory image plus the epoch it corresponds to.
func (m *Machine) Recover() (Image, uint64, error) {
	img, eid, err := m.scheme.Recover()
	if err != nil {
		return Image{}, 0, err
	}
	return Image{img: img}, uint64(eid), nil
}

// RecoverTo rebuilds the memory image of a specific persisted epoch —
// point-in-time recovery over the multi-undo log. Available under the
// "picl" scheme when Config.RetainEpochs keeps enough log history; the
// single-checkpoint baselines cannot do this.
func (m *Machine) RecoverTo(epoch uint64) (Image, error) {
	type ptr interface {
		RecoverTo(mem.EpochID) (*mem.Image, error)
	}
	p, ok := m.scheme.(ptr)
	if !ok {
		return Image{}, fmt.Errorf("%w: scheme %q", ErrNoPointInTime, m.scheme.Name())
	}
	img, err := p.RecoverTo(mem.EpochID(epoch))
	if err != nil {
		return Image{}, err
	}
	return Image{img: img}, nil
}

// RawMemory returns the raw NVM content with no recovery applied. After
// a crash this is what actually survived: for an unprotected system
// ("ideal") it is generally inconsistent — the paper's §I motivation.
func (m *Machine) RawMemory() Image {
	type durable interface{ DurableImage() *mem.Image }
	return Image{img: m.scheme.(durable).DurableImage()}
}

// WriteTrace writes every event the machine's recorder currently holds
// as a Chrome trace_event JSON document — load it at ui.perfetto.dev or
// chrome://tracing. Events carry simulated-cycle timestamps, so the same
// workload always produces the same bytes. Returns ErrNoTrace (wrapped)
// unless the machine was built WithTracing.
func (m *Machine) WriteTrace(w io.Writer) error {
	if m.ring == nil {
		return fmt.Errorf("%w; build the machine with WithTracing", ErrNoTrace)
	}
	return obs.WriteChromeTrace(w, m.ring.Events())
}

// TraceDropped reports how many events the recorder has overwritten
// (zero until the WithTracing capacity is exceeded).
func (m *Machine) TraceDropped() uint64 {
	if m.ring == nil {
		return 0
	}
	return m.ring.Dropped()
}

// Stats summarizes machine activity.
type Stats struct {
	Cycles         uint64
	Commits        uint64
	PersistedEpoch uint64
	CurrentEpoch   uint64
	NVM            nvm.Stats
	Scheme         string
	// Counters holds the scheme's internal event counters (undo-buffer
	// flushes, ACS write-backs, bloom filter clears, ...); names vary by
	// scheme and appear in PromText with a scheme_ prefix.
	Counters map[string]uint64
}

// Stats returns a snapshot of the machine's counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Cycles:         m.clock,
		Commits:        m.scheme.Commits(),
		PersistedEpoch: uint64(m.scheme.PersistedEID()),
		CurrentEpoch:   uint64(m.scheme.SystemEID()),
		NVM:            m.ctl.Stats(),
		Scheme:         m.scheme.Name(),
		Counters:       m.scheme.Counters().Snapshot(),
	}
}

// PromText renders the snapshot in the Prometheus text exposition format
// (picl_-prefixed counter samples, sorted, deterministic bytes) for
// scraping by external harnesses.
func (s Stats) PromText() string {
	metrics := map[string]uint64{
		"cycles":              s.Cycles,
		"commits":             s.Commits,
		"current_epoch":       s.CurrentEpoch,
		"persisted_epoch":     s.PersistedEpoch,
		"nvm_busy_cycles":     s.NVM.BusyCycles,
		"nvm_row_activations": s.NVM.RowActivations,
		"nvm_queue_stalls":    s.NVM.StallEvents,
		"nvm_dram_hits":       s.NVM.DRAMHits,
	}
	for _, c := range nvm.Categories() {
		metrics["nvm_ops_"+c.String()] = s.NVM.Ops(c)
		metrics["nvm_bytes_"+c.String()] = s.NVM.TotalBytes(c)
	}
	for k, v := range s.Counters {
		metrics["scheme_"+k] = v
	}
	return stats.PromText("picl_", metrics)
}

// String renders a short human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf("scheme=%s cycles=%d commits=%d epoch=%d persisted=%d nvm[wb=%d seq=%d rand=%d reads=%d]",
		s.Scheme, s.Cycles, s.Commits, s.CurrentEpoch, s.PersistedEpoch,
		s.NVM.Ops(nvm.CatWriteback), s.NVM.Ops(nvm.CatSequential),
		s.NVM.Ops(nvm.CatRandom), s.NVM.Ops(nvm.CatDemand))
}

// nvmCategoryJSON is one Fig. 12 accounting category in Stats JSON.
type nvmCategoryJSON struct {
	Ops   uint64 `json:"ops"`
	Bytes uint64 `json:"bytes"`
}

// MarshalJSON renders the snapshot for external harnesses, with the NVM
// traffic broken down per Fig. 12 category (demand / writeback / random
// / sequential ops and bytes) so consumers need no knowledge of the
// internal operation taxonomy.
func (s Stats) MarshalJSON() ([]byte, error) {
	cats := make(map[string]nvmCategoryJSON, 4)
	for _, c := range nvm.Categories() {
		cats[c.String()] = nvmCategoryJSON{Ops: s.NVM.Ops(c), Bytes: s.NVM.TotalBytes(c)}
	}
	return json.Marshal(struct {
		Scheme         string                     `json:"scheme"`
		Cycles         uint64                     `json:"cycles"`
		Commits        uint64                     `json:"commits"`
		CurrentEpoch   uint64                     `json:"current_epoch"`
		PersistedEpoch uint64                     `json:"persisted_epoch"`
		NVM            map[string]nvmCategoryJSON `json:"nvm"`
		BusyCycles     uint64                     `json:"nvm_busy_cycles"`
		RowActivations uint64                     `json:"nvm_row_activations"`
		StallEvents    uint64                     `json:"nvm_stall_events"`
	}{
		Scheme:         s.Scheme,
		Cycles:         s.Cycles,
		Commits:        s.Commits,
		CurrentEpoch:   s.CurrentEpoch,
		PersistedEpoch: s.PersistedEpoch,
		NVM:            cats,
		BusyCycles:     s.NVM.BusyCycles,
		RowActivations: s.NVM.RowActivations,
		StallEvents:    s.NVM.StallEvents,
	})
}
