// Package nvm models the byte-addressable nonvolatile main-memory device
// and its memory controller as evaluated in the PiCL paper (Table IV and
// §II-C): a 64-bit DDR-like channel (12.8 GB/s), an FCFS closed-page
// controller, and row-buffer-dominated access cost — 128 ns per row read
// and 368 ns per row write, with a 2 KB row buffer. Under the closed-page
// policy every isolated 64 B access pays a full row activation, while a
// streamed block write amortizes one activation over a whole row; this
// asymmetry (more than an order of magnitude) is exactly what the paper's
// schemes compete on, so the model reproduces it directly.
//
// The controller is a single-server FCFS queue over discrete request
// completion times. It exposes queue depth so the simulation engine can
// apply backpressure (a core stalls when the write queue is full), and a
// drain horizon so synchronous cache flushes can stop the world until all
// their writes are durable.
package nvm

import (
	"fmt"

	"picl/internal/obs"
)

// Op classifies a memory request both for timing and for the paper's
// Fig. 12 I/O-operation accounting (sequential logging / random logging /
// write-backs, normalized to ideal-NVM write-back traffic).
type Op int

const (
	// OpDemandRead is a demand line fill (row-miss read). Present in every
	// scheme including Ideal; excluded from Fig. 12 categories.
	OpDemandRead Op = iota
	// OpWriteback is an in-place 64 B write of evicted or flushed dirty
	// data to its canonical address. Fig. 12 category "Writebacks".
	OpWriteback
	// OpRandLogWrite is a 64 B logging write with no spatial locality
	// (journal append, redo-buffer fill, FRM undo entry that could not be
	// coalesced, persist markers). Fig. 12 category "Random".
	OpRandLogWrite
	// OpRandLogRead is a 64 B logging-induced read (FRM's read of pre-image
	// data in its read-log-modify sequence, journal drain reads, redo
	// snoop reads). Fig. 12 category "Random".
	OpRandLogRead
	// OpSeqBlockWrite is a streamed multi-row block write from the chip
	// (PiCL's 2 KB undo-buffer flush). One sequential I/O operation
	// regardless of byte count (paper: "reading a 4KB memory block counts
	// as one operation"). Fig. 12 category "Sequential".
	OpSeqBlockWrite
	// OpPageCopy is an intra-NVM page copy performed locally inside the
	// memory module (Shadow-Paging CoW and page write-back — the paper's
	// locality optimization — and ThyNVM page-granularity drains). Costs
	// row reads + row writes but no channel transfer; one sequential op.
	OpPageCopy
	numOps
)

var opNames = [numOps]string{
	"demand_read", "writeback", "rand_log_write", "rand_log_read",
	"seq_block_write", "page_copy",
}

func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Category is the Fig. 12 grouping of an Op.
type Category int

const (
	CatDemand Category = iota // demand fills; not charged to any scheme
	CatWriteback
	CatRandom
	CatSequential
	numCategories
)

var categoryNames = [numCategories]string{"demand", "writeback", "random", "sequential"}

func (c Category) String() string {
	if c < 0 || c >= numCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Categories lists every Fig. 12 accounting category.
func Categories() []Category {
	return []Category{CatDemand, CatWriteback, CatRandom, CatSequential}
}

// Category returns the Fig. 12 category of the operation.
func (o Op) Category() Category {
	switch o {
	case OpDemandRead:
		return CatDemand
	case OpWriteback:
		return CatWriteback
	case OpRandLogWrite, OpRandLogRead:
		return CatRandom
	default:
		return CatSequential
	}
}

// Config holds device timing in core cycles (the simulator runs a 2 GHz
// clock, 0.5 ns per cycle).
type Config struct {
	Name string
	// RowReadCycles is the cost of activating and reading one row
	// (closed-page row miss).
	RowReadCycles uint64
	// RowWriteCycles is the cost of writing one row.
	RowWriteCycles uint64
	// RowBytes is the row-buffer size; streamed writes amortize one
	// activation per row.
	RowBytes int
	// TransferNum/TransferDen give channel transfer cycles per byte as a
	// rational (12.8 GB/s at 2 GHz is 6.4 B/cycle, i.e. 5/32 cycles/B).
	TransferNum, TransferDen uint64
	// QueueLimit is the controller queue capacity; submissions beyond it
	// must stall the issuer (backpressure).
	QueueLimit int
	// DRAMCachePages enables a memory-side write-through DRAM cache of
	// that many 4 KB pages (paper §IV-C "DRAM Buffer Extensions": "some
	// systems include a layer of DRAM memory-side caching to cache hot
	// memory regions ... With write-through DRAM caches, no modifications
	// are needed"). Reads hitting a cached page are served at
	// DRAMHitCycles without occupying the NVM channel; writes still go to
	// NVM (write-through), so persistence and crash semantics are
	// unchanged.
	DRAMCachePages int
	// DRAMHitCycles is the cached-read latency (default 50 ns).
	DRAMHitCycles uint64
	// Banks enables bank-level parallelism (default 1, the paper's
	// single-resource FCFS model). Requests spread across banks
	// round-robin (an approximation of address interleaving); the data
	// channel remains shared. Timing-only: functional crash tracking
	// requires the FCFS completion order of Banks == 1.
	Banks int
	// ReadPriority lets demand/log reads bypass queued writes, waiting at
	// most one non-preemptible in-service write (an idealized FR-FCFS-
	// style scheduler under the closed-page policy). Timing-only, like
	// Banks > 1.
	ReadPriority bool
}

// Reordering reports whether the configuration can complete writes out
// of submission order (which functional durability tracking forbids).
func (c Config) Reordering() bool { return c.Banks > 1 || c.ReadPriority }

// WithDRAMCache returns a copy of cfg with a write-through memory-side
// DRAM cache of the given page count.
func (c Config) WithDRAMCache(pages int) Config {
	c.Name = fmt.Sprintf("%s+dram%dp", c.Name, pages)
	c.DRAMCachePages = pages
	if c.DRAMHitCycles == 0 {
		c.DRAMHitCycles = 50 * CyclesPerNS
	}
	return c
}

// CyclesPerNS converts the paper's nanosecond latencies at the 2 GHz core
// clock of Table IV.
const CyclesPerNS = 2

// DefaultConfig is the paper's NVM: 128 ns row read, 368 ns row write,
// 2 KB row buffer, 12.8 GB/s channel.
func DefaultConfig() Config {
	return Config{
		Name:           "nvm",
		RowReadCycles:  128 * CyclesPerNS,
		RowWriteCycles: 368 * CyclesPerNS,
		RowBytes:       2048,
		TransferNum:    5,
		TransferDen:    32,
		QueueLimit:     64,
	}
}

// ScaledWriteConfig returns the default NVM with the row-write latency
// scaled by factor/10 (used by the §VI-E write-latency sensitivity sweep;
// factor 10 = 1.0x, 40 = 4.0x).
func ScaledWriteConfig(factorTenths int) Config {
	c := DefaultConfig()
	c.Name = fmt.Sprintf("nvm-w%.1fx", float64(factorTenths)/10)
	c.RowWriteCycles = c.RowWriteCycles * uint64(factorTenths) / 10
	return c
}

// DRAMConfig models a conventional DRAM device (used by the DRAM-buffer
// discussion in §IV-C and as a sanity baseline): symmetric ~50 ns row
// cost and the same channel.
func DRAMConfig() Config {
	return Config{
		Name:           "dram",
		RowReadCycles:  50 * CyclesPerNS,
		RowWriteCycles: 50 * CyclesPerNS,
		RowBytes:       2048,
		TransferNum:    5,
		TransferDen:    32,
		QueueLimit:     64,
	}
}

// Stats aggregates per-op counts, bytes and timing for one controller.
type Stats struct {
	Count [numOps]uint64
	Bytes [numOps]uint64
	// BusyCycles is total channel occupancy.
	BusyCycles uint64
	// StallEvents counts submissions that found the queue full.
	StallEvents uint64
	// DRAMHits counts demand reads served by the memory-side DRAM cache.
	DRAMHits uint64
	// RowActivations counts row openings (reads+writes), the device wear
	// and power proxy.
	RowActivations uint64
}

// Ops returns the total operation count for a Fig. 12 category.
func (s Stats) Ops(cat Category) uint64 {
	var total uint64
	for op := Op(0); op < numOps; op++ {
		if op.Category() == cat {
			total += s.Count[op]
		}
	}
	return total
}

// Merge folds another bag into s. The benchmark's Fig. 9 workload sums
// the bags of every cell it ran with it; every count in other was
// already traced by the controller that produced it, so merging is pure
// aggregation (addition commutes — the total is independent of the
// order cells finish in).
func (s *Stats) Merge(other Stats) {
	for op := Op(0); op < numOps; op++ {
		s.Count[op] += other.Count[op]
		s.Bytes[op] += other.Bytes[op]
	}
	s.BusyCycles += other.BusyCycles
	s.StallEvents += other.StallEvents
	s.DRAMHits += other.DRAMHits
	s.RowActivations += other.RowActivations
}

// TotalBytes returns bytes moved for a category.
func (s Stats) TotalBytes(cat Category) uint64 {
	var total uint64
	for op := Op(0); op < numOps; op++ {
		if op.Category() == cat {
			total += s.Bytes[op]
		}
	}
	return total
}

// Controller is the FCFS closed-page memory controller. It is not
// goroutine-safe; the simulation engine is single-threaded by design
// (deterministic replay matters more than simulator parallelism here,
// and separate benchmark runs parallelize at a higher level).
type Controller struct {
	cfg   Config
	stats Stats
	// tr receives per-request device events when tracing is enabled; nil
	// (the default) costs one branch per submission and no allocations.
	tr obs.Tracer
	// qHigh is the write-queue depth high-water mark; crossing it emits
	// one obs event, so queue-pressure episodes are visible in traces
	// without a per-request flood.
	qHigh int

	busyUntil uint64
	// banks holds per-bank busy-until horizons; channel is the shared
	// data-bus horizon. rr distributes address-less requests round-robin.
	banks []uint64
	// bankMask is len(banks)-1 when the bank count is a power of two
	// (the common configuration), letting the per-request round-robin
	// pick replace its integer divide with a mask; -1 otherwise.
	bankMask int
	channel  uint64
	rr       uint64
	readBusy uint64
	// done holds completion times of in-flight write requests (kept
	// sorted; nearly FIFO); length after pruning is the write-queue
	// depth used for backpressure.
	done []uint64
	head int

	// dramCache tracks resident pages (page id -> slot LRU stamp) for the
	// optional memory-side read cache.
	dramCache map[uint64]uint64
	dramClock uint64
}

// NewController returns a controller with the given device config.
func NewController(cfg Config) *Controller {
	if cfg.RowBytes <= 0 {
		cfg.RowBytes = 2048
	}
	if cfg.TransferDen == 0 {
		cfg.TransferNum, cfg.TransferDen = 5, 32
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.DRAMCachePages > 0 && cfg.DRAMHitCycles == 0 {
		cfg.DRAMHitCycles = 50 * CyclesPerNS
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	c := &Controller{cfg: cfg, banks: make([]uint64, cfg.Banks), bankMask: -1}
	if cfg.Banks&(cfg.Banks-1) == 0 {
		c.bankMask = cfg.Banks - 1
	}
	if cfg.DRAMCachePages > 0 {
		c.dramCache = make(map[uint64]uint64, cfg.DRAMCachePages)
	}
	return c
}

// SubmitRead issues a demand line read for the given page id. With the
// memory-side DRAM cache enabled, a resident page serves the read at
// DRAM latency without occupying the NVM channel; a miss goes to NVM and
// installs the page (read-allocate, LRU). Without the cache this is
// Submit(OpDemandRead).
func (c *Controller) SubmitRead(now uint64, page uint64) uint64 {
	if c.dramCache == nil {
		return c.Submit(now, OpDemandRead, 64)
	}
	c.dramClock++
	if _, ok := c.dramCache[page]; ok {
		c.dramCache[page] = c.dramClock
		c.stats.DRAMHits++
		c.stats.Count[OpDemandRead]++
		c.stats.Bytes[OpDemandRead] += 64
		if c.tr != nil {
			c.tr.Event(obs.Event{Kind: obs.KindDRAMHit, Time: now, Dur: c.cfg.DRAMHitCycles, A: page})
		}
		return now + c.cfg.DRAMHitCycles
	}
	if c.tr != nil {
		c.tr.Event(obs.Event{Kind: obs.KindDRAMMiss, Time: now, A: page})
	}
	done := c.Submit(now, OpDemandRead, 64)
	if len(c.dramCache) >= c.cfg.DRAMCachePages {
		var victim uint64
		oldest := ^uint64(0)
		//lint:ignore determinism argmin over unique dramClock stamps, with a page-id tie-break, picks the same victim in any iteration order
		for p, stamp := range c.dramCache {
			if stamp < oldest || (stamp == oldest && p < victim) {
				oldest, victim = stamp, p
			}
		}
		delete(c.dramCache, victim)
	}
	c.dramCache[page] = c.dramClock
	return done
}

// SetTracer installs an event tracer (nil disables tracing).
func (c *Controller) SetTracer(t obs.Tracer) { c.tr = t }

// Config returns the controller's device configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats clears statistics without touching timing state.
func (c *Controller) ResetStats() { c.stats = Stats{} }

func (c *Controller) transfer(bytes int) uint64 {
	return uint64(bytes) * c.cfg.TransferNum / c.cfg.TransferDen
}

func (c *Controller) rows(bytes int) uint64 {
	return uint64((bytes + c.cfg.RowBytes - 1) / c.cfg.RowBytes)
}

// service returns bank occupancy, channel-transfer cycles, and row
// activations for op.
func (c *Controller) service(op Op, bytes int) (rowCycles, transferCycles, activations uint64) {
	switch op {
	case OpDemandRead, OpRandLogRead:
		return c.cfg.RowReadCycles, c.transfer(bytes), 1
	case OpWriteback, OpRandLogWrite:
		return c.cfg.RowWriteCycles, c.transfer(bytes), 1
	case OpSeqBlockWrite:
		n := c.rows(bytes)
		// One activation per row, data streamed over the channel.
		return n * c.cfg.RowWriteCycles, c.transfer(bytes), n
	case OpPageCopy:
		n := c.rows(bytes)
		// Internal copy: read rows + write rows, no channel transfer.
		return n * (c.cfg.RowReadCycles + c.cfg.RowWriteCycles), 0, 2 * n
	default:
		panic(fmt.Sprintf("nvm: unknown op %d", int(op)))
	}
}

// isRead reports whether an op is latency-critical read traffic.
func isRead(op Op) bool { return op == OpDemandRead || op == OpRandLogRead }

// prune discards completed requests from the in-flight window.
func (c *Controller) prune(now uint64) {
	for c.head < len(c.done) && c.done[c.head] <= now {
		c.head++
	}
	if c.head > 0 && (c.head == len(c.done) || c.head > 4096) {
		c.done = append(c.done[:0], c.done[c.head:]...)
		c.head = 0
	}
}

// QueueLen reports in-flight requests at time now.
func (c *Controller) QueueLen(now uint64) int {
	c.prune(now)
	return len(c.done) - c.head
}

// Full reports whether a new submission at time now would exceed the
// queue capacity; the issuer should stall until NextFree(now).
func (c *Controller) Full(now uint64) bool {
	return c.QueueLen(now) >= c.cfg.QueueLimit
}

// NextFree returns the earliest time a queue slot opens, assuming the
// queue is full at now. If not full, it returns now.
func (c *Controller) NextFree(now uint64) uint64 {
	c.prune(now)
	depth := len(c.done) - c.head
	if depth < c.cfg.QueueLimit {
		return now
	}
	// The oldest in-flight request completes first.
	idx := c.head + depth - c.cfg.QueueLimit
	return c.done[idx]
}

// Submit enqueues a request at time now and returns its completion time.
// The caller is responsible for backpressure: if Full(now), it should
// advance its clock to NextFree(now) before submitting (the engine counts
// that as a queue stall). Submit itself always accepts to keep the model
// deadlock-free, but records a StallEvent if the write queue was over
// limit. Reads do not occupy write-queue slots.
func (c *Controller) Submit(now uint64, op Op, bytes int) uint64 {
	read := isRead(op)
	if !read {
		c.prune(now)
		if len(c.done)-c.head >= c.cfg.QueueLimit {
			c.stats.StallEvents++
		}
	}
	rowCyc, xferCyc, acts := c.service(op, bytes)

	// Bank selection: round-robin stands in for address interleaving
	// (requests carry no addresses; conflicts on one line are already
	// serialized by the cache hierarchy above).
	var b int
	if c.bankMask >= 0 {
		b = int(c.rr) & c.bankMask
	} else {
		b = int(c.rr) % len(c.banks)
	}
	c.rr++

	var finish uint64
	if read && c.cfg.ReadPriority {
		// Idealized read-priority scheduling: a read waits behind prior
		// reads and at most one non-preemptible in-service write row.
		start := now
		if c.readBusy > start {
			start = c.readBusy
		}
		if c.banks[b] > start {
			blocked := start + c.cfg.RowWriteCycles
			if c.banks[b] < blocked {
				blocked = c.banks[b]
			}
			start = blocked
		}
		finish = start + rowCyc + xferCyc
		c.readBusy = finish
		if finish > c.banks[b] {
			c.banks[b] = finish
		}
		if finish > c.busyUntil {
			c.busyUntil = finish
		}
	} else {
		// Bank occupancy for the row activation(s), then the shared
		// channel for the data transfer.
		start := now
		if c.banks[b] > start {
			start = c.banks[b]
		}
		rowDone := start + rowCyc
		chStart := rowDone
		if c.channel > chStart {
			chStart = c.channel
		}
		finish = chStart + xferCyc
		c.banks[b] = finish
		c.channel = finish
		if finish > c.busyUntil {
			c.busyUntil = finish
		}
	}
	if !read {
		c.enqueueDone(finish)
	}

	c.stats.Count[op]++
	c.stats.Bytes[op] += uint64(bytes)
	c.stats.BusyCycles += rowCyc + xferCyc
	c.stats.RowActivations += acts
	if c.tr != nil {
		// One complete span per request: issue at now, retire at finish
		// (queueing plus service — the latency the issuer observed).
		c.tr.Event(obs.Event{Kind: obs.KindNVMOp, Time: now, Dur: finish - now,
			A: uint64(op), B: uint64(bytes)})
		if !read {
			if depth := len(c.done) - c.head; depth > c.qHigh {
				c.qHigh = depth
				c.tr.Event(obs.Event{Kind: obs.KindNVMQueueHigh, Time: now, A: uint64(depth)})
			}
		}
	}
	return finish
}

// enqueueDone inserts a write completion keeping the queue sorted (it is
// nearly FIFO; multi-bank runs occasionally complete out of order).
func (c *Controller) enqueueDone(finish uint64) {
	c.done = append(c.done, finish)
	for i := len(c.done) - 1; i > c.head && c.done[i] < c.done[i-1]; i-- {
		c.done[i], c.done[i-1] = c.done[i-1], c.done[i]
	}
}

// Drain returns the time at which every currently queued request is
// complete (the stop-the-world horizon for a synchronous cache flush).
func (c *Controller) Drain() uint64 { return c.busyUntil }

// BusyUntil is the time the channel next goes idle.
func (c *Controller) BusyUntil() uint64 { return c.busyUntil }
