// Package obs is the engine's structured event-tracing layer: a typed,
// deterministic stream of simulation events (epoch lifecycle, undo-buffer
// activity, ACS scans, NVM operations, cache evictions) alongside the
// aggregate counters of internal/stats. Aggregates answer "how much";
// the event stream answers "when" — which is what exposes ordering
// pathologies like an ACS scan overlapping a burst of undo flushes.
//
// Design rules (enforced by tests and by the picl-lint determinism
// analyzer, whose scope includes this package):
//
//   - Events carry simulated time only (core cycles). No wall-clock, no
//     PRNG: the stream from a given run is byte-for-byte reproducible, at
//     any worker-pool width above it.
//   - The Tracer interface is nil-safe by convention: every emit site in
//     the engine is guarded with `if tr != nil`, so a disabled tracer
//     costs one predictable branch and no allocation (internal/perf's
//     allocation-rate test gates the store/submit hot paths).
//   - Event is a flat value struct. Recording one is a bounds check and a
//     56-byte copy into a preallocated ring — no per-event allocation.
package obs

import "picl/internal/mem"

// Kind identifies the event type. The taxonomy mirrors the engine's
// layers: epoch lifecycle (core), undo machinery (core), ACS (core),
// scheduler (sim), NVM device (nvm), and cache evictions (cache).
type Kind uint8

const (
	// KindNone is the zero Kind; never emitted.
	KindNone Kind = iota

	// Epoch lifecycle (internal/core).

	// KindEpochOpen marks a new epoch starting execution. Epoch = the
	// epoch that opened.
	KindEpochOpen
	// KindEpochCommit marks an epoch commit. Epoch = the committed
	// epoch; A = 1 for a forced commit (bulk ACS), 0 for a nominal one.
	KindEpochCommit
	// KindEpochPersist marks an epoch becoming durable (its persist
	// marker's write completed). Time is the completion time; Epoch = the
	// now-persisted epoch.
	KindEpochPersist
	// KindTagStall marks execution stalling because the 4-bit EID tag
	// space would be exhausted. Dur = cycles stalled.
	KindTagStall

	// Undo machinery (internal/core).

	// KindUndoInsert marks an undo entry staged in the on-chip buffer.
	// Addr = the logged line; Epoch = ValidFrom; A = ValidTill.
	KindUndoInsert
	// KindUndoCoalesce marks a store whose undo entry was coalesced away
	// (same-epoch store to an already-modified line). Addr = the line.
	KindUndoCoalesce
	// KindBufFlush marks the undo buffer flushing to the log as one
	// sequential block write. A = entries flushed; B = bytes.
	KindBufFlush
	// KindBloomClear marks the eviction-dependency bloom filter clearing
	// (it clears with every buffer flush).
	KindBloomClear
	// KindDepFlush marks an eviction that hit the bloom filter and forced
	// the undo buffer out first (write-ahead ordering). Addr = the line.
	KindDepFlush
	// KindEvictWB marks the scheme accepting a dirty LLC eviction as an
	// in-place NVM write. Addr = the line; Epoch = the line's EID tag.
	KindEvictWB

	// ACS engine (internal/core).

	// KindACSStart marks an asynchronous cache scan starting. Epoch = the
	// scan's target (every dirty line at or below it is written back).
	KindACSStart
	// KindACSDone marks the scan's writeback pass completing and the
	// persist marker being issued. Epoch = target; A = lines written
	// back; Dur = marker completion time minus scan start.
	KindACSDone
	// KindBulkACS marks a forced bulk scan (ForcePersist / Sync): one
	// pass covering every committed epoch. Epoch = the covered epoch.
	KindBulkACS
	// KindRecover marks crash recovery replaying the undo log. A =
	// entries applied; B = blocks scanned; Epoch = the recovered epoch.
	KindRecover

	// Scheduler (internal/sim).

	// KindEpochInt marks the epoch-boundary interrupt: all cores
	// synchronize, the scheme commits, execution resumes. Dur = the
	// stop-the-world stall (zero for PiCL's asynchronous commit).
	KindEpochInt
	// KindQuantum marks a scheduler quantum boundary (the engine
	// re-derived its lagging-core schedule). A = instructions retired so
	// far. High-volume; mask it out when tracing long runs.
	KindQuantum

	// NVM device (internal/nvm).

	// KindNVMOp marks a memory request: Time = issue, Dur = completion
	// minus issue (queueing + service), A = the nvm.Op code, B = bytes.
	KindNVMOp
	// KindNVMQueueHigh marks a new write-queue high-water mark. A = the
	// depth reached.
	KindNVMQueueHigh
	// KindDRAMHit marks a demand read served by the memory-side DRAM
	// cache (row-buffer-fast path). A = the page id.
	KindDRAMHit
	// KindDRAMMiss marks a demand read missing the DRAM cache and going
	// to NVM. A = the page id.
	KindDRAMMiss

	// Cache hierarchy (internal/cache).

	// KindLLCEvict marks a dirty line leaving the LLC toward the
	// persistence backend — the eviction-driven log write trigger.
	// Addr = the line; Epoch = its EID tag.
	KindLLCEvict

	// Durable mirror (internal/core, internal/checkpoint).

	// KindMirrorRetry marks a failed durable mirror sync being retried
	// (bounded deterministic retry before the error goes sticky). A = the
	// retry attempt number, starting at 1.
	KindMirrorRetry
	// KindDegraded marks the first unrecoverable durable-mirror failure:
	// the machine enters read-only degraded mode, mirroring stops, and
	// the on-disk marker freezes at its last consistent value. Emitted at
	// most once per machine.
	KindDegraded

	// Experiment server (internal/serve). Unlike every kind above, these
	// are stamped in wall microseconds-as-cycles (µs since server start
	// x 2000, so the Chrome export's 2 GHz cycle->µs conversion renders
	// real time) — the serving daemon lives outside the simulated world
	// and outside the determinism contract.

	// KindServeRequest marks one /run cell served. A = HTTP status; B =
	// the serve.Source code (hit/computed/waited/peer); Dur = service
	// time.
	KindServeRequest
	// KindServeClaim marks claim-protocol activity on a cell. A = 1 for
	// a claim acquired, 2 for a wait on another replica's claim, 3 for a
	// stale lease stolen, 4 for a claim abandoned by a cancelled client.
	KindServeClaim
	// KindServeStore marks result-store activity. A = 1 for an append,
	// 2 for a cross-process refresh that found new records; B = bytes
	// appended or records discovered.
	KindServeStore
	// KindServeDegraded marks the result store going read-only: persist
	// and claim traffic stops, warm results keep serving. At most once
	// per server.
	KindServeDegraded

	numKinds
)

var kindNames = [numKinds]string{
	"none",
	"epoch_open", "epoch_commit", "epoch_persist", "tag_stall",
	"undo_insert", "undo_coalesce", "buf_flush", "bloom_clear", "dep_flush", "evict_wb",
	"acs_start", "acs_done", "bulk_acs", "recover",
	"epoch_interrupt", "quantum",
	"nvm_op", "nvm_queue_high", "dram_hit", "dram_miss",
	"llc_evict",
	"mirror_retry", "degraded",
	"serve_request", "serve_claim", "serve_store", "serve_degraded",
}

func (k Kind) String() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// NumKinds reports the number of defined event kinds (exported for
// exhaustiveness tests).
func NumKinds() int { return int(numKinds) }

// Event is one engine event. It is a flat value type: emitting one costs
// a struct copy, never an allocation. Time and Dur are in core cycles of
// simulated time (2 GHz — see nvm.CyclesPerNS); wall-clock never appears
// here, which is what keeps traces byte-identical across -j widths.
type Event struct {
	Kind  Kind
	Time  uint64
	Dur   uint64
	Epoch mem.EpochID
	Addr  mem.LineAddr
	A, B  uint64
}

// Tracer receives engine events. Implementations must be cheap: emit
// sites sit on simulation hot paths (every store, every NVM submit).
// Engine components treat a nil Tracer as disabled — the guard is at the
// emit site, so implementations never see a nil receiver.
//
// A Tracer is owned by exactly one Machine and is called from that
// machine's goroutine only; implementations need no locking (the engine's
// concurrency contract parallelizes across Machines, never within one).
type Tracer interface {
	Event(ev Event)
}

// Emit forwards ev to t if tracing is enabled. It is the nil-safe helper
// for cold emit sites; hot paths inline the nil check themselves to keep
// the Event construction off the disabled path.
func Emit(t Tracer, ev Event) {
	if t != nil {
		t.Event(ev)
	}
}

// Mask selects event kinds. The zero Mask means "record everything".
type Mask uint64

// MaskOf builds a mask accepting exactly the given kinds.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Accepts reports whether kind k passes the mask.
func (m Mask) Accepts(k Kind) bool { return m == 0 || m&(1<<k) != 0 }

// Ring is a fixed-capacity event recorder: the last Cap events survive,
// older ones are overwritten, and Dropped counts the overwritten ones.
// Recording is allocation-free after construction. A Ring belongs to one
// Machine (see the Tracer ownership contract) and needs no locking.
type Ring struct {
	mask Mask
	buf  []Event
	n    uint64 // events accepted (monotone)
}

// DefaultRingCap is the capacity NewRing uses for capacity <= 0: enough
// to hold every epoch/ACS/flush event of a quickstart-sized run with
// room for the high-volume per-op kinds.
const DefaultRingCap = 1 << 16

// NewRing returns a recorder keeping the last capacity events
// (DefaultRingCap if capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring{buf: make([]Event, capacity)}
}

// SetMask restricts recording to the kinds in m (zero = all kinds).
func (r *Ring) SetMask(m Mask) { r.mask = m }

// Event implements Tracer.
func (r *Ring) Event(ev Event) {
	if !r.mask.Accepts(ev.Kind) {
		return
	}
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
}

// Cap reports the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len reports how many events are currently held (min(accepted, Cap)).
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped reports how many accepted events were overwritten.
func (r *Ring) Dropped() uint64 {
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the recorded events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, r.Len())
	if r.n <= uint64(len(r.buf)) {
		copy(out, r.buf[:r.n])
		return out
	}
	head := int(r.n % uint64(len(r.buf))) // oldest surviving event
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

// CommitPersistGaps extracts the commit→persist latency distribution from
// an event stream: for every epoch whose KindEpochCommit and
// KindEpochPersist events both survive in the stream, the gap in cycles
// between the two. Persist events arrive in epoch order (the pending
// queue is FIFO), so the returned slice is ordered by epoch. Only keyed
// map lookups are used — no map iteration — so the result is
// deterministic for a deterministic stream.
func CommitPersistGaps(events []Event) []uint64 {
	commits := make(map[mem.EpochID]uint64)
	var gaps []uint64
	for _, ev := range events {
		switch ev.Kind {
		case KindEpochCommit:
			commits[ev.Epoch] = ev.Time
		case KindEpochPersist:
			if at, ok := commits[ev.Epoch]; ok && ev.Time >= at {
				gaps = append(gaps, ev.Time-at)
				delete(commits, ev.Epoch)
			}
		}
	}
	return gaps
}
