package cache

import (
	"fmt"
	"math/bits"

	"picl/internal/mem"
	"picl/internal/obs"
)

// Backend is the persistent-memory subsystem below the LLC. Each
// checkpointing scheme implements it: Ideal writes in place, redo schemes
// divert evictions into a redo area, FRM performs read-log-modify, and
// PiCL checks its undo buffer's bloom filter before the in-place write.
type Backend interface {
	// Fill reads line l for a demand miss at time now, returning the
	// current data and the completion time (the load's block-until time).
	Fill(now uint64, l mem.LineAddr) (mem.Word, uint64)
	// EvictDirty accepts a dirty line leaving the LLC at time now. The
	// write itself is asynchronous; the return value is the time the
	// issuing core must stall until (now if no backpressure).
	EvictDirty(now uint64, l mem.LineAddr, data mem.Word, eid mem.EpochID) uint64
}

// StoreObserver sees every store before it modifies the cache, with the
// pre-store contents — the paper's undo hook (Figs. 7/8). It returns the
// EID to tag the line with (SystemEID) and a stall-until time (now if the
// observation is free; PiCL stalls only when its undo-buffer flush hits
// controller backpressure).
type StoreObserver interface {
	OnStore(now uint64, l mem.LineAddr, old mem.Word, oldEID mem.EpochID, wasModified bool) (newEID mem.EpochID, stallUntil uint64)
}

// DirtyLine is one flushed line: address, freshest data, and its EID tag.
type DirtyLine struct {
	Addr mem.LineAddr
	Data mem.Word
	EID  mem.EpochID
}

// HierarchyConfig describes the full cache hierarchy. L1 and L2 are
// per-core; LLC.Size is the total shared capacity.
type HierarchyConfig struct {
	Cores int
	L1    Config
	L2    Config
	LLC   Config
}

// DefaultHierarchyConfig returns the paper's Table IV system: 32 KB 4-way
// single-cycle L1, 256 KB 8-way 4-cycle L2, and 2 MB-per-core 8-way
// 30-cycle shared LLC.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1:    Config{Name: "l1", Size: 32 << 10, Ways: 4, Latency: 1},
		L2:    Config{Name: "l2", Size: 256 << 10, Ways: 8, Latency: 4},
		LLC:   Config{Name: "llc", Size: cores * (2 << 20), Ways: 8, Latency: 30},
	}
}

// Hierarchy is the multi-level cache system: private L1/L2 per core over
// a shared inclusive LLC. Each line's state — its data, EID and dirty
// bit — is one record, kept in its LLC way; inclusion gives every line a
// private level holds such a way. The private levels keep only tags,
// recency words and each line's LLC index (idx). So every dirty line in
// the system is a dirty LLC record, which is the property PiCL's ACS and
// the baselines' flushes rely on, and no copy ever needs reconciling.
//
// Every event a scheme sees is the one a model with a copy per level
// shows it: a line is dirty from its first store until its next fill or
// flush whichever level holds it, its freshest data and EID are those of
// its last store or of its fill, and no latency in the model depends on
// where the freshest copy would sit. A model that charged snoop latency,
// a non-inclusive LLC, or lines shared by several private holders at
// once would need per-level state back (DESIGN.md §8.6).
type Hierarchy struct {
	cfg      HierarchyConfig
	l1, l2   []*Cache
	llc      *Cache
	backend  Backend
	observer StoreObserver
	// tr receives eviction events when tracing is enabled; nil otherwise.
	tr obs.Tracer
}

// NewHierarchy builds the hierarchy. backend must be non-nil; observer
// may be nil (no store observation — used by unit tests).
func NewHierarchy(cfg HierarchyConfig, backend Backend, observer StoreObserver) *Hierarchy {
	if cfg.Cores <= 0 {
		panic("cache: hierarchy needs at least one core")
	}
	if backend == nil {
		panic("cache: hierarchy needs a backend")
	}
	h := &Hierarchy{cfg: cfg, backend: backend, observer: observer}
	for i := 0; i < cfg.Cores; i++ {
		l1cfg, l2cfg := cfg.L1, cfg.L2
		l1cfg.Name = fmt.Sprintf("l1.%d", i)
		l2cfg.Name = fmt.Sprintf("l2.%d", i)
		h.l1 = append(h.l1, newPrivate(l1cfg))
		h.l2 = append(h.l2, newPrivate(l2cfg))
	}
	h.llc = New(cfg.LLC)
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// LLC exposes the shared cache, which holds every line's record (the
// ACS engine scans its tag arrays).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// L1 and L2 expose per-core private caches for tests and statistics.
// They hold tags only: a LineRef into them carries no data, EID or
// dirty bit, which live in the line's LLC record.
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }
func (h *Hierarchy) L2(core int) *Cache { return h.l2[core] }

// SetTracer installs an event tracer (nil disables tracing).
func (h *Hierarchy) SetTracer(t obs.Tracer) { h.tr = t }

// setBitOf locates way i's state-word slot given the line address it
// holds: the set index and the way-mask bit (no division — the set falls
// out of the address).
func (c *Cache) setBitOf(l mem.LineAddr, i int) (int, uint64) {
	s := int(uint64(l) & c.setMask)
	return s, uint64(1) << uint(i-s*c.ways)
}

// installLLC inserts a clean, freshly filled line into the LLC for
// owner, processing the victim, and returns (plane index of the
// installed line, stall-until). Callers have always just missed in the
// LLC, so there is no tag scan: the slot comes straight from the state
// word (free way) or the recency word's last rank. The pick and the
// install share one state-word and one order-word load/store. The
// victim's record is read before the new line overwrites it: it is all
// the victim has. Its owner's private copies go (inclusion), and a
// dirty record goes to the backend.
func (h *Hierarchy) installLLC(now uint64, l mem.LineAddr, data mem.Word, owner int) (int, uint64) {
	llc := h.llc
	s := int(uint64(l) & llc.setMask)
	base := s * llc.ways
	w, o := llc.state[s], llc.order[s]
	var li int
	var v Line
	evict := false
	if free := w & llc.fullMask; free != llc.fullMask {
		li = base + bits.TrailingZeros64(^free)
	} else {
		slot := llc.lru(o)
		li = base + slot
		llc.stats.Evictions++
		v = Line{
			Addr:  mem.LineAddr(llc.tags[li] - 1),
			EID:   llc.eids[li],
			Data:  llc.data[li],
			Dirty: w>>(dShift+uint(slot))&1 != 0,
			Owner: llc.owner[li],
		}
		evict = true
	}
	llc.order[s] = toFront(o, li-base)
	llc.tags[li] = uint64(l) + 1
	llc.data[li] = data
	// Paper §IV-A: a line loaded from memory has no EID associated.
	llc.eids[li] = mem.NoEpoch
	bit := uint64(1) << uint(li-base)
	llc.state[s] = (w | bit) &^ (bit << dShift)
	stall := now
	if evict {
		// The new line must be resident and unowned before the backend
		// call: it can recurse into a forced flush that scans the LLC.
		llc.owner[li] = -1
		if v.Owner >= 0 {
			h.l1[v.Owner].drop(v.Addr)
			h.l2[v.Owner].drop(v.Addr)
		}
		if v.Dirty {
			if h.tr != nil {
				// The eviction-driven log-write trigger: a dirty line leaves
				// the LLC and the scheme below must make it crash-consistent.
				h.tr.Event(obs.Event{Kind: obs.KindLLCEvict, Time: now, Epoch: v.EID, Addr: v.Addr})
			}
			stall = max(now, h.backend.EvictDirty(now, v.Addr, v.Data, v.EID))
		}
	}
	llc.owner[li] = int8(owner)
	return li, stall
}

// installPrivate inserts line l, whose record is LLC way li, into the
// private level c (a core's L1 or L2) and returns the line it evicted
// (ok false when the set had a free way). The pick and the install
// share one state-word and one order-word load/store; a private victim
// has no state, so nothing of it is read but its tag.
func installPrivate(c *Cache, l mem.LineAddr, li int) (victim mem.LineAddr, vli int32, ok bool) {
	s := int(uint64(l) & c.setMask)
	base := s * c.ways
	w, o := c.state[s], c.order[s]
	var i int
	if free := w & c.fullMask; free != c.fullMask {
		i = base + bits.TrailingZeros64(^free)
	} else {
		i = base + c.lru(o)
		c.stats.Evictions++
		victim, vli, ok = mem.LineAddr(c.tags[i]-1), c.idx[i], true
	}
	c.order[s] = toFront(o, i-base)
	c.tags[i] = uint64(l) + 1
	c.idx[i] = int32(li)
	c.state[s] = w | 1<<uint(i-base)
	return victim, vli, ok
}

// fetch brings line l into core's L1 (and the levels above, maintaining
// inclusion) and returns the LLC plane index of its record, the
// hierarchy latency in cycles, the memory completion time (0 if no
// memory access), and a stall-until time from any eviction
// backpressure.
//
// Past the L1 MRU check, the LLC is probed first, untouched: the owner
// invariant (every valid L1 or L2 line of core c has an LLC copy owned
// by c; see CheckOwnership) means a line the LLC misses, or holds for
// another owner, is in neither of this core's private levels, so their
// scans are skipped and only their misses counted. Every cache still
// sees the hits, misses and recency updates of an L1, L2, LLC walk.
func (h *Hierarchy) fetch(now uint64, core int, l mem.LineAddr) (li int, lat uint64, memDone uint64, stall uint64) {
	stall = now
	lat = h.cfg.L1.Latency
	l1 := h.l1[core]
	// Hand-inlined L1 MRU fast path: with the workloads' locality most
	// L1 hits land on the set's rank-0 way, and a hit there leaves the
	// recency word as it is. The way's idx names the record.
	s1 := int(uint64(l) & l1.setMask)
	if i := s1*l1.ways + int(l1.order[s1]&15); l1.tags[i] == uint64(l)+1 {
		l1.stats.Hits++
		return int(l1.idx[i]), lat, 0, stall
	}
	l2, llc := h.l2[core], h.llc
	li = llc.find(l)
	if li >= 0 && int(llc.owner[li]) == core {
		if l1.lookup(l, true) >= 0 {
			return li, lat, 0, stall
		}
		lat += h.cfg.L2.Latency
		// No MRU fast path here: the L2 probe only runs after an L1 miss,
		// where set locality is poor enough that an extra MRU compare
		// measured as a net loss (DESIGN.md §8 negative results).
		if l2.lookup(l, true) >= 0 {
			installPrivate(l1, l, li)
			return li, lat, 0, stall
		}
	} else {
		// Neither private level holds l: count their misses only.
		l1.stats.Misses++
		l2.stats.Misses++
		lat += h.cfg.L2.Latency
	}
	lat += h.cfg.LLC.Latency
	if li >= 0 {
		llc.hit(l, li)
		if own := llc.owner[li]; own >= 0 && int(own) != core {
			// Another core holds it privately: migrate. The record is all
			// the line's state, so the old owner's copies just go.
			h.l1[own].drop(l)
			h.l2[own].drop(l)
		}
		llc.owner[li] = int8(core)
	} else {
		llc.stats.Misses++
		// Full miss: fetch from the persistence backend.
		var data mem.Word
		data, memDone = h.backend.Fill(now+lat, l)
		li, stall = h.installLLC(now, l, data, core)
	}
	// An L2 victim leaves the core: its L1 copy goes too (inclusion), and
	// its record loses its owner.
	if v, vli, ok := installPrivate(l2, l, li); ok {
		l1.drop(v)
		llc.owner[vli] = -1
	}
	installPrivate(l1, l, li)
	return li, lat, memDone, stall
}

// Load performs a blocking read by core of line l at time now. It returns
// the data and the time the core may continue.
func (h *Hierarchy) Load(now uint64, core int, l mem.LineAddr) (mem.Word, uint64) {
	li, lat, memDone, stall := h.fetch(now, core, l)
	return h.llc.data[li], max(now+lat, memDone, stall)
}

// Store performs a store by core to line l at time now. Stores are
// absorbed by the store buffer and do not block the core on hierarchy
// latency; the returned time reflects only backpressure stalls (from
// evictions, observer-side log flushes, or a full memory queue). The
// store writes the line's record: the observer sees its pre-store data
// and EID, and wasModified is its dirty bit. Writing the EID there is
// the paper's EID forwarding to the LLC (Fig. 8).
func (h *Hierarchy) Store(now uint64, core int, l mem.LineAddr, data mem.Word) uint64 {
	li, _, _, stall := h.fetch(now, core, l)
	llc := h.llc
	s, bit := llc.setBitOf(l, li)
	eid := llc.eids[li]
	if h.observer != nil {
		var obsStall uint64
		eid, obsStall = h.observer.OnStore(now, l, llc.data[li], eid, llc.state[s]&(bit<<dShift) != 0)
		stall = max(stall, obsStall)
	}
	llc.data[li], llc.eids[li] = data, eid
	llc.state[s] |= bit << dShift
	llc.markDirty(s)
	return stall
}

// FlushDirty collects every dirty line whose (address, EID) satisfies
// pred (nil means all), marking them clean while keeping them valid
// (cache flushes and ACS clean but do not invalidate — paper §III-C).
// The records are the lines' only state, so nothing is snooped: the
// write-back a private dirty copy would need in hardware is the
// record's data.
//
// The walk is the packed-plane ACS scan over the LLC's dirty-set
// summary: it visits only the sets the summary flags, in ascending
// order, so a scan costs what is dirty rather than what the LLC holds,
// and the output is the full walk's. In a visited set, one state-word
// shift finds the dirty ways and TrailingZeros64 jumps straight to
// them; only those ways touch the EID/data planes. A set left with no
// dirty way drops out of the summary.
func (h *Hierarchy) FlushDirty(pred func(mem.LineAddr, mem.EpochID) bool) []DirtyLine {
	var out []DirtyLine
	llc := h.llc
	for k, flagged := range llc.dirtySets {
		for ; flagged != 0; flagged &= flagged - 1 {
			s := k<<6 | bits.TrailingZeros64(flagged)
			base := s * llc.ways
			for w := llc.state[s] >> dShift; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				li := base + j
				addr := mem.LineAddr(llc.tags[li] - 1)
				if pred != nil && !pred(addr, llc.eids[li]) {
					continue
				}
				llc.state[s] &^= 1 << uint(dShift+j)
				out = append(out, DirtyLine{Addr: addr, Data: llc.data[li], EID: llc.eids[li]})
			}
			if llc.state[s]>>dShift == 0 {
				llc.dirtySets[k] &^= 1 << uint(s&63)
			}
		}
	}
	return out
}

// DirtyCount reports system-wide dirty lines (the LLC's dirty records).
func (h *Hierarchy) DirtyCount() int { return h.llc.CountDirty() }

// CheckInclusion verifies that every valid private line is also present
// in the LLC, at the way its idx word names: the inclusion invariant
// the flush machinery depends on, and the one that makes idx exact.
func (h *Hierarchy) CheckInclusion() error {
	for core := range h.l1 {
		for _, c := range []*Cache{h.l1[core], h.l2[core]} {
			var err error
			c.Scan(func(ln LineRef) bool {
				if li := c.idx[ln.i]; h.llc.tags[li] != c.tags[ln.i] {
					err = fmt.Errorf("inclusion violated: core %d %s holds %v, but LLC way %d (its idx) holds %v; the LLC finds it at %d",
						core, c.cfg.Name, ln.Addr(), li, mem.LineAddr(h.llc.tags[li]-1), h.llc.find(ln.Addr()))
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckOwnership verifies the owner invariant fetch's LLC-first probe
// relies on: every valid L1 or L2 line of core c has an LLC copy whose
// owner is c. (The converse need not hold: an owned LLC line may have
// left the owner's private levels.)
func (h *Hierarchy) CheckOwnership() error {
	for core := range h.l1 {
		for _, c := range []*Cache{h.l1[core], h.l2[core]} {
			var err error
			c.Scan(func(ln LineRef) bool {
				if li := h.llc.find(ln.Addr()); li < 0 || int(h.llc.owner[li]) != core {
					err = fmt.Errorf("ownership violated: core %d %s holds %v, but the LLC copy is not owned by it",
						core, c.cfg.Name, ln.Addr())
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckDirtySummary verifies the LLC's dirty-set summary against its
// state words: every set holding a dirty way has its bit set, so
// FlushDirty's walk of the flagged sets misses no line a walk of every
// set would find.
func (h *Hierarchy) CheckDirtySummary() error {
	llc := h.llc
	for s, sw := range llc.state {
		if sw>>dShift != 0 && llc.dirtySets[s>>6]&(1<<uint(s&63)) == 0 {
			return fmt.Errorf("dirty-set summary violated: LLC set %d holds dirty ways %#x but is not flagged", s, sw>>dShift)
		}
	}
	return nil
}

// Reset invalidates the whole hierarchy.
func (h *Hierarchy) Reset() {
	for i := range h.l1 {
		h.l1[i].Reset()
		h.l2[i].Reset()
	}
	h.llc.Reset()
}
