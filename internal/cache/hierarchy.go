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
// a shared inclusive LLC. All dirty data is visible at the LLC either
// directly (Dirty) or via the PrivDirty marker plus the private copies,
// which is the property PiCL's ACS and the baselines' flushes rely on.
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

// LLC exposes the shared cache (the ACS engine scans its tag arrays).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// L1 and L2 expose per-core private caches for tests and statistics.
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }
func (h *Hierarchy) L2(core int) *Cache { return h.l2[core] }

// SetObserver installs the store observer after construction (schemes and
// the hierarchy reference each other, so one side is wired late).
func (h *Hierarchy) SetObserver(o StoreObserver) { h.observer = o }

// SetBackend installs the backend after construction.
func (h *Hierarchy) SetBackend(b Backend) { h.backend = b }

// SetTracer installs an event tracer (nil disables tracing).
func (h *Hierarchy) SetTracer(t obs.Tracer) { h.tr = t }

// snoopPrivate extracts the freshest copy of LLC way li (state word s,
// way mask bit), invalidating the owner's private copies if inval is
// true or merely cleaning them otherwise. It returns the freshest
// data/EID/dirtiness considering private copies (L1 newest, then L2,
// then the LLC copy itself).
func (h *Hierarchy) snoopPrivate(li, s int, bit uint64, inval bool) (data mem.Word, eid mem.EpochID, dirty bool) {
	llc := h.llc
	data, eid, dirty = llc.data[li], llc.eids[li], llc.state[s]&(bit<<dShift) != 0
	own := llc.owner[li]
	if own >= 0 {
		addr := mem.LineAddr(llc.tags[li] - 1)
		l1, l2 := h.l1[own], h.l2[own]
		i1 := l1.find(addr)
		i2 := l2.find(addr)
		// Prefer L1 (newest), then L2.
		if i2 >= 0 {
			if s2, b2 := l2.setBitOf(addr, i2); l2.state[s2]&(b2<<dShift) != 0 {
				data, eid, dirty = l2.data[i2], l2.eids[i2], true
			}
		}
		if i1 >= 0 {
			if s1, b1 := l1.setBitOf(addr, i1); l1.state[s1]&(b1<<dShift) != 0 {
				data, eid, dirty = l1.data[i1], l1.eids[i1], true
			}
		}
		if inval {
			l1.drop(addr)
			l2.drop(addr)
			llc.owner[li] = -1
		} else {
			// Cleaning without invalidation (a flush/ACS write-back): every
			// remaining copy must carry the freshest data, or a later clean
			// eviction of the inner copy would expose a stale outer one.
			if i1 >= 0 {
				s1, b1 := l1.setBitOf(addr, i1)
				l1.data[i1], l1.eids[i1] = data, eid
				l1.state[s1] &^= b1 << dShift
			}
			if i2 >= 0 {
				s2, b2 := l2.setBitOf(addr, i2)
				l2.data[i2], l2.eids[i2] = data, eid
				l2.state[s2] &^= b2 << dShift
			}
		}
	}
	llc.state[s] &^= bit << pShift
	return data, eid, dirty
}

// setBitOf locates way i's state-word slot given the line address it
// holds: the set index and the way-mask bit (no division — the set falls
// out of the address).
func (c *Cache) setBitOf(l mem.LineAddr, i int) (int, uint64) {
	s := int(uint64(l) & c.setMask)
	return s, uint64(1) << uint(i-s*c.ways)
}

// evictLLCVictim handles a line evicted from the LLC: back-invalidate the
// owner's private copies (inclusion), and hand the freshest data to the
// backend if dirty. Returns the stall-until time from the backend.
func (h *Hierarchy) evictLLCVictim(now uint64, v *Line) uint64 {
	data, eid, dirty := v.Data, v.EID, v.Dirty
	if v.Owner >= 0 {
		owner := int(v.Owner)
		l1, l2 := h.l1[owner], h.l2[owner]
		if i, dt := l2.drop(v.Addr); dt {
			data, eid, dirty = l2.data[i], l2.eids[i], true
		}
		if i, dt := l1.drop(v.Addr); dt {
			data, eid, dirty = l1.data[i], l1.eids[i], true
		}
	}
	if dirty {
		if h.tr != nil {
			// The eviction-driven log-write trigger: a dirty line leaves
			// the LLC and the scheme below must make it crash-consistent.
			h.tr.Event(obs.Event{Kind: obs.KindLLCEvict, Time: now, Epoch: eid, Addr: v.Addr})
		}
		return h.backend.EvictDirty(now, v.Addr, data, eid)
	}
	return now
}

// installLLC inserts a line into the LLC, processing the victim cascade,
// and returns (plane index of the installed line, stall-until). Callers
// have always just missed in the LLC, so there is no tag scan: the slot
// comes straight from the state word (free way) or the recency word's
// last rank. The pick and the install share one state-word and one
// order-word load/store. LLC victims need the full plane-crossing
// snapshot (owner, PrivDirty, payload) because the drain may snoop
// private copies and hand data to the backend.
func (h *Hierarchy) installLLC(now uint64, l mem.LineAddr, data mem.Word, eid mem.EpochID, dirty bool, owner int) (int, uint64) {
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
		llc.stats.DirtyEvictions += (w>>dShift | w>>pShift) >> uint(slot) & 1
		bit := uint64(1) << uint(slot)
		v = Line{
			Addr:      mem.LineAddr(llc.tags[li] - 1),
			EID:       llc.eids[li],
			Data:      llc.data[li],
			Valid:     true,
			Dirty:     w&(bit<<dShift) != 0,
			Owner:     llc.owner[li],
			PrivDirty: w&(bit<<pShift) != 0,
		}
		evict = true
	}
	llc.order[s] = toFront(o, li-base)
	llc.tags[li] = uint64(l) + 1
	llc.data[li] = data
	llc.eids[li] = eid
	bit := uint64(1) << uint(li-base)
	nw := (w | bit) &^ (bit<<dShift | bit<<pShift)
	if dirty {
		nw |= bit << dShift
		llc.markDirty(s)
	}
	llc.state[s] = nw
	stall := now
	if evict {
		// The new line must be resident (owner still unset, matching the
		// old Place-then-drain contract) before the drain runs: the
		// backend call can recurse into a forced flush that scans the LLC.
		llc.owner[li] = -1
		stall = h.evictLLCVictim(now, &v)
	}
	llc.owner[li] = int8(owner)
	return li, stall
}

// installL2 inserts into a core's L2, draining the victim into the LLC
// (which holds it by inclusion) and back-invalidating the L1 copy. Only
// the victim's tag and dirty bit are read up front; the payload planes
// are touched just when the victim is actually dirty.
func (h *Hierarchy) installL2(now uint64, core int, l mem.LineAddr, data mem.Word, eid mem.EpochID, lidx int32) (int, uint64) {
	l2 := h.l2[core]
	s2 := int(uint64(l) & l2.setMask)
	base := s2 * l2.ways
	w, o := l2.state[s2], l2.order[s2]
	var i2 int
	var vaddr mem.LineAddr
	var vdata mem.Word
	var veid mem.EpochID
	var vlidx int32
	vdirty := false
	evict := false
	if free := w & l2.fullMask; free != l2.fullMask {
		i2 = base + bits.TrailingZeros64(^free)
	} else {
		slot := l2.lru(o)
		i2 = base + slot
		l2.stats.Evictions++
		l2.stats.DirtyEvictions += (w>>dShift | w>>pShift) >> uint(slot) & 1
		vaddr = mem.LineAddr(l2.tags[i2] - 1)
		vlidx = int32(l2.idx[i2] >> 32)
		// Gathered unconditionally: the loads are cheaper than a
		// data-dependent dirty branch that mispredicts on mixed phases.
		vdirty = w>>(dShift+uint(slot))&1 != 0
		vdata, veid = l2.data[i2], l2.eids[i2]
		evict = true
	}
	l2.order[s2] = toFront(o, i2-base)
	l2.tags[i2] = uint64(l) + 1
	l2.data[i2] = data
	l2.eids[i2] = eid
	l2.idx[i2] = packIdx(lidx, -1)
	b2 := uint64(1) << uint(i2-base)
	l2.state[s2] = (w | b2) &^ (b2<<dShift | b2<<pShift)
	if !evict {
		return i2, now
	}
	l1 := h.l1[core]
	if i, dt := l1.drop(vaddr); dt {
		vdata, veid, vdirty = l1.data[i], l1.eids[i], true
	}
	llc := h.llc
	li := int(vlidx)
	if li < 0 || llc.tags[li] != uint64(vaddr)+1 {
		li = llc.find(vaddr)
	}
	if li < 0 {
		// Inclusion violated only if the LLC raced it out; reinstall.
		_, stall := h.installLLC(now, vaddr, vdata, veid, vdirty, -1)
		return i2, stall
	}
	s, bit := llc.setBitOf(vaddr, li)
	if vdirty {
		llc.data[li], llc.eids[li] = vdata, veid
		llc.state[s] |= bit << dShift
		llc.markDirty(s)
	}
	// All private copies of the victim are gone now.
	llc.state[s] &^= bit << pShift
	llc.owner[li] = -1
	return i2, now
}

// installL1 inserts into a core's L1, draining the victim into its L2,
// and returns the resident L1 plane index. Clean victims — the common
// case, every load miss makes one — are dropped without reading a single
// victim plane: the dirty test is one bit of the state word the pick
// already loaded.
func (h *Hierarchy) installL1(core int, l mem.LineAddr, data mem.Word, eid mem.EpochID, lidx, l2i int32) int {
	l1 := h.l1[core]
	s1 := int(uint64(l) & l1.setMask)
	base := s1 * l1.ways
	w, o := l1.state[s1], l1.order[s1]
	var i int
	var vaddr mem.LineAddr
	var vdata mem.Word
	var veid mem.EpochID
	var vl2i int32
	drain := false
	if free := w & l1.fullMask; free != l1.fullMask {
		i = base + bits.TrailingZeros64(^free)
	} else {
		slot := l1.lru(o)
		i = base + slot
		l1.stats.Evictions++
		l1.stats.DirtyEvictions += (w>>dShift | w>>pShift) >> uint(slot) & 1
		if drain = w>>(dShift+uint(slot))&1 != 0; drain {
			vaddr = mem.LineAddr(l1.tags[i] - 1)
			vdata, veid = l1.data[i], l1.eids[i]
			vl2i = int32(l1.idx[i])
		}
	}
	l1.order[s1] = toFront(o, i-base)
	l1.tags[i] = uint64(l) + 1
	l1.data[i] = data
	l1.eids[i] = eid
	// No owner store: private-cache owner planes are invariantly -1
	// (only the LLC tracks owners, and New/Reset initialize to -1).
	l1.idx[i] = packIdx(lidx, l2i)
	b1 := uint64(1) << uint(i-base)
	l1.state[s1] = (w | b1) &^ (b1<<dShift | b1<<pShift)
	if drain {
		h.drainL1Victim(core, vaddr, vdata, veid, vl2i)
	}
	return i
}

// drainL1Victim folds a dirty L1 victim into the core's L2 (which holds
// it by inclusion) or, failing that, straight into the LLC. vl2i is the
// victim's packed L2-index hint; like every index hint it is validated against
// the tag and falls back to a scan.
func (h *Hierarchy) drainL1Victim(core int, vaddr mem.LineAddr, vdata mem.Word, veid mem.EpochID, vl2i int32) {
	l2 := h.l2[core]
	i2 := int(vl2i)
	if i2 < 0 || l2.tags[i2] != uint64(vaddr)+1 {
		i2 = l2.find(vaddr)
	}
	if i2 >= 0 {
		s2, b2 := l2.setBitOf(vaddr, i2)
		l2.data[i2], l2.eids[i2] = vdata, veid
		l2.state[s2] |= b2 << dShift
		return
	}
	// L2 lost it (its own eviction back-invalidated L1 already, so
	// this cannot normally happen); fold into the LLC directly.
	llc := h.llc
	if li := llc.find(vaddr); li >= 0 {
		s, bit := llc.setBitOf(vaddr, li)
		llc.data[li], llc.eids[li] = vdata, veid
		llc.state[s] |= bit << dShift
		llc.state[s] &^= bit << pShift
		llc.markDirty(s)
	}
}

// fetch brings line l into core's L1 (and the levels above, maintaining
// inclusion) and returns the L1 plane index, the hierarchy latency in
// cycles, the memory completion time (0 if no memory access), and a
// stall-until time from any eviction backpressure. The LLC way the line
// lives in travels down the packed idx planes, so the store path never
// rescans the LLC.
//
// Past the L1 MRU check, the LLC is probed first, untouched: the owner
// invariant (every valid L1 or L2 line of core c has an LLC copy owned
// by c; see CheckOwnership) means a line the LLC misses, or holds for
// another owner, is in neither of this core's private levels, so their
// scans are skipped and only their misses counted. Every cache still
// sees the hits, misses and recency updates of an L1, L2, LLC walk.
func (h *Hierarchy) fetch(now uint64, core int, l mem.LineAddr) (l1i int, lat uint64, memDone uint64, stall uint64) {
	stall = now
	lat = h.cfg.L1.Latency
	l1 := h.l1[core]
	// Hand-inlined L1 MRU fast path: with the workloads' locality most
	// L1 hits land on the set's rank-0 way, and a hit there leaves the
	// recency word as it is.
	s1 := int(uint64(l) & l1.setMask)
	if i := s1*l1.ways + int(l1.order[s1]&15); l1.tags[i] == uint64(l)+1 {
		l1.stats.Hits++
		return i, lat, 0, stall
	}
	l2, llc := h.l2[core], h.llc
	llci := llc.find(l)
	if llci >= 0 && int(llc.owner[llci]) == core {
		if l1i = l1.lookup(l, true); l1i >= 0 {
			return l1i, lat, 0, stall
		}
		lat += h.cfg.L2.Latency
		// No MRU fast path here: the L2 probe only runs after an L1 miss,
		// where set locality is poor enough that an extra MRU compare
		// measured as a net loss (DESIGN.md §8 negative results).
		if i2 := l2.lookup(l, true); i2 >= 0 {
			l1i = h.installL1(core, l, l2.data[i2], l2.eids[i2], int32(l2.idx[i2]>>32), int32(i2))
			return l1i, lat, 0, stall
		}
	} else {
		// Neither private level holds l: count their misses only.
		l1.stats.Misses++
		l2.stats.Misses++
		lat += h.cfg.L2.Latency
	}
	lat += h.cfg.LLC.Latency
	if llci >= 0 {
		llc.hit(l, llci)
		s, bit := llc.setBitOf(l, llci)
		data, eid := llc.data[llci], llc.eids[llci]
		if own := llc.owner[llci]; own >= 0 && int(own) != core {
			// Another core holds it privately: migrate (snoop + inval).
			var dirty bool
			data, eid, dirty = h.snoopPrivate(llci, s, bit, true)
			if dirty {
				llc.data[llci], llc.eids[llci] = data, eid
				llc.state[s] |= bit << dShift
				llc.markDirty(s)
			}
		} else if llc.state[s]&(bit<<pShift) != 0 {
			// Our own private copies were supposedly dirty but L1/L2
			// missed: stale marker; resync from privates if any remain.
			data, eid, _ = h.snoopPrivate(llci, s, bit, false)
		}
		llc.owner[llci] = int8(core)
		i2, stall2 := h.installL2(now, core, l, data, eid, int32(llci))
		if stall2 > stall {
			stall = stall2
		}
		l1i = h.installL1(core, l, data, eid, int32(llci), int32(i2))
		return l1i, lat, 0, stall
	}
	llc.stats.Misses++
	// Full miss: fetch from the persistence backend.
	data, done := h.backend.Fill(now+lat, l)
	// Paper §IV-A: a line loaded from memory has no EID associated.
	llci, stallA := h.installLLC(now, l, data, mem.NoEpoch, false, core)
	i2, stallB := h.installL2(now, core, l, data, mem.NoEpoch, int32(llci))
	l1i = h.installL1(core, l, data, mem.NoEpoch, int32(llci), int32(i2))
	if stallA > stall {
		stall = stallA
	}
	if stallB > stall {
		stall = stallB
	}
	return l1i, lat, done, stall
}

// Load performs a blocking read by core of line l at time now. It returns
// the data and the time the core may continue.
func (h *Hierarchy) Load(now uint64, core int, l mem.LineAddr) (mem.Word, uint64) {
	l1i, lat, memDone, stall := h.fetch(now, core, l)
	done := now + lat
	if memDone > done {
		done = memDone
	}
	if stall > done {
		done = stall
	}
	return h.l1[core].data[l1i], done
}

// Store performs a store by core to line l at time now. Stores are
// absorbed by the store buffer and do not block the core on hierarchy
// latency; the returned time reflects only backpressure stalls (from
// evictions, observer-side log flushes, or a full memory queue).
func (h *Hierarchy) Store(now uint64, core int, l mem.LineAddr, data mem.Word) uint64 {
	l1i, _, _, stall := h.fetch(now, core, l)
	// The L1 line remembers its LLC way. The hint can be stale (the
	// install cascade may have evicted or replaced the way since it was
	// recorded), so validate the tag and fall back to a scan.
	llc := h.llc
	llci := int(int32(h.l1[core].idx[l1i] >> 32))
	if llci < 0 || llc.tags[llci] != uint64(l)+1 {
		llci = llc.find(l)
	}
	l1 := h.l1[core]
	s1, b1 := l1.setBitOf(l, l1i)
	wasModified := l1.state[s1]&(b1<<dShift) != 0
	var ls int
	var lbit uint64
	if llci >= 0 {
		ls, lbit = llc.setBitOf(l, llci)
		if llc.state[ls]&(lbit<<dShift|lbit<<pShift) != 0 {
			wasModified = true
		}
	}
	newEID := l1.eids[l1i]
	if h.observer != nil {
		var obsStall uint64
		newEID, obsStall = h.observer.OnStore(now, l, l1.data[l1i], l1.eids[l1i], wasModified)
		if obsStall > stall {
			stall = obsStall
		}
	}
	l1.data[l1i], l1.eids[l1i] = data, newEID
	l1.state[s1] |= b1 << dShift
	if llci >= 0 {
		// EID forwarding to the LLC (paper Fig. 8): the LLC learns the
		// line is dirty in a private cache and at which epoch.
		llc.eids[llci] = newEID
		llc.state[ls] |= lbit << pShift
		llc.markDirty(ls)
		llc.owner[llci] = int8(core)
	}
	return stall
}

// FlushDirty collects every dirty line whose (address, EID) satisfies
// pred (nil means all), marking all copies clean while keeping them valid
// (cache flushes and ACS clean but do not invalidate — paper §III-C).
// The freshest private data is snooped, exactly as ACS must ("if there
// are dirty private copies, they would have to be snooped and written
// back").
//
// The walk is the packed-plane ACS scan over the LLC's dirty-set
// summary: it visits only the sets the summary flags, in ascending
// order, so a scan costs what is dirty rather than what the LLC holds,
// and the output is the full walk's. In a visited set, one state-word
// test finds the dirty ways and TrailingZeros64 jumps straight to them;
// only matching ways touch the EID/data planes. A set left with no
// dirty or PrivDirty way drops out of the summary.
func (h *Hierarchy) FlushDirty(pred func(mem.LineAddr, mem.EpochID) bool) []DirtyLine {
	var out []DirtyLine
	llc := h.llc
	for k, flagged := range llc.dirtySets {
		for ; flagged != 0; flagged &= flagged - 1 {
			s := k<<6 | bits.TrailingZeros64(flagged)
			base := s * llc.ways
			sw := llc.state[s]
			for w := sw & (sw>>dShift | sw>>pShift) & llc.fullMask; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				li := base + j
				addr := mem.LineAddr(llc.tags[li] - 1)
				if pred != nil && !pred(addr, llc.eids[li]) {
					continue
				}
				bit := uint64(1) << uint(j)
				data, eid, dirty := h.snoopPrivate(li, s, bit, false)
				if !dirty {
					continue
				}
				llc.data[li], llc.eids[li] = data, eid
				llc.state[s] &^= bit << dShift
				out = append(out, DirtyLine{Addr: addr, Data: data, EID: eid})
			}
			if sw := llc.state[s]; sw&(sw>>dShift|sw>>pShift)&llc.fullMask == 0 {
				llc.dirtySets[k] &^= 1 << uint(s&63)
			}
		}
	}
	return out
}

// DirtyCount reports system-wide dirty lines (via the inclusive LLC).
func (h *Hierarchy) DirtyCount() int { return h.llc.CountDirty() }

// CheckInclusion verifies that every valid private line is also present
// in the LLC (the inclusion invariant the flush machinery depends on).
func (h *Hierarchy) CheckInclusion() error {
	for core := range h.l1 {
		var err error
		check := func(level string, c *Cache) {
			c.Scan(func(ln LineRef) bool {
				if h.llc.find(ln.Addr()) < 0 {
					err = fmt.Errorf("inclusion violated: core %d %s holds %v not in LLC", core, level, ln.Addr())
					return false
				}
				return true
			})
		}
		check("l1", h.l1[core])
		check("l2", h.l2[core])
		if err != nil {
			return err
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
// state words: every set holding a dirty or PrivDirty way has its bit
// set, so FlushDirty's walk of the flagged sets misses no line a walk
// of every set would find.
func (h *Hierarchy) CheckDirtySummary() error {
	llc := h.llc
	for s, sw := range llc.state {
		if sw&(sw>>dShift|sw>>pShift)&llc.fullMask != 0 && llc.dirtySets[s>>6]&(1<<uint(s&63)) == 0 {
			return fmt.Errorf("dirty-set summary violated: LLC set %d holds dirty ways %#x but is not flagged",
				s, sw&(sw>>dShift|sw>>pShift)&llc.fullMask)
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
