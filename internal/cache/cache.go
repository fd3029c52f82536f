// Package cache implements the SRAM cache hierarchy of the evaluated
// system (paper Table IV): per-core private L1 and L2 plus a shared,
// inclusive last-level cache, all write-back with LRU replacement. Cache
// lines carry the PiCL epoch-ID (EID) tag and a dirty bit; the hierarchy
// exposes exactly the hook points the paper adds to the cache state
// machines (Figs. 7 and 8): a pre-store observation (where undo entries
// are created), a dirty-eviction path into the persistence scheme, and a
// predicate-driven dirty scan used by both synchronous cache flushes
// (baselines) and PiCL's asynchronous cache scan.
package cache

import (
	"fmt"
	"math/bits"

	"picl/internal/mem"
)

// Line is a value snapshot of one cache entry: the full line address
// (kept whole rather than split into tag/index bits; the split is a
// hardware storage detail with no behavioral consequence), the payload,
// and the PiCL state. Since the structure-of-arrays refactor the Cache
// does not store Lines — state lives in per-field planes — and Line is
// only the currency for victims, invalidations, and test assertions.
type Line struct {
	Addr mem.LineAddr
	// EID is the epoch the line was last stored to in, or mem.NoEpoch for
	// lines never stored to since fill (paper §IV-A).
	EID  mem.EpochID
	Data mem.Word

	Valid bool
	Dirty bool
	// Owner is the core whose private caches hold this line (-1 none).
	// Maintained only in the LLC; the evaluated workloads are
	// multiprogrammed so a line has at most one private holder.
	Owner int8
	// PrivDirty marks an LLC line whose freshest data lives dirty in the
	// owner's private caches (the LLC copy is stale). Set by the private
	// stores' EID-forwarding (paper Fig. 8), cleared when the data drains
	// back or is snooped by ACS/flush.
	PrivDirty bool
}

// Config describes one cache array.
type Config struct {
	Name    string
	Size    int // bytes
	Ways    int
	Latency uint64 // lookup latency in cycles
}

// Stats counts cache events.
type Stats struct {
	Hits, Misses   uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// The per-set state word packs three way bitsets into one uint64, so
// every flag read, install, and invalidation is a single word
// load/store: bit j is way j's valid bit, bit dShift+j its dirty bit,
// and bit pShift+j its PrivDirty bit. maxWays keeps the three fields
// disjoint.
const (
	maxWays = 16
	dShift  = 16
	pShift  = 32
)

// noIdx is an idx-plane word with both packed indices unknown (-1).
const noIdx = ^uint64(0)

// packIdx packs an LLC plane index (high 32 bits) and an L2 plane index
// (low 32 bits) into one idx-plane word; either may be -1 (unknown).
func packIdx(llci, l2i int32) uint64 {
	return uint64(uint32(llci))<<32 | uint64(uint32(l2i))
}

// Cache is a set-associative, LRU, write-back cache array laid out as a
// structure of arrays: one dense plane per field instead of an array of
// Line structs.
//
// Way scans — the single hottest operation in the whole simulator, every
// access runs several of them — touch only the plane they need: the tag
// scan reads the set's tag words from one host cache line, the LRU
// victim scan reads the stamp plane, and the flush/ACS walks read the
// per-set state words and the EID plane without ever striding 32-byte
// structs. The Valid/Dirty/PrivDirty flags live packed in one state
// word per set (see dShift/pShift), so "any free way" and "any dirty
// line in this set" are single word tests, and free-way selection is
// one bits.TrailingZeros64.
//
// Invariants: bit j of state[s] is set exactly when tags[s*ways+j] != 0,
// and then tags[i] == uint64(addr)+1; dirty and priv bits are only ever
// set for valid ways. Every mutation point (Place, victimSlot+installAt,
// Invalidate, Reset, the LineRef setters) maintains this. In the LLC,
// bit s of dirtySets is set whenever set s holds a dirty or PrivDirty
// way (see dirtySets).
type Cache struct {
	cfg     Config
	sets    int
	setMask uint64
	ways    int
	// fullMask has the low `ways` bits set: the valid field of a full set.
	fullMask uint64

	tags  []uint64      // per line: addr+1, or 0 when invalid
	lru   []uint64      // per line: last-touch stamp
	data  []mem.Word    // per line: payload
	eids  []mem.EpochID // per line: epoch tag
	owner []int8        // per line: private holder (LLC only; -1 none)
	state []uint64      // per set: valid | dirty<<dShift | priv<<pShift
	// dirtySets summarizes the state words for the bulk scan: bit s%64 of
	// word s/64 is set whenever set s holds a dirty or PrivDirty way, so
	// Hierarchy.FlushDirty visits only flagged sets instead of every
	// state word. The invariant is one-way and holds for the LLC: every
	// transition that sets a dirty or priv bit there marks the set (the
	// hierarchy's LLC installs, victim folds and EID forwarding, plus
	// installAt, Place and the LineRef setters on any cache); only
	// FlushDirty clears a bit, once its set holds neither, and Reset
	// clears them all. A stale bit costs one wasted visit, never a
	// missed line.
	dirtySets []uint64
	// idx packs, per private-cache line, two outer-level plane indices
	// the line was fetched through: the LLC index in the high 32 bits and
	// (for L1 lines) the L2 index in the low 32, each -1 when unknown.
	// The store path and the victim drains reach the inclusive outer copy
	// without a tag scan. Purely a performance hint: every consumer
	// validates the tag at the index and falls back to a scan, so a stale
	// entry costs one extra compare and can never change behavior. One
	// packed word keeps the install path at a single hint store. Only the
	// private levels have the plane (newPrivate); it is nil in the LLC,
	// whose lines are never reached through an outer level.
	idx []uint64
	// hint caches, per set, the way of the last hit or install — an MRU
	// shortcut for the tag scan. With the workloads' locality most
	// lookups resolve on the single hinted-tag compare. Tags are unique
	// within a set, so the hint can only ever find the same way the scan
	// would: correctness never depends on it.
	hint []uint8

	stamp uint64
	stats Stats
	// victim is Place's eviction scratch slot; see Place.
	victim Line
}

// New builds a cache. Size/Ways must yield a power-of-two set count, and
// the packed per-set state words cap associativity at maxWays.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache %q: invalid geometry %+v", cfg.Name, cfg))
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache %q: %d ways exceed the %d-way packed state words", cfg.Name, cfg.Ways, maxWays))
	}
	linesTotal := cfg.Size / mem.LineSize
	sets := linesTotal / cfg.Ways
	if sets == 0 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %q: set count %d not a power of two", cfg.Name, sets))
	}
	n := sets * cfg.Ways
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		fullMask:  (uint64(1) << uint(cfg.Ways)) - 1,
		tags:      make([]uint64, n),
		lru:       make([]uint64, n),
		data:      make([]mem.Word, n),
		eids:      make([]mem.EpochID, n),
		owner:     make([]int8, n),
		state:     make([]uint64, sets),
		dirtySets: make([]uint64, (sets+63)/64),
		hint:      make([]uint8, sets),
	}
	for i := range c.owner {
		c.owner[i] = -1
	}
	return c
}

// newPrivate builds a private-level cache (an L1 or L2): New plus the
// idx plane of outer-level hints, which only the private levels read.
func newPrivate(cfg Config) *Cache {
	c := New(cfg)
	c.idx = make([]uint64, len(c.tags))
	for i := range c.idx {
		c.idx[i] = noIdx
	}
	return c
}

// markDirty flags set s in the dirty-set summary.
func (c *Cache) markDirty(s int) { c.dirtySets[s>>6] |= 1 << uint(s&63) }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineRef is a handle to a resident line: the cache plus the plane
// index. It replaces the old *Line contract — callers read and mutate
// the line through accessors that touch exactly one plane each. The zero
// value and lookup misses are !Ok(); a ref stays coherent until the way
// is evicted or invalidated (the hierarchy drains victims before
// reusing a ref, same as with the old pointers).
type LineRef struct {
	c *Cache
	i int32
}

// Ok reports whether the ref addresses a line (false for lookup misses
// and the zero LineRef).
func (r LineRef) Ok() bool { return r.c != nil && r.i >= 0 }

// Addr returns the line address.
func (r LineRef) Addr() mem.LineAddr { return mem.LineAddr(r.c.tags[r.i] - 1) }

// Data returns the payload word.
func (r LineRef) Data() mem.Word { return r.c.data[r.i] }

// EID returns the epoch tag.
func (r LineRef) EID() mem.EpochID { return r.c.eids[r.i] }

// Owner returns the private-holder core (-1 none).
func (r LineRef) Owner() int { return int(r.c.owner[r.i]) }

// setBit locates the ref's state word: the set index and way mask.
func (r LineRef) setBit() (int, uint64) {
	s := int(r.i) / r.c.ways
	return s, uint64(1) << uint(int(r.i)-s*r.c.ways)
}

// Dirty reports the dirty bit.
func (r LineRef) Dirty() bool {
	s, bit := r.setBit()
	return r.c.state[s]&(bit<<dShift) != 0
}

// PrivDirty reports the private-dirty marker (LLC only).
func (r LineRef) PrivDirty() bool {
	s, bit := r.setBit()
	return r.c.state[s]&(bit<<pShift) != 0
}

// SetData overwrites the payload.
func (r LineRef) SetData(w mem.Word) { r.c.data[r.i] = w }

// SetEID overwrites the epoch tag.
func (r LineRef) SetEID(e mem.EpochID) { r.c.eids[r.i] = e }

// SetOwner overwrites the private holder.
func (r LineRef) SetOwner(core int) { r.c.owner[r.i] = int8(core) }

// SetDirty writes the dirty bit.
func (r LineRef) SetDirty(d bool) {
	s, bit := r.setBit()
	if d {
		r.c.state[s] |= bit << dShift
		r.c.markDirty(s)
	} else {
		r.c.state[s] &^= bit << dShift
	}
}

// SetPrivDirty writes the private-dirty marker.
func (r LineRef) SetPrivDirty(d bool) {
	s, bit := r.setBit()
	if d {
		r.c.state[s] |= bit << pShift
		r.c.markDirty(s)
	} else {
		r.c.state[s] &^= bit << pShift
	}
}

// Snapshot copies the line state out as a value.
func (r LineRef) Snapshot() Line {
	s := int(r.i) / r.c.ways
	return r.c.snapshotAt(int(r.i), s)
}

// snapshotAt gathers way i (in set s) from all planes into a Line value.
// This is the one deliberately plane-crossing read path; the hierarchy
// install paths avoid it for clean victims.
func (c *Cache) snapshotAt(i, s int) Line {
	bit := uint64(1) << uint(i-s*c.ways)
	w := c.state[s]
	return Line{
		Addr:      mem.LineAddr(c.tags[i] - 1),
		EID:       c.eids[i],
		Data:      c.data[i],
		Valid:     true,
		Dirty:     w&(bit<<dShift) != 0,
		Owner:     c.owner[i],
		PrivDirty: w&(bit<<pShift) != 0,
	}
}

// lookupIdx returns the plane index of line l, or -1 on miss. touch
// refreshes LRU and records hit/miss statistics; probes that must not
// disturb replacement state (snoops, scans) pass touch=false.
//
// The scan stays a plain early-exit loop on purpose: a branch-free
// zero-detect mask over the whole set (see DESIGN.md §8 negative
// results) measured ~10% slower end-to-end — the extra ALU work per way
// costs more than the occasional variable-exit mispredict. The per-set
// MRU hint fast path lives hand-inlined in Hierarchy.fetch (hint logic
// here would push lookupIdx past the inlining budget, which costs more
// than the hint saves).
func (c *Cache) lookupIdx(l mem.LineAddr, touch bool) int {
	base := int(uint64(l)&c.setMask) * c.ways
	tag := uint64(l) + 1
	for j, t := range c.tags[base : base+c.ways] {
		if t == tag {
			i := base + j
			if touch {
				c.stamp++
				c.lru[i] = c.stamp
				c.stats.Hits++
			}
			return i
		}
	}
	if touch {
		c.stats.Misses++
	}
	return -1
}

// Lookup returns a ref to the line holding l; the ref is !Ok() on miss.
func (c *Cache) Lookup(l mem.LineAddr, touch bool) LineRef {
	return LineRef{c, int32(c.lookupIdx(l, touch))}
}

// lruWay returns the way holding the minimal LRU stamp, branchless:
// stamps are unique (stamp is a monotone counter and every way of a full
// set holds one), so packing the way index into the low bits keeps the
// min unambiguous and the reduction compiles to a conditional move
// instead of a data-dependent branch that mispredicts on nearly every
// eviction.
// The common associativities get unrolled pairwise reduction trees:
// the naive scan's conditional moves form a serial dependency chain
// (each min depends on the previous), while the tree runs the
// comparisons in parallel, halving the latency of the hottest loop in
// the simulator. The switch on len lets the compiler drop every bounds
// check.
func lruWay(lru []uint64) int {
	switch len(lru) {
	case 8:
		a := lru[0] << 4
		b := lru[1]<<4 | 1
		c := lru[2]<<4 | 2
		d := lru[3]<<4 | 3
		e := lru[4]<<4 | 4
		f := lru[5]<<4 | 5
		g := lru[6]<<4 | 6
		h := lru[7]<<4 | 7
		if b < a {
			a = b
		}
		if d < c {
			c = d
		}
		if f < e {
			e = f
		}
		if h < g {
			g = h
		}
		if c < a {
			a = c
		}
		if g < e {
			e = g
		}
		if e < a {
			a = e
		}
		return int(a & (maxWays - 1))
	case 4:
		a := lru[0] << 4
		b := lru[1]<<4 | 1
		c := lru[2]<<4 | 2
		d := lru[3]<<4 | 3
		if b < a {
			a = b
		}
		if d < c {
			c = d
		}
		if c < a {
			a = c
		}
		return int(a & (maxWays - 1))
	}
	best := lru[0] << 4
	for j := 1; j < len(lru); j++ {
		if v := lru[j]<<4 | uint64(j); v < best {
			best = v
		}
	}
	return int(best & (maxWays - 1))
}

// lruWay4 is the 4-way reduction with the set base folded in, small
// enough to inline into the L1 install path (lruWay's switch is not).
func lruWay4(lru []uint64, base int) int {
	a := lru[base] << 4
	b := lru[base+1]<<4 | 1
	c := lru[base+2]<<4 | 2
	d := lru[base+3]<<4 | 3
	if b < a {
		a = b
	}
	if d < c {
		c = d
	}
	if c < a {
		a = c
	}
	return int(a & (maxWays - 1))
}

// victimSlot picks the way that will receive the missing line l: the
// first free way of the set (one TrailingZeros over the inverted valid
// field — no way scan at all), else the first-minimal-LRU way. evict
// reports whether the slot still holds a valid line, in which case the
// eviction is counted here and the caller gathers whatever victim state
// it needs from the planes before calling installAt.
func (c *Cache) victimSlot(l mem.LineAddr) (i int, evict bool) {
	s := int(uint64(l) & c.setMask)
	base := s * c.ways
	w := c.state[s]
	if v := w & c.fullMask; v != c.fullMask {
		return base + bits.TrailingZeros64(^v), false
	}
	slot := lruWay(c.lru[base : base+c.ways])
	c.stats.Evictions++
	c.stats.DirtyEvictions += (w>>dShift | w>>pShift) >> uint(slot) & 1
	return base + slot, true
}

// installAt writes line l into way i (chosen by victimSlot or a tag
// scan), leaving it most recently used, unowned, and with a clear
// PrivDirty marker. An idx hint left by the way's previous line stays:
// every reader validates it against the tag.
func (c *Cache) installAt(i int, l mem.LineAddr, data mem.Word, eid mem.EpochID, dirty bool) {
	c.stamp++
	c.tags[i] = uint64(l) + 1
	c.lru[i] = c.stamp
	c.data[i] = data
	c.eids[i] = eid
	c.owner[i] = -1
	s := int(uint64(l) & c.setMask)
	c.hint[s] = uint8(i - s*c.ways)
	bit := uint64(1) << uint(i-s*c.ways)
	w := c.state[s] | bit
	if dirty {
		w |= bit << dShift
		c.markDirty(s)
	} else {
		w &^= bit << dShift
	}
	c.state[s] = w &^ (bit << pShift)
}

// Place puts line l with the given contents, evicting the LRU way if the
// set is full, and returns a ref to the resident line so callers can
// keep mutating it without a second way scan. Placing a line that is
// already present overwrites it in place with no eviction.
//
// On eviction the victim's prior contents are returned through a pointer
// into a per-Cache scratch slot (nil when nothing was evicted), so the
// common no-eviction call never copies a whole Line. The pointer is
// valid only until the next Place on the same Cache; the hierarchy
// drains each victim (write-back, back-invalidation of inner copies)
// before it places again on that array.
func (c *Cache) Place(l mem.LineAddr, data mem.Word, eid mem.EpochID, dirty bool) (ln LineRef, victim *Line) {
	base := int(uint64(l)&c.setMask) * c.ways
	tag := uint64(l) + 1
	for j, t := range c.tags[base : base+c.ways] {
		if t == tag {
			// Already present: update in place. Dirty is sticky — a clean
			// re-place must not launder a dirty line.
			i := base + j
			c.hint[base/c.ways] = uint8(j)
			c.stamp++
			c.data[i] = data
			c.eids[i] = eid
			c.lru[i] = c.stamp
			if dirty {
				c.state[base/c.ways] |= (uint64(1) << uint(j)) << dShift
				c.markDirty(base / c.ways)
			}
			return LineRef{c, int32(i)}, nil
		}
	}
	i, evict := c.victimSlot(l)
	if evict {
		c.victim = c.snapshotAt(i, base/c.ways)
		victim = &c.victim
	}
	c.installAt(i, l, data, eid, dirty)
	return LineRef{c, int32(i)}, victim
}

// Invalidate removes line l, returning its prior contents. Only the
// state word and tag are cleared; the stale payload planes are dead
// until the way is reused.
func (c *Cache) Invalidate(l mem.LineAddr) (Line, bool) {
	base := int(uint64(l)&c.setMask) * c.ways
	tag := uint64(l) + 1
	for j, t := range c.tags[base : base+c.ways] {
		if t == tag {
			i := base + j
			s := base / c.ways
			old := c.snapshotAt(i, s)
			bit := uint64(1) << uint(j)
			c.tags[i] = 0
			c.state[s] &^= bit | bit<<dShift | bit<<pShift
			return old, true
		}
	}
	return Line{}, false
}

// drop removes line l, returning its payload only when it was dirty.
// The hierarchy's victim-drain paths need nothing else from the dying
// line, so this skips the full plane-crossing snapshot Invalidate
// builds (owner and PrivDirty are private-cache don't-cares).
func (c *Cache) drop(l mem.LineAddr) (data mem.Word, eid mem.EpochID, dirty, ok bool) {
	i := c.lookupIdx(l, false)
	if i < 0 {
		return 0, 0, false, false
	}
	s, bit := c.setBitOf(l, i)
	w := c.state[s]
	if dirty = w&(bit<<dShift) != 0; dirty {
		data, eid = c.data[i], c.eids[i]
	}
	c.tags[i] = 0
	c.state[s] = w &^ (bit | bit<<dShift | bit<<pShift)
	return data, eid, dirty, true
}

// Scan visits every valid line in plane order; fn may mutate the line
// through the ref. Returning false stops the scan. The walk reads only
// the per-set state words, skipping empty sets in one word test each.
func (c *Cache) Scan(fn func(LineRef) bool) {
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		for w := c.state[s] & c.fullMask; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			if !fn(LineRef{c, int32(base + j)}) {
				return
			}
		}
	}
}

// CountDirty returns how many valid lines are dirty (including PrivDirty
// lines whose fresh data is in inner caches). Pure bitset arithmetic:
// one popcount per set, no line planes touched.
func (c *Cache) CountDirty() int {
	n := 0
	for s := 0; s < c.sets; s++ {
		w := c.state[s]
		n += bits.OnesCount64(w & (w>>dShift | w>>pShift) & c.fullMask)
	}
	return n
}

// Reset invalidates every line (used between experiment runs).
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.lru[i] = 0
		c.data[i] = 0
		c.eids[i] = 0
		c.owner[i] = -1
	}
	for i := range c.idx {
		c.idx[i] = noIdx
	}
	for s := range c.state {
		c.state[s] = 0
		c.hint[s] = 0
	}
	clear(c.dirtySets)
	c.stamp = 0
	c.stats = Stats{}
}
