// Package cache implements the SRAM cache hierarchy of the evaluated
// system (paper Table IV): per-core private L1 and L2 plus a shared,
// inclusive last-level cache, all write-back with LRU replacement. Cache
// lines carry the PiCL epoch-ID (EID) tag and a dirty bit, held once per
// line in its LLC way (the private levels keep tags); the hierarchy
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
// A snapshot from a private level (Hierarchy.L1, L2) carries the
// address alone: its state lives in the line's LLC record.
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
	Hits, Misses uint64
	Evictions    uint64
}

// The per-set state word packs two way bitsets into one uint64, so
// every flag read, install, and invalidation is a single word
// load/store: bit j is way j's valid bit and bit dShift+j its dirty
// bit, so the word shifted right by dShift is the set's dirty ways.
// maxWays keeps the two fields disjoint.
const (
	maxWays = 16
	dShift  = 16
	// wayBits is way 0's valid and dirty bits; shifted left by j, way j's.
	wayBits = 1 | 1<<dShift
)

// Cache is a set-associative, LRU, write-back cache array laid out as a
// structure of arrays: one dense plane per field instead of an array of
// Line structs.
//
// Way scans — the single hottest operation in the whole simulator, every
// access runs several of them — touch only the plane they need: the tag
// scan reads the set's tag words from one host cache line, the victim
// pick reads one recency word, and the flush/ACS walks read the per-set
// state words and the EID plane without ever striding 32-byte structs.
// The Valid/Dirty flags live packed in one state word per set (see
// dShift), so "any free way" and "any dirty line in this set" are
// single word tests, and free-way selection is one
// bits.TrailingZeros64. Recency is one order word per set (see order):
// the LRU victim is one shift, and the MRU way one mask.
//
// A cache built by New (the LLC, or a standalone array) has every plane
// but idx. A hierarchy's private levels (newPrivate) have only tags,
// state (valid bits alone), order and idx: a privately held line's
// data, EID and dirty bit live in its LLC way, the one record of the
// line (see Hierarchy).
//
// Invariants: bit j of state[s] is set exactly when tags[s*ways+j] != 0,
// and then tags[i] == uint64(addr)+1; dirty bits are only ever set for
// valid ways. Every mutation point (Place, victimSlot+installAt,
// Invalidate, Reset, the LineRef setters) maintains this. order[s]
// always holds each of the set's ways at exactly one of its low `ways`
// ranks and zero above them. In the LLC, bit s of dirtySets is set
// whenever set s holds a dirty way (see dirtySets).
type Cache struct {
	cfg     Config
	sets    int
	setMask uint64
	ways    int
	// fullMask has the low `ways` bits set: the valid field of a full set.
	fullMask uint64
	// lruShift is the bit offset of rank ways-1 in an order word: the
	// least recently used way's nibble.
	lruShift uint

	tags  []uint64      // per line: addr+1, or 0 when invalid
	data  []mem.Word    // per line: payload (nil in a private level)
	eids  []mem.EpochID // per line: epoch tag (nil in a private level)
	owner []int8        // per line: private holder (-1 none; nil in a private level)
	state []uint64      // per set: valid | dirty<<dShift
	// order is each set's recency word: nibble k holds the way at recency
	// rank k, rank 0 the most recently touched way and rank ways-1 the
	// least, with every nibble above rank ways-1 zero. A touch (a hit or
	// an install) moves its way to rank 0; maxWays nibbles fill the word.
	// A full set's victim is the way at rank ways-1, which is the way with
	// the first minimal stamp under a per-access stamp counter: stamps
	// are unique and only grow, so the least recently touched way holds
	// the smallest one (DESIGN.md §8.3).
	order []uint64
	// dirtySets summarizes the state words for the bulk scan: bit s%64 of
	// word s/64 is set whenever set s holds a dirty way, so
	// Hierarchy.FlushDirty visits only flagged sets instead of every
	// state word. The invariant is one-way and holds for the LLC: every
	// transition that sets a dirty bit there marks the set (Hierarchy's
	// Store, plus installAt, Place and SetDirty on any cache); only
	// FlushDirty clears a bit, once its set holds no dirty way, and Reset
	// clears them all. A stale bit costs one wasted visit, never a missed
	// line. Nil in a private level.
	dirtySets []uint64
	// idx holds, per private-level line, the LLC way holding the line's
	// record. It is exact for every valid line, never a hint: the LLC way
	// of a resident line never moves, and every path that takes a line
	// out of the LLC first drops its private copies (CheckInclusion
	// verifies it). Only the private levels have the plane (newPrivate).
	idx []int32

	stats Stats
	// victim is Place's eviction scratch slot; see Place.
	victim Line
}

// Validate reports why cfg cannot build a cache: a non-positive size or
// associativity, more ways than the packed per-set words hold
// (maxWays), or a set count that is not a power of two.
func (cfg Config) Validate() error {
	if cfg.Ways <= 0 || cfg.Size <= 0 {
		return fmt.Errorf("cache %q: invalid geometry %+v", cfg.Name, cfg)
	}
	if cfg.Ways > maxWays {
		return fmt.Errorf("cache %q: %d ways exceed the %d-way packed state words", cfg.Name, cfg.Ways, maxWays)
	}
	if sets := cfg.sets(); sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", cfg.Name, sets)
	}
	return nil
}

// sets is the set count cfg builds: its lines divided among the ways,
// at least one.
func (cfg Config) sets() int {
	return max(cfg.Size/mem.LineSize/cfg.Ways, 1)
}

// New builds a cache with every state plane. It panics on a geometry
// Validate refuses.
func New(cfg Config) *Cache {
	c := newTags(cfg)
	n := len(c.tags)
	c.data = make([]mem.Word, n)
	c.eids = make([]mem.EpochID, n)
	c.owner = make([]int8, n)
	for i := range c.owner {
		c.owner[i] = -1
	}
	c.dirtySets = make([]uint64, (c.sets+63)/64)
	return c
}

// newPrivate builds a private-level cache (an L1 or L2): tags, valid
// bits, recency words and the idx plane of LLC indices, and no state
// planes.
func newPrivate(cfg Config) *Cache {
	c := newTags(cfg)
	c.idx = make([]int32, len(c.tags))
	return c
}

// newTags builds the planes every cache has: tags, state words and
// recency words. It panics on a geometry Validate refuses.
func newTags(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	sets := cfg.sets()
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(sets - 1),
		ways:     cfg.Ways,
		fullMask: (uint64(1) << uint(cfg.Ways)) - 1,
		lruShift: uint(4 * (cfg.Ways - 1)),
		tags:     make([]uint64, sets*cfg.Ways),
		state:    make([]uint64, sets),
		order:    make([]uint64, sets),
	}
	for s := range c.order {
		c.order[s] = identityOrder(c.ways)
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
// is evicted or invalidated. A ref into a private level (Hierarchy.L1,
// L2) carries no state: Ok, Addr and Snapshot work, Dirty reads false,
// and the other accessors panic.
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

// Snapshot copies the line state out as a value.
func (r LineRef) Snapshot() Line {
	s := int(r.i) / r.c.ways
	return r.c.snapshotAt(int(r.i), s)
}

// snapshotAt gathers way i (in set s) from all planes into a Line value.
// This is the one deliberately plane-crossing read path. A private
// level has no state planes, so its snapshot is the address alone.
func (c *Cache) snapshotAt(i, s int) Line {
	ln := Line{
		Addr:  mem.LineAddr(c.tags[i] - 1),
		Valid: true,
		Dirty: c.state[s]&(uint64(1)<<uint(i-s*c.ways)<<dShift) != 0,
		Owner: -1,
	}
	if c.data != nil {
		ln.EID, ln.Data, ln.Owner = c.eids[i], c.data[i], c.owner[i]
	}
	return ln
}

// identityOrder is the recency word of a set nothing has touched: way k
// at rank k for each of the ways, zero above.
func identityOrder(ways int) uint64 {
	return 0xFEDCBA9876543210 & (uint64(1)<<uint(4*ways) - 1)
}

// nibbles has a 1 in every nibble: the SWAR broadcast and borrow
// constant of toFront.
const nibbles = 0x1111111111111111

// toFront returns the recency word order with way w moved to rank 0 and
// the ways ranked ahead of it moved back one rank each. w's rank is
// found by SWAR: the nibbles of x are zero exactly where order holds w,
// and the zero-nibble test's lowest flag is exact (borrows run only
// upwards, out of a zero nibble), so it marks w's rank even where a
// zero rank above ways-1 also matches w == 0. m then covers ranks 0..r.
func toFront(order uint64, w int) uint64 {
	x := order ^ uint64(w)*nibbles
	t := (x - nibbles) &^ x & (nibbles << 3)
	m := t ^ (t - 1)
	return order&^m | order<<4&m | uint64(w)
}

// lru returns the least recently used way of recency word o: the way at
// rank ways-1, one shift because every higher rank is zero.
func (c *Cache) lru(o uint64) int { return int(o >> c.lruShift) }

// find returns the plane index of line l, or -1 on miss: the bare tag
// scan, touching neither recency nor statistics. fetch's LLC probe and
// the checks go through it; demand accesses go through lookup, which
// adds the recency update and the hit or miss count.
//
// The scan stays a plain early-exit loop on purpose: a branch-free
// zero-detect mask over the whole set (see DESIGN.md §8 negative
// results) measured ~10% slower end-to-end — the extra ALU work per way
// costs more than the occasional variable-exit mispredict. Keeping the
// bookkeeping out keeps find inlinable at every probe site.
func (c *Cache) find(l mem.LineAddr) int {
	base := int(uint64(l)&c.setMask) * c.ways
	tag := uint64(l) + 1
	for j, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base + j
		}
	}
	return -1
}

// hit records a demand hit on plane index i, which holds line l: its way
// moves to rank 0 of the set's recency word.
func (c *Cache) hit(l mem.LineAddr, i int) {
	s := int(uint64(l) & c.setMask)
	c.order[s] = toFront(c.order[s], i-s*c.ways)
	c.stats.Hits++
}

// lookup is find for touch=false; for touch=true it is a demand probe,
// find then a hit or a counted miss.
func (c *Cache) lookup(l mem.LineAddr, touch bool) int {
	i := c.find(l)
	if touch {
		if i >= 0 {
			c.hit(l, i)
		} else {
			c.stats.Misses++
		}
	}
	return i
}

// Lookup returns a ref to the line holding l; the ref is !Ok() on miss.
// touch makes it a demand access (recency and hit/miss statistics);
// probes that must not disturb replacement state pass touch=false.
func (c *Cache) Lookup(l mem.LineAddr, touch bool) LineRef {
	return LineRef{c, int32(c.lookup(l, touch))}
}

// victimSlot picks the way that will receive the missing line l: the
// first free way of the set (one TrailingZeros over the inverted valid
// field — no way scan at all), else the least recently used way, read
// off rank ways-1 of the recency word. evict reports whether the slot
// still holds a valid line, in which case the eviction is counted here
// and the caller gathers whatever victim state it needs from the planes
// before calling installAt.
func (c *Cache) victimSlot(l mem.LineAddr) (i int, evict bool) {
	s := int(uint64(l) & c.setMask)
	if v := c.state[s] & c.fullMask; v != c.fullMask {
		return s*c.ways + bits.TrailingZeros64(^v), false
	}
	c.stats.Evictions++
	return s*c.ways + c.lru(c.order[s]), true
}

// installAt writes line l into way i (chosen by victimSlot or a tag
// scan), leaving it most recently used and unowned.
func (c *Cache) installAt(i int, l mem.LineAddr, data mem.Word, eid mem.EpochID, dirty bool) {
	c.tags[i] = uint64(l) + 1
	c.data[i] = data
	c.eids[i] = eid
	c.owner[i] = -1
	s := int(uint64(l) & c.setMask)
	c.order[s] = toFront(c.order[s], i-s*c.ways)
	bit := uint64(1) << uint(i-s*c.ways)
	w := c.state[s] | bit
	if dirty {
		w |= bit << dShift
		c.markDirty(s)
	} else {
		w &^= bit << dShift
	}
	c.state[s] = w
}

// Place puts line l with the given contents, evicting the LRU way if the
// set is full, and returns a ref to the resident line so callers can
// keep mutating it without a second way scan. Placing a line that is
// already present overwrites it in place with no eviction.
//
// On eviction the victim's prior contents are returned through a pointer
// into a per-Cache scratch slot (nil when nothing was evicted), so the
// common no-eviction call never copies a whole Line. The pointer is
// valid only until the next Place on the same Cache. A private level
// has no state planes to place into.
func (c *Cache) Place(l mem.LineAddr, data mem.Word, eid mem.EpochID, dirty bool) (ln LineRef, victim *Line) {
	s := int(uint64(l) & c.setMask)
	if i := c.find(l); i >= 0 {
		// Already present: update in place. Dirty is sticky — a clean
		// re-place must not launder a dirty line.
		j := i - s*c.ways
		c.order[s] = toFront(c.order[s], j)
		c.data[i] = data
		c.eids[i] = eid
		if dirty {
			c.state[s] |= (uint64(1) << uint(j)) << dShift
			c.markDirty(s)
		}
		return LineRef{c, int32(i)}, nil
	}
	i, evict := c.victimSlot(l)
	if evict {
		c.victim = c.snapshotAt(i, s)
		victim = &c.victim
	}
	c.installAt(i, l, data, eid, dirty)
	return LineRef{c, int32(i)}, victim
}

// Invalidate removes line l, returning its prior contents. Only the
// state word and tag are cleared; the stale payload planes are dead
// until the way is reused.
func (c *Cache) Invalidate(l mem.LineAddr) (Line, bool) {
	i := c.find(l)
	if i < 0 {
		return Line{}, false
	}
	s, bit := c.setBitOf(l, i)
	old := c.snapshotAt(i, s)
	c.tags[i] = 0
	c.state[s] &^= bit * wayBits
	return old, true
}

// drop removes line l from a private level, if it holds it: the
// back-invalidation of an LLC eviction, an L2 eviction's L1 copy, or a
// migration. A private line has no state to hand back, so this is a tag
// scan and two word stores. It scans the tags itself rather than
// through find: find plus the way arithmetic would push it past the
// inlining budget.
func (c *Cache) drop(l mem.LineAddr) {
	s := int(uint64(l) & c.setMask)
	base := s * c.ways
	for j, t := range c.tags[base : base+c.ways] {
		if t == uint64(l)+1 {
			c.tags[base+j] = 0
			c.state[s] &^= 1 << uint(j)
			return
		}
	}
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

// CountDirty returns how many valid lines are dirty. Pure bitset
// arithmetic: one popcount per set, no line planes touched.
func (c *Cache) CountDirty() int {
	n := 0
	for _, w := range c.state {
		n += bits.OnesCount64(w >> dShift)
	}
	return n
}

// Reset invalidates every line and restores every set's identity
// recency order (used between experiment runs). The idx plane keeps its
// words: only a valid line's is ever read.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.data)
	clear(c.eids)
	for i := range c.owner {
		c.owner[i] = -1
	}
	clear(c.state)
	for s := range c.order {
		c.order[s] = identityOrder(c.ways)
	}
	clear(c.dirtySets)
	c.stats = Stats{}
}
