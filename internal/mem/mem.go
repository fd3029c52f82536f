// Package mem defines the primitive types shared by every layer of the
// PiCL simulation stack: physical addresses, cache-line addresses, epoch
// identifiers (including the 4-bit hardware tag arithmetic from the paper),
// and a sparse byte-addressable memory image used for functional
// verification of crash recovery.
package mem

import (
	"fmt"
	"slices"
)

// Line geometry. The paper's evaluated system uses 64-byte cache lines
// throughout (the OpenPiton prototype tracks 16-byte sub-blocks; see
// SubBlockSize and the hwcost experiment).
const (
	LineSize     = 64   // bytes per cache line
	LineShift    = 6    // log2(LineSize)
	SubBlockSize = 16   // OpenPiton private-cache block size (paper §V-A)
	PageSize     = 4096 // bytes per OS page (Shadow-Paging / ThyNVM granularity)
	PageShift    = 12   // log2(PageSize)
	LinesPerPage = PageSize / LineSize
)

// Addr is a physical byte address.
type Addr uint64

// LineAddr is a cache-line-aligned address expressed in line units
// (byte address >> LineShift). Using line units rather than byte
// addresses in the hot simulation paths avoids repeated shifting and
// makes accidental misalignment impossible by construction.
type LineAddr uint64

// PageAddr is a page-aligned address in page units.
type PageAddr uint64

// Line returns the cache line containing byte address a.
func (a Addr) Line() LineAddr { return LineAddr(a >> LineShift) }

// Page returns the page containing byte address a.
func (a Addr) Page() PageAddr { return PageAddr(a >> PageShift) }

// Addr returns the first byte address of the line.
func (l LineAddr) Addr() Addr { return Addr(l) << LineShift }

// Page returns the page containing the line.
func (l LineAddr) Page() PageAddr { return PageAddr(l >> (PageShift - LineShift)) }

// Addr returns the first byte address of the page.
func (p PageAddr) Addr() Addr { return Addr(p) << PageShift }

// FirstLine returns the first line of the page.
func (p PageAddr) FirstLine() LineAddr { return LineAddr(p) << (PageShift - LineShift) }

func (a Addr) String() string     { return fmt.Sprintf("0x%x", uint64(a)) }
func (l LineAddr) String() string { return fmt.Sprintf("L0x%x", uint64(l)) }
func (p PageAddr) String() string { return fmt.Sprintf("P0x%x", uint64(p)) }

// EpochID identifies a checkpoint epoch. The simulator carries the full
// monotonically increasing value; real PiCL hardware stores only a small
// tag (TagBits wide) per cache line, which is unambiguous as long as the
// system enforces SystemEID-PersistedEID < 2^TagBits-1 (the ACS engine
// provides exactly that bound). TagOf/ResolveTag model the hardware
// truncation and are exercised by tests to show the 4-bit scheme is safe.
type EpochID uint64

// NoEpoch marks a cache line that has no epoch association yet (a line
// freshly loaded from memory, never stored to). The paper: "A line loaded
// from the memory to the LLC initially has no EID associated."
const NoEpoch EpochID = ^EpochID(0)

// TagBits is the hardware EID tag width (paper §IV-A: "4-bit values are
// sufficient").
const TagBits = 4

// TagMask selects the stored tag bits.
const TagMask = (1 << TagBits) - 1

// EpochTag is the truncated hardware representation of an EpochID.
type EpochTag uint8

// Tag returns the hardware tag for e.
func (e EpochID) Tag() EpochTag { return EpochTag(e & TagMask) }

// ResolveTag reconstructs the full EpochID for a hardware tag t observed
// while the system's current epoch is system. The reconstruction is the
// unique EpochID e <= system with e.Tag() == t and system-e < 2^TagBits;
// it is only valid under the ACS-gap invariant documented on EpochID.
func ResolveTag(t EpochTag, system EpochID) EpochID {
	delta := (EpochTag(system&TagMask) - t) & TagMask
	return system - EpochID(delta)
}

// Epoch ordering and arithmetic helpers. Full EpochIDs are monotone
// uint64s, so the operations below are plain integer ops — but they are
// the ONLY place raw EID comparison and subtraction are allowed: every
// other package must route epoch ordering through these helpers (the
// picl-lint eidcmp rule enforces it). Centralizing the arithmetic keeps
// the 4-bit hardware truncation from leaking: a tag observed in a cache
// array must pass through ResolveTag before it may meet a full EID, and
// a raw `<` on a tag-width value silently inverts across the 15→0
// rollover. NoEpoch is all-ones and therefore sorts after every real
// epoch, which is exactly the "never flushed by an ACS pass over real
// epochs" behavior the cache scan relies on.

// Before reports whether e is strictly older than o.
func (e EpochID) Before(o EpochID) bool { return e < o }

// AtMost reports whether e is no newer than o (e <= o).
func (e EpochID) AtMost(o EpochID) bool { return e <= o }

// After reports whether e is strictly newer than o.
func (e EpochID) After(o EpochID) bool { return e > o }

// AtLeast reports whether e is no older than o (e >= o).
func (e EpochID) AtLeast(o EpochID) bool { return e >= o }

// Gap returns how many epochs e leads o by (e - o), saturating at zero
// when o is newer. The ACS engine compares this against the tag-space
// bound: the live range [Persisted, System] must keep
// System.Gap(Persisted) < TagMask or in-flight tags become ambiguous.
func (e EpochID) Gap(o EpochID) uint64 {
	if e < o {
		return 0
	}
	return uint64(e - o)
}

// Minus returns the epoch n before e, saturating at epoch 0 (the
// pristine pre-epoch-1 state) instead of wrapping to NoEpoch territory.
func (e EpochID) Minus(n uint64) EpochID {
	if uint64(e) < n {
		return 0
	}
	return e - EpochID(n)
}

// Word is the per-line payload carried through the simulation. Real
// hardware moves 64-byte lines; carrying a single 64-bit digest per line
// preserves every property the crash-consistency machinery depends on
// (which version of the line is where) at 1/8 the memory cost. Payload
// values are derived from (line, epoch, sequence) so that any stale or
// misordered restore is detected by the golden-state checker.
type Word uint64

// PayloadFor derives the canonical payload written by store number seq of
// epoch e to line l. It is a cheap 64-bit mix (xorshift-multiply) chosen
// so distinct inputs virtually never collide in tests.
func PayloadFor(l LineAddr, e EpochID, seq uint64) Word {
	x := uint64(l)*0x9e3779b97f4a7c15 ^ uint64(e)*0xbf58476d1ce4e5b9 ^ seq*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 27
	return Word(x)
}

// Image is a sparse line-granular memory image: the functional contents of
// main memory (NVM). Lines never written remain at the zero Word. The
// image is a table of dense pages, LinesPerPage lines each: a page is
// allocated when one of its lines first holds non-zero content and
// dropped when its last one returns to zero, so a dense footprint costs
// one word per line and no hashing per line.
//
// An Image can additionally record its own history (EnableHistory): each
// write logs the line's pre-write content the first time the line changes
// after a mark, and Mark seals those first-touch deltas as one snapshot
// boundary. Any marked state is then reconstructible with At at a cost of
// O(live lines + lines written since), and the whole history costs
// O(total lines written) memory — the copy-on-write replacement for
// cloning the full image at every snapshot point.
type Image struct {
	pages map[PageAddr]*page
	n     int // lines holding non-zero content

	track bool
	// cur holds the pre-write content of every line changed since the
	// last mark (first touch only). undo[j] is the sealed delta that
	// rewinds the state at mark j+1 back to the state at mark j (mark 0
	// being the state when history was enabled).
	cur  map[LineAddr]Word
	undo []map[LineAddr]Word
}

// page is one page of an image's lines and how many of them are
// non-zero (never 0 for a page in the table).
type page struct {
	w [LinesPerPage]Word
	n int
}

// NewImage returns an empty memory image.
func NewImage() *Image { return &Image{pages: make(map[PageAddr]*page)} }

// Read returns the current content of line l (zero if never written).
func (im *Image) Read(l LineAddr) Word {
	if p := im.pages[l.Page()]; p != nil {
		return p.w[l%LinesPerPage]
	}
	return 0
}

// Write sets the content of line l.
func (im *Image) Write(l LineAddr, w Word) {
	if im.track {
		if _, seen := im.cur[l]; !seen {
			im.cur[l] = im.Read(l)
		}
	}
	k := l.Page()
	p := im.pages[k]
	if p == nil {
		if w == 0 {
			return
		}
		p = new(page)
		im.pages[k] = p
	}
	old := p.w[l%LinesPerPage]
	p.w[l%LinesPerPage] = w
	switch {
	case old == 0 && w != 0:
		p.n++
		im.n++
	case old != 0 && w == 0:
		p.n--
		im.n--
		if p.n == 0 {
			delete(im.pages, k)
		}
	}
}

// EnableHistory starts history recording. The current state becomes
// mark 0. Must be called before any tracked writes; enabling history on
// an image already carrying content treats that content as mark 0.
func (im *Image) EnableHistory() {
	im.track = true
	im.cur = make(map[LineAddr]Word)
}

// Mark seals the delta accumulated since the previous mark and returns
// the new mark count. The image's current state becomes mark Marks().
func (im *Image) Mark() int {
	im.undo = append(im.undo, im.cur)
	im.cur = make(map[LineAddr]Word, len(im.cur))
	return len(im.undo)
}

// Marks reports how many marks have been sealed.
func (im *Image) Marks() int { return len(im.undo) }

// At reconstructs a deep copy of the image as it was at mark k
// (0 <= k <= Marks(); mark Marks() is the most recently sealed state).
// The returned image does not carry history.
func (im *Image) At(k int) *Image {
	if !im.track || k < 0 || k > len(im.undo) {
		panic(fmt.Sprintf("mem: no history mark %d (have %d)", k, len(im.undo)))
	}
	out := im.Clone()
	apply := func(delta map[LineAddr]Word) {
		for l, w := range delta {
			out.Write(l, w)
		}
	}
	apply(im.cur)
	for j := len(im.undo) - 1; j >= k; j-- {
		apply(im.undo[j])
	}
	return out
}

// Len reports how many lines hold non-zero content.
func (im *Image) Len() int { return im.n }

// Each calls fn for every line holding non-zero content, in ascending
// address order, so output built from it (the durable image's
// compaction in internal/storage) is a function of the content alone.
func (im *Image) Each(fn func(LineAddr, Word)) {
	for _, k := range im.pageOrder(nil) {
		first := k.FirstLine()
		for i, w := range &im.pages[k].w {
			if w != 0 {
				fn(first+LineAddr(i), w)
			}
		}
	}
}

// pageOrder returns the page numbers of im's table and of other's (nil
// for none), ascending and each once.
func (im *Image) pageOrder(other *Image) []PageAddr {
	keys := make([]PageAddr, 0, len(im.pages))
	for k := range im.pages {
		keys = append(keys, k)
	}
	if other != nil {
		for k := range other.pages {
			if im.pages[k] == nil {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// Clone returns a deep copy of the image (used by the golden checker to
// snapshot end-of-epoch states in small functional runs). Its pages are
// allocated together in one slab.
func (im *Image) Clone() *Image {
	c := &Image{pages: make(map[PageAddr]*page, len(im.pages)), n: im.n}
	slab := make([]page, len(im.pages))
	i := 0
	for k, p := range im.pages {
		slab[i] = *p
		c.pages[k] = &slab[i]
		i++
	}
	return c
}

// Equal reports whether two images hold identical content.
func (im *Image) Equal(other *Image) bool {
	if im.n != other.n || len(im.pages) != len(other.pages) {
		return false
	}
	for k, p := range im.pages {
		if q := other.pages[k]; q == nil || q.w != p.w {
			return false
		}
	}
	return true
}

// Diff returns up to max lines on which the two images differ, in
// ascending address order, for diagnostic messages from the recovery
// checker.
func (im *Image) Diff(other *Image, max int) []LineAddr {
	var out []LineAddr
	var zero page
	for _, k := range im.pageOrder(other) {
		p, q := im.pages[k], other.pages[k]
		if p == nil {
			p = &zero
		}
		if q == nil {
			q = &zero
		}
		for i := range p.w {
			if p.w[i] == q.w[i] {
				continue
			}
			if out = append(out, k.FirstLine()+LineAddr(i)); len(out) >= max {
				return out
			}
		}
	}
	return out
}
