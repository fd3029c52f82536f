// Package undolog implements the NVM-resident multi-undo log of PiCL
// (paper §III-D, §IV-B) and the bookkeeping the OS performs over it: log
// region allocation, superblock expiration tags, garbage collection, and
// the backward recovery scan. FRM (the undo-logging baseline) reuses the
// same structures with single-epoch validity ranges.
//
// Each entry carries the pre-store data of one cache line plus its
// validity range [ValidFrom, ValidTill): the entry's data was the line's
// value at the end of every epoch E with ValidFrom <= E < ValidTill.
// Entries of different epochs co-mingle freely in one append-only log;
// the only ordering obligation — same-address entries appear oldest-first
// — is inherited from program order and exploited by the backward scan
// ("only the oldest one is valid").
package undolog

import (
	"errors"
	"fmt"

	"picl/internal/mem"
)

// Entry is one undo record (paper Fig. 5a): address tag, validity range,
// and the 64-byte pre-store data (carried as the simulation Word).
type Entry struct {
	Line      mem.LineAddr
	ValidFrom mem.EpochID
	ValidTill mem.EpochID
	Old       mem.Word
}

// Covers reports whether this entry participates in recovery to epoch e.
func (en Entry) Covers(e mem.EpochID) bool {
	return en.ValidFrom.AtMost(e) && e.Before(en.ValidTill)
}

// EntryBytes is the NVM footprint of one entry: 64 B data plus packed
// address and EID tags, padded to keep blocks row-aligned.
const EntryBytes = 72

// BlockBytes is the size of one sequentially written log block, matched
// to the NVM row buffer (paper §III-B: 2 KB on-chip undo buffer).
const BlockBytes = 2048

// EntriesPerBlock is how many undo entries one block write carries.
const EntriesPerBlock = BlockBytes / EntryBytes // 28

// Block is one durable 2 KB sequential write. MaxValidTill is the
// superblock expiration tag the OS uses for garbage collection (paper
// §IV-B: "set its expiration to be the max of the ValidTill field of the
// member entries").
type Block struct {
	Entries      []Entry
	MaxValidTill mem.EpochID
}

// DefaultRegionBytes is the OS's initial log allocation (paper §IV-B
// suggests e.g. 128 MB).
const DefaultRegionBytes = 128 << 20

// Log is the append-only undo log plus its OS-side region accounting.
// Blocks are stored oldest-first; garbage collection trims the expired
// prefix (MaxValidTill is nondecreasing across blocks because ValidTill
// is assigned from the monotonically increasing SystemEID).
type Log struct {
	blocks []Block
	// start is the index of the oldest live block within the conceptual
	// infinite log (blocks[0] is block number start).
	start uint64

	regionBytes  uint64
	liveBytes    uint64
	peakBytes    uint64
	totalAppends uint64
	totalBytes   uint64
	grows        uint64
	reclaimed    uint64

	// free recycles entry arrays from GC'd blocks back into AppendBlock,
	// keeping the steady-state append path allocation-free (the log region
	// is fixed NVM; appends should not churn the Go heap). Bounded so a
	// GC burst cannot pin unbounded memory.
	free [][]Entry
}

// NewLog allocates a log with the given region capacity in bytes
// (DefaultRegionBytes if <= 0).
func NewLog(regionBytes uint64) *Log {
	if regionBytes == 0 {
		regionBytes = DefaultRegionBytes
	}
	return &Log{regionBytes: regionBytes}
}

// AppendBlock durably appends one block of entries (one 2 KB sequential
// NVM write; the caller accounts the device timing). If the region is
// exhausted, the OS is interrupted to grow it (counted in Grows).
func (l *Log) AppendBlock(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	var maxTill mem.EpochID
	for _, e := range entries {
		if e.ValidTill.After(maxTill) {
			maxTill = e.ValidTill
		}
	}
	var cp []Entry
	if k := len(l.free); k > 0 && cap(l.free[k-1]) >= len(entries) {
		cp = l.free[k-1][:len(entries)]
		l.free = l.free[:k-1]
	} else {
		cp = make([]Entry, len(entries))
	}
	copy(cp, entries)
	l.push(Block{Entries: cp, MaxValidTill: maxTill})
}

// push appends b as it is and accounts its 2 KB write.
func (l *Log) push(b Block) {
	l.blocks = append(l.blocks, b)
	l.liveBytes += BlockBytes
	l.totalBytes += BlockBytes
	l.totalAppends++
	if l.liveBytes > l.peakBytes {
		l.peakBytes = l.liveBytes
	}
	for l.liveBytes > l.regionBytes {
		// OS interrupt: allocate another region chunk. Allocations need
		// not be contiguous (paper §IV-B), so growth is just accounting.
		l.regionBytes *= 2
		l.grows++
	}
}

// TruncateTo rolls the log back to n total appended blocks (crash
// support: appends whose NVM writes had not completed are not durable).
// It panics if n is below the GC'd prefix — GC only reclaims blocks whose
// epochs are fully persisted, which a crash can never un-persist.
func (l *Log) TruncateTo(n uint64) {
	if n < l.start {
		panic(fmt.Sprintf("undolog: truncate to %d below GC'd prefix %d", n, l.start))
	}
	keep := n - l.start
	if keep > uint64(len(l.blocks)) {
		return
	}
	dropped := uint64(len(l.blocks)) - keep
	l.blocks = l.blocks[:keep]
	l.liveBytes -= dropped * BlockBytes
	l.totalBytes -= dropped * BlockBytes
	l.totalAppends -= dropped
}

// Blocks returns the total number of blocks ever appended (the durable
// watermark used with TruncateTo).
func (l *Log) Blocks() uint64 { return l.start + uint64(len(l.blocks)) }

// GC reclaims the expired prefix: blocks whose MaxValidTill <= persisted
// are no longer needed to recover any epoch >= persisted. Returns bytes
// reclaimed.
func (l *Log) GC(persisted mem.EpochID) uint64 {
	n := 0
	for n < len(l.blocks) && l.blocks[n].MaxValidTill.AtMost(persisted) {
		n++
	}
	if n == 0 {
		return 0
	}
	for i := 0; i < n && len(l.free) < 64; i++ {
		l.free = append(l.free, l.blocks[i].Entries)
	}
	l.blocks = append(l.blocks[:0], l.blocks[n:]...)
	l.start += uint64(n)
	freed := uint64(n) * BlockBytes
	l.liveBytes -= freed
	l.reclaimed += freed
	return freed
}

// ApplyTo patches image img back to the end-of-epoch state of persisted,
// scanning blocks from the tail backward with Block.Apply, and stopping
// at the first block whose MaxValidTill <= persisted — everything older
// is expired. It returns the number of entries applied and blocks
// scanned (the stop block not included).
func (l *Log) ApplyTo(img *mem.Image, persisted mem.EpochID) (applied, scanned int) {
	for i := len(l.blocks) - 1; i >= 0; i-- {
		n, stop := l.blocks[i].Apply(img, persisted)
		if stop {
			break
		}
		applied += n
		scanned++
	}
	return applied, scanned
}

// Apply is one step of the backward recovery scan (paper §IV-B), shared
// by Log.ApplyTo and the durable store's streamed scan: a block whose
// expiration tag is at or before persisted ends the scan (stop), since
// it and every block older than it are expired. Otherwise the block's
// entries covering persisted are written to img in reverse, so the
// oldest entry for an address, applied last, wins; it returns how many.
func (b *Block) Apply(img *mem.Image, persisted mem.EpochID) (applied int, stop bool) {
	if b.MaxValidTill.AtMost(persisted) {
		return 0, true
	}
	for j := len(b.Entries) - 1; j >= 0; j-- {
		if e := b.Entries[j]; e.Covers(persisted) {
			img.Write(e.Line, e.Old)
			applied++
		}
	}
	return applied, false
}

// LiveBytes is the current durable log footprint.
func (l *Log) LiveBytes() uint64 { return l.liveBytes }

// PeakBytes is the high-water footprint (Fig. 13's log-storage metric).
func (l *Log) PeakBytes() uint64 { return l.peakBytes }

// TotalBytes is the cumulative bytes ever appended (monotone except for
// crash truncation).
func (l *Log) TotalBytes() uint64 { return l.totalBytes }

// Grows counts OS region-growth interrupts.
func (l *Log) Grows() uint64 { return l.grows }

// Reclaimed is cumulative garbage-collected bytes.
func (l *Log) Reclaimed() uint64 { return l.reclaimed }

// CheckOrdered verifies the nondecreasing MaxValidTill invariant that
// both GC and the recovery early-stop depend on.
func (l *Log) CheckOrdered() error {
	for i := 1; i < len(l.blocks); i++ {
		if l.blocks[i].MaxValidTill.Before(l.blocks[i-1].MaxValidTill) {
			return errors.New("undolog: block expiration tags out of order")
		}
	}
	return nil
}

// Buffer is the on-chip undo buffer (paper §III-B): a small staging area
// that coalesces undo entries until a full block can be written
// sequentially. The bloom-filter dependency check lives with the scheme;
// the buffer only stages entries.
type Buffer struct {
	entries  []Entry
	capacity int
}

// NewBuffer returns a buffer holding capacity entries (the paper uses 32
// entries ~ 2 KB; we use EntriesPerBlock to exactly fill a block).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = EntriesPerBlock
	}
	return &Buffer{capacity: capacity, entries: make([]Entry, 0, capacity)}
}

// Add stages an entry and reports whether the buffer is now full.
func (b *Buffer) Add(e Entry) bool {
	b.entries = append(b.entries, e)
	return len(b.entries) >= b.capacity
}

// Len reports staged entries.
func (b *Buffer) Len() int { return len(b.entries) }

// Cap reports the configured capacity.
func (b *Buffer) Cap() int { return b.capacity }

// OldestValidTill returns the smallest ValidTill among staged entries
// (NoEpoch if empty) — ACS flushes the buffer when persisting an epoch
// that matches the oldest staged entry.
func (b *Buffer) OldestValidTill() mem.EpochID {
	if len(b.entries) == 0 {
		return mem.NoEpoch
	}
	minTill := b.entries[0].ValidTill
	for _, e := range b.entries[1:] {
		if e.ValidTill.Before(minTill) {
			minTill = e.ValidTill
		}
	}
	return minTill
}

// Drain removes and returns all staged entries. The returned slice
// aliases the buffer's backing array and is overwritten by subsequent
// Adds: callers must finish with it (or copy) before staging again.
// Reusing the array keeps the hot store path allocation-free — the SRAM
// buffer is fixed hardware, it should not churn the Go heap.
func (b *Buffer) Drain() []Entry {
	out := b.entries
	b.entries = b.entries[:0]
	return out
}
