// Package fault is a deterministic storage fault injector: a
// storage.Wrapper that interposes on a durable store's three components
// (undo log, image file, marker) and injects per-operation failures
// from a splitmix64-seeded schedule — torn appends, short writes,
// failing or silently dropped syncs, failing commits, ENOSPC,
// single-bit rot in cold log blocks and image records, and a scheduled
// power cut at operation N.
//
// Determinism contract (DESIGN.md §11): every injection decision is a
// pure function of (seed, operation index, decision class). The
// operation index is a single counter shared by all three wrapped
// components, advanced once per intercepted mutating call, so a machine
// driven by a deterministic workload sees a reproducible fault sequence
// — the whole campaign failure collapses to one (seed, schedule) pair.
//
// Fault model boundaries, chosen so that every injected fault is either
// survivable or detectably fatal (never silently corrupting):
//
//   - A silently dropped sync is modeled as the data SURVIVING a later
//     power cut (the device acknowledged; treating acknowledged data as
//     lost would manufacture corruption the recovery contract cannot be
//     expected to survive). What it exercises is the accounting path.
//   - Bit rot strikes only log blocks of the prefix the last sealed
//     commit names, which recovery reads whole, so it MUST surface as a
//     hard undolog.ErrCorruptBlock, never pass with the unsynced blocks
//     recovery drops behind that prefix.
//   - Image rot likewise strikes only image records with a sealed batch
//     behind them, so it MUST surface as a hard storage.ErrCorruptImage.
//     (Rot in the final batch reads as a torn batch and recovers one
//     commit back; the storage tests cover it.)
//   - A power cut keeps the log up to the last acknowledged-sync
//     watermark; every block appended since lands whole, as zeros, as
//     garbage or torn, each independently of the others, in any order
//     a page cache may write them back. The log is reused in place
//     (Rewind), so an append can overwrite a stale block: unwritten, it
//     leaves that old, CRC-valid block where it went, and torn, the old
//     block's tail behind its own head. A Rewind lowers the watermark
//     with it. The cut discards the image's staged records, optionally
//     tearing the commit the next marker Set would make: a prefix of
//     it, or — out of order — its later part behind zeros or garbage,
//     over the zero padding, and where the commit would have extended
//     the padding, that extension landed or lost with the file at its
//     previous length. Sealed batches are never touched, so the marker
//     stays the last completed Set. After the cut every intercepted call
//     fails with storage.ErrPowerLost.
package fault

import (
	"errors"
	"fmt"
	"slices"
	"syscall"

	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// ErrInjected marks every failure manufactured by the injector; match
// with errors.Is. Injected errors wrap a plausible errno (ENOSPC, EIO)
// underneath so callers exercising errno-specific paths see them too.
var ErrInjected = errors.New("fault: injected storage failure")

// Profile sets the 1-in-N odds of each fault class (0 disables a
// class) plus the power-cut schedule. Rates are independent: each
// class rolls its own splitmix64 stream per operation.
type Profile struct {
	// Undo log faults.
	SyncFailEvery     int // log fsync returns EIO (retryable upstream)
	SyncDropEvery     int // log fsync acknowledged but not performed
	AppendShortEvery  int // block append torn mid-row, error returned
	AppendENOSPCEvery int // block append fails with ENOSPC
	RotEvery          int // one bit flips in a block of the log prefix the last commit names

	// Image faults.
	LineENOSPCEvery int // image line write fails with ENOSPC
	ImgRotEvery     int // one bit flips in a sealed image batch after a commit

	// Marker faults.
	MarkerFailEvery int // the commit append's write or fsync fails with EIO (retryable)

	// Power cut: when CrashWindow > 0 the injector schedules a cut at
	// operation CrashAtMin + seededRand%CrashWindow (the sentinel is
	// treated as power loss, not a device error).
	CrashAtMin  uint64
	CrashWindow uint64

	// PermanentSyncFrom, when nonzero, makes every log sync from that
	// operation index on fail — the permanent-device-death scenario that
	// must land the machine in read-only degraded mode.
	PermanentSyncFrom uint64
}

// Default returns a moderately hostile transient profile: every class
// enabled at rates that fire several times in a quickstart-sized run,
// no scheduled power cut, no permanent failure.
func Default() Profile {
	return Profile{
		SyncFailEvery:     48,
		SyncDropEvery:     64,
		AppendShortEvery:  160,
		AppendENOSPCEvery: 200,
		RotEvery:          160,
		LineENOSPCEvery:   400,
		ImgRotEvery:       160,
		MarkerFailEvery:   96,
	}
}

// Transient returns a profile limited to classes the machine retries
// (failing syncs, dropped syncs, marker write failures): a run under
// it usually survives to a clean close, exercising the bounded-retry
// path rather than degradation.
func Transient() Profile {
	return Profile{
		SyncFailEvery:   48,
		SyncDropEvery:   64,
		MarkerFailEvery: 96,
	}
}

// Counts aggregates what the injector actually did — campaign drivers
// print these so coverage of each fault class is visible, never
// silently zero.
type Counts struct {
	Ops         uint64 // intercepted mutating operations
	SyncFails   uint64
	SyncDrops   uint64
	ShortWrites uint64
	ENOSPC      uint64 // log append + image line ENOSPC, combined
	RotBits     uint64
	MarkerFails uint64
	PowerCuts   uint64
	TornAppends uint64 // unsynced log blocks the power cut left torn
	ImageTears  uint64 // commit appends torn by the power cut
	ImgRotBits  uint64 // bits flipped in sealed image batches
	ImgReorders uint64 // torn commit appends whose later part landed first
	// LogReorders counts power cuts that left an unsynced log block
	// zeroed, garbage or torn with a later one landed behind it: the
	// shape a log read without a named prefix takes for mid-log rot.
	LogReorders uint64
	// LogStale counts power cuts that left an unsynced overwrite as the
	// stale block it overwrote in place: a whole, CRC-valid block from
	// before a rewind, past the prefix the last commit names.
	LogStale uint64
	// ImgExtLost counts power cuts that lost the image's unsynced zero
	// padding extension with the commit that made it: the file kept its
	// previous length, and the batch bytes past it never landed.
	ImgExtLost uint64
}

// String renders the counts as one stable line.
func (c Counts) String() string {
	return fmt.Sprintf(
		"ops=%d sync_fail=%d sync_drop=%d short=%d enospc=%d rot=%d marker_fail=%d cuts=%d torn=%d img_tear=%d img_rot=%d img_reorder=%d log_reorder=%d log_stale=%d img_ext_lost=%d",
		c.Ops, c.SyncFails, c.SyncDrops, c.ShortWrites, c.ENOSPC,
		c.RotBits, c.MarkerFails, c.PowerCuts, c.TornAppends, c.ImageTears, c.ImgRotBits, c.ImgReorders, c.LogReorders, c.LogStale, c.ImgExtLost)
}

// Add accumulates other into c (campaign aggregation).
func (c *Counts) Add(other Counts) {
	c.Ops += other.Ops
	c.SyncFails += other.SyncFails
	c.SyncDrops += other.SyncDrops
	c.ShortWrites += other.ShortWrites
	c.ENOSPC += other.ENOSPC
	c.RotBits += other.RotBits
	c.MarkerFails += other.MarkerFails
	c.PowerCuts += other.PowerCuts
	c.TornAppends += other.TornAppends
	c.ImageTears += other.ImageTears
	c.ImgRotBits += other.ImgRotBits
	c.ImgReorders += other.ImgReorders
	c.LogReorders += other.LogReorders
	c.LogStale += other.LogStale
	c.ImgExtLost += other.ImgExtLost
}

// Decision classes: each fault roll mixes its class into the stream so
// the classes are independent of each other and of call order within an
// operation. Classes are only ever appended, and retired ones keep their
// slot, so an earlier seed rolls the same values for the classes it had.
const (
	classSyncFail uint64 = iota + 1
	classSyncDrop
	classAppendShort
	classShortLen
	classAppendENOSPC
	classRot
	classRotBlock
	classRotBit
	classLineENOSPC
	_ // retired: the image sync failed (commits carry the image now)
	_ // retired: the image sync was dropped
	classMarkerFail
	classCrashAt
	_ // retired: the cut tore the first unsynced log block (every one now rolls classCrashLogSuffix)
	_ // retired: that tear's length
	classCrashImgTear
	classCrashImgTearLen
	_ // retired: the cut tore a slot of the two-slot marker file
	_ // retired: that tear's length
	_ // retired: that tear was garbage
	classCrashImgGarbage
	classImgRot
	classImgRotBit
	classCrashImgReorder
	classCrashLogSuffix
	classCrashImgExtend
)

// splitmix64 is the standard 64-bit mixer (Steele et al.); one round
// per decision keeps the schedule a pure function of its inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Injector implements storage.Wrapper. One Injector serves one store
// directory (one machine); it is not safe for concurrent use, matching
// the storage layer's contract.
type Injector struct {
	seed    uint64
	prof    Profile
	op      uint64 // shared operation counter across all components
	crashAt uint64 // 0 = no cut scheduled
	crashed bool
	counts  Counts
	flips   []Flip // every bit rot flipped in a log block, in order

	log *Log
	img *Image
}

// Flip is one bit the injector flipped in a stored log block (absolute
// block numbering, as storage.LogStore.Blocks counts).
type Flip struct{ Block, Bit uint64 }

// New builds an injector for the given seed and profile. The power-cut
// operation index, if the profile schedules one, is derived from the
// seed immediately so CrashAt can be reported before any operation.
func New(seed uint64, prof Profile) *Injector {
	in := &Injector{seed: seed, prof: prof}
	if prof.CrashWindow > 0 {
		in.crashAt = prof.CrashAtMin + splitmix64(seed^classCrashAt)%prof.CrashWindow
		if in.crashAt == 0 {
			in.crashAt = 1
		}
	}
	return in
}

// Seed returns the injector's seed (repro-line printing).
func (in *Injector) Seed() uint64 { return in.seed }

// CrashAt reports the scheduled power-cut operation index (0 = none).
func (in *Injector) CrashAt() uint64 { return in.crashAt }

// Crashed reports whether the scheduled power cut has fired.
func (in *Injector) Crashed() bool { return in.crashed }

// Ops reports how many mutating operations have been intercepted.
func (in *Injector) Ops() uint64 { return in.op }

// Counts returns a snapshot of the injection counters.
func (in *Injector) Counts() Counts { return in.counts }

// LogRot returns every bit flipped in a log block so far, in order. A
// block of a recovered prefix that holds a bit flipped an odd number of
// times is rot recovery must have reported.
func (in *Injector) LogRot() []Flip { return slices.Clone(in.flips) }

// rand derives the decision value for (current op, class).
func (in *Injector) rand(class uint64) uint64 {
	return splitmix64(splitmix64(in.seed+in.op) ^ class)
}

// roll reports whether the 1-in-every fault of the given class fires at
// the current operation. every <= 0 disables the class.
func (in *Injector) roll(class uint64, every int) bool {
	return every > 0 && in.rand(class)%uint64(every) == 0
}

// step advances the shared operation counter, firing the scheduled
// power cut when its index is reached. Every intercepted mutating call
// starts here; after a cut, everything fails with ErrPowerLost.
func (in *Injector) step() error {
	if in.crashed {
		return fmt.Errorf("%w: operation after the cut at op %d", storage.ErrPowerLost, in.crashAt)
	}
	in.op++
	in.counts.Ops++
	if in.crashAt != 0 && in.op >= in.crashAt {
		in.crash()
		return fmt.Errorf("%w: scheduled cut at op %d", storage.ErrPowerLost, in.op)
	}
	return nil
}

// crash simulates the power cut across all wrapped components: the log
// keeps its acknowledged-sync watermark with the unsynced blocks behind
// it landed in any shape, and the image loses its staged records
// (optionally with a torn commit append). Teardown I/O errors are
// swallowed — there is no one left to report them to after a power cut,
// and recovery verifies the resulting directory either way.
func (in *Injector) crash() {
	in.crashed = true
	in.counts.PowerCuts++
	if in.log != nil {
		in.log.crash()
	}
	if in.img != nil {
		in.img.crash()
	}
}

// namedLog reports the log block count the last sealed commit names (0
// without a file-backed image).
func (in *Injector) namedLog() uint64 {
	if in.img == nil || in.img.f == nil {
		return 0
	}
	return in.img.f.LogBlocks()
}

// WrapLog implements storage.Wrapper.
func (in *Injector) WrapLog(b storage.LogStore) storage.LogStore {
	f, _ := b.(*storage.File)
	in.log = &Log{in: in, b: b, f: f, durable: b.Blocks()}
	return in.log
}

// WrapImage implements storage.Wrapper.
func (in *Injector) WrapImage(b storage.ImageStore) storage.ImageStore {
	f, _ := b.(*storage.ImageFile)
	in.img = &Image{in: in, b: b, f: f}
	return in.img
}

// WrapMarker implements storage.Wrapper.
func (in *Injector) WrapMarker(b storage.MarkerStore) storage.MarkerStore {
	return &Marker{in: in, b: b}
}

var _ storage.Wrapper = (*Injector)(nil)

// Log interposes on the undo-log store. Appends write through
// immediately (the real file is the model's staging area); durable
// tracks the block count a power cut preserves whole — it advances only
// when a sync is acknowledged.
type Log struct {
	in *Injector
	b  storage.LogStore
	f  *storage.File // non-nil when the wrapped store is file-backed
	// durable is the absolute block count surviving a power cut (the
	// watermark of the last acknowledged sync).
	durable uint64
	// pending holds clones of blocks appended since that sync — what the
	// cut lands in any shape — and old, for each, the stale block it
	// overwrote in place (nil where the file held none).
	pending, old [][]byte
}

// AppendBlock implements storage.Backend with injected ENOSPC, short
// writes (torn mid-row, error returned), and bit rot in the named log
// prefix.
func (l *Log) AppendBlock(raw []byte) error {
	if err := l.in.step(); err != nil {
		return err
	}
	p := &l.in.prof
	if l.in.roll(classAppendENOSPC, p.AppendENOSPCEvery) {
		l.in.counts.ENOSPC++
		return fmt.Errorf("%w: undo log append: %w", ErrInjected, syscall.ENOSPC)
	}
	if l.f != nil && len(raw) > 1 && l.in.roll(classAppendShort, p.AppendShortEvery) {
		n := 1 + int(l.in.rand(classShortLen)%uint64(len(raw)-1))
		l.in.counts.ShortWrites++
		if err := l.f.TearTail(raw, n); err != nil {
			return err
		}
		return fmt.Errorf("%w: short append: %d of %d bytes reached the device", ErrInjected, n, len(raw))
	}
	var old []byte
	if l.f != nil {
		old = make([]byte, len(raw))
		if l.b.ReadBlocks(l.b.Blocks(), old) != nil {
			old = nil // no stale block there: the append extends the file
		}
	}
	if err := l.b.AppendBlock(raw); err != nil {
		return err
	}
	l.pending = append(l.pending, append([]byte(nil), raw...))
	l.old = append(l.old, old)
	if l.f != nil && l.in.roll(classRot, p.RotEvery) {
		// Single-bit rot, only in the log prefix the last sealed commit
		// names: recovery reads every block of it, so the CRC failure
		// must surface as rot, never be dropped with the unsynced blocks
		// behind the prefix. Later commits name longer prefixes, never
		// shorter ones.
		lo, hi := l.b.Super().Start, l.in.namedLog()
		if hi > lo {
			blk := lo + l.in.rand(classRotBlock)%(hi-lo)
			bit := l.in.rand(classRotBit) % (undolog.BlockBytes * 8)
			if err := l.f.RotBit(blk, bit); err != nil {
				return err
			}
			l.in.counts.RotBits++
			l.in.flips = append(l.in.flips, Flip{blk, bit})
		}
	}
	return nil
}

// Sync implements storage.Backend with injected failures (EIO,
// retryable), silent drops (acknowledged without fsync), and the
// permanent-failure regime from Profile.PermanentSyncFrom.
func (l *Log) Sync() error {
	if err := l.in.step(); err != nil {
		return err
	}
	p := &l.in.prof
	if p.PermanentSyncFrom != 0 && l.in.op >= p.PermanentSyncFrom {
		l.in.counts.SyncFails++
		return fmt.Errorf("%w: undo log sync (permanent): %w", ErrInjected, syscall.EIO)
	}
	if l.in.roll(classSyncFail, p.SyncFailEvery) {
		l.in.counts.SyncFails++
		return fmt.Errorf("%w: undo log sync: %w", ErrInjected, syscall.EIO)
	}
	if l.in.roll(classSyncDrop, p.SyncDropEvery) {
		// Acknowledged but not flushed. Modeled as surviving a later cut —
		// see the package comment for why the opposite model would
		// manufacture unrecoverable-by-design corruption.
		l.in.counts.SyncDrops++
		l.durable = l.b.Blocks()
		l.pending, l.old = nil, nil
		return nil
	}
	if err := l.b.Sync(); err != nil {
		return err
	}
	l.durable = l.b.Blocks()
	l.pending, l.old = nil, nil
	return nil
}

// Rewind implements storage.LogStore. It does no I/O, so nothing is
// injected, but the acknowledged watermark follows the append point
// down: the blocks from n on are stale, and a cut lands the appends
// that overwrite them in any shape, the stale block itself included.
func (l *Log) Rewind(n uint64) error {
	if l.in.crashed {
		return fmt.Errorf("%w: log rewind after the cut at op %d", storage.ErrPowerLost, l.in.crashAt)
	}
	if err := l.b.Rewind(n); err != nil {
		return err
	}
	l.durable = min(l.durable, n)
	keep := min(n-l.durable, uint64(len(l.pending)))
	l.pending, l.old = l.pending[:keep], l.old[:keep]
	return nil
}

// crash keeps the file up to the acknowledged watermark and lands every
// block appended since as a page cache may have written it back when
// the power went: each one independently whole, as zeros (it never
// reached the disk), as garbage, or torn (a prefix of it, zeros
// behind), whatever became of the blocks in front of it. An append that
// overwrote a stale block in place leaves that old block where it
// never reached the disk, and the old block's tail behind a torn head.
// The file then ends after the last block that landed — mid-block if
// that one is torn — or, half the time, after the last block appended,
// as when the size update reached the disk and the data did not.
func (l *Log) crash() {
	if l.f == nil {
		return
	}
	roll := l.in.rand(classCrashLogSuffix)
	landed := make([][]byte, len(l.pending))
	var torn uint64
	damaged, reordered, stale := false, false, false
	for i, raw := range l.pending {
		old := l.old[i]
		r := splitmix64(roll + uint64(i) + 1)
		switch r % 4 {
		case 0:
			landed[i] = raw
		case 1: // nothing written: zeros, or the stale block it overwrote
			landed[i] = old
			stale = stale || old != nil
		case 2:
			landed[i] = make([]byte, len(raw))
			for j, b := range raw {
				landed[i][j] = b ^ 0xA5 // every byte differs from the block's
			}
		case 3:
			n := 1 + (r>>2)%uint64(len(raw)-1)
			landed[i] = raw[:n:n]
			if old != nil {
				landed[i] = append(landed[i], old[n:]...)
			}
			torn++
		}
		reordered = reordered || damaged && len(landed[i]) > 0
		damaged = damaged || r%4 != 0
	}
	if n := len(landed); n > 0 && roll%2 == 0 {
		landed[n-1] = append(landed[n-1], make([]byte, undolog.BlockBytes-len(landed[n-1]))...)
	}
	if l.f.LandUnsynced(l.durable, landed) != nil {
		return
	}
	l.in.counts.TornAppends += torn
	if reordered {
		l.in.counts.LogReorders++
	}
	if stale {
		l.in.counts.LogStale++
	}
}

// Pass-through reads and metadata. They touch no injector state, so
// ReadBlocks may run beside Image.Load, as Dir.Recover runs them.

func (l *Log) Blocks() uint64                          { return l.b.Blocks() }
func (l *Log) ReadAll() ([]byte, error)                { return l.b.ReadAll() }
func (l *Log) ReadBlocks(first uint64, p []byte) error { return l.b.ReadBlocks(first, p) }
func (l *Log) Truncate(n uint64) error                 { return l.b.Truncate(n) }
func (l *Log) Super() undolog.Super                    { return l.b.Super() }
func (l *Log) TornBytes() uint64                       { return l.b.TornBytes() }

// Close releases the underlying store with no injection: after a power
// cut the process still releases its descriptors, and recovery reopens
// the files fresh.
func (l *Log) Close() error { return l.b.Close() }

// Image interposes on the image store: line writes can hit ENOSPC, and
// a power cut discards the staged records and can tear the commit
// append that would have sealed them.
type Image struct {
	in *Injector
	b  storage.ImageStore
	f  *storage.ImageFile
}

// WriteLine implements storage.ImageStore with injected ENOSPC.
func (im *Image) WriteLine(l mem.LineAddr, w mem.Word) error {
	if err := im.in.step(); err != nil {
		return err
	}
	if im.in.roll(classLineENOSPC, im.in.prof.LineENOSPCEvery) {
		im.in.counts.ENOSPC++
		return fmt.Errorf("%w: image line write: %w", ErrInjected, syscall.ENOSPC)
	}
	return im.b.WriteLine(l, w)
}

// crash discards the image's staged records — they never left the
// process — and half the time tears the commit that would have sealed
// them: in order, a prefix of it or as many garbage bytes; out of
// order, its later part behind zeros or garbage. A batch that would run
// past the file's length comes with the zero padding extension the
// commit makes first, which lands or, half the time, is lost, leaving
// the file at its previous length. The records belong to writes after
// the last commit, which the undo log covers (write-ahead rules 1 and
// 2), and the torn batch never validates, so recovery lands on the last
// commit and rolls the writes back.
func (im *Image) crash() {
	if im.f == nil {
		return
	}
	var tear uint64
	if im.in.rand(classCrashImgTear)%2 == 0 {
		tear = 1 + im.in.rand(classCrashImgTearLen)>>1
	}
	reorder := im.in.rand(classCrashImgReorder)%2 == 0
	garbage := im.in.rand(classCrashImgGarbage)%2 == 0
	extended := im.in.rand(classCrashImgExtend)%2 == 0
	torn, lost, err := im.f.Cut(tear, reorder, garbage, extended)
	if err != nil {
		return
	}
	if torn {
		im.in.counts.ImageTears++
		if reorder {
			im.in.counts.ImgReorders++
		}
	}
	if lost {
		im.in.counts.ImgExtLost++
	}
}

func (im *Image) Sync() error               { return im.b.Sync() }
func (im *Image) Load() (*mem.Image, error) { return im.b.Load() }
func (im *Image) Close() error              { return im.b.Close() }

// Marker interposes on the persisted-epoch marker: the commit append
// can fail, and a bit can rot in a sealed image batch after it.
type Marker struct {
	in *Injector
	b  storage.MarkerStore
}

// Set implements storage.MarkerStore with injected failures of the
// commit append's write or fsync (retryable upstream through the
// PersistMarker protocol): the records stay staged and the tail where it
// was, so the last completed Set stands and a retry appends the same
// batch. After a commit, one bit may rot in an image record with a
// sealed batch behind it; Load must report it, never pass it as a torn
// batch.
func (mk *Marker) Set(e mem.EpochID) error {
	if err := mk.in.step(); err != nil {
		return err
	}
	p := &mk.in.prof
	if mk.in.roll(classMarkerFail, p.MarkerFailEvery) {
		mk.in.counts.MarkerFails++
		return fmt.Errorf("%w: image commit write: %w", ErrInjected, syscall.EIO)
	}
	if err := mk.b.Set(e); err != nil {
		return err
	}
	if img := mk.in.img; img != nil && img.f != nil && mk.in.roll(classImgRot, p.ImgRotEvery) {
		if img.f.RotBit(mk.in.rand(classImgRotBit)) == nil {
			mk.in.counts.ImgRotBits++
		}
	}
	return nil
}

func (mk *Marker) Get() (mem.EpochID, error) { return mk.b.Get() }
func (mk *Marker) SyncDir() error            { return mk.b.SyncDir() }
func (mk *Marker) Close() error              { return mk.b.Close() }
