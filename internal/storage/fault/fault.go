// Package fault is a deterministic storage fault injector: a
// storage.Wrapper that interposes on a durable store's three components
// (undo log, image file, marker) and injects per-operation failures
// from a splitmix64-seeded schedule — torn appends, short writes,
// failing or silently dropped syncs, ENOSPC, single-bit rot in cold log
// blocks and image records, and a scheduled power cut at operation N.
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
//   - Bit rot strikes only cold log blocks — at least two blocks below
//     the durable watermark — so the rotted block always has data behind
//     it when recovery reads the log and MUST surface as a hard
//     undolog.ErrCorruptBlock (mid-log rot), never pass as a torn tail.
//   - Image rot likewise strikes only cold image records — synced and
//     not the final one — so it always has a whole record behind it and
//     MUST surface as a hard storage.ErrCorruptImage.
//   - A power cut truncates the log to the last acknowledged-sync
//     watermark, optionally leaves a torn prefix of the first
//     unacknowledged block (a mid-row tear), discards the image's staged
//     records, optionally leaving a torn prefix of the first (never
//     touching a synced record), and optionally tears the marker slot
//     the next Set would write (never the slot holding the newest
//     completed marker, which an in-place Set never touches). After the
//     cut every intercepted call fails with storage.ErrPowerLost.
package fault

import (
	"errors"
	"fmt"
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
	RotEvery          int // one bit flips in a cold durable block

	// Image faults.
	LineENOSPCEvery int // image line write fails with ENOSPC
	ImgRotEvery     int // one bit flips in a cold image record after a sync

	// Marker faults.
	MarkerFailEvery int // marker slot write or fsync fails with EIO (retryable)

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
	TornAppends uint64 // torn log block left behind by the power cut
	ImageTears  uint64
	MarkerTears uint64 // marker slot torn by the power cut
	ImgRotBits  uint64 // bits flipped in cold image records
}

// String renders the counts as one stable line.
func (c Counts) String() string {
	return fmt.Sprintf(
		"ops=%d sync_fail=%d sync_drop=%d short=%d enospc=%d rot=%d marker_fail=%d cuts=%d torn=%d img_tear=%d mk_tear=%d img_rot=%d",
		c.Ops, c.SyncFails, c.SyncDrops, c.ShortWrites, c.ENOSPC,
		c.RotBits, c.MarkerFails, c.PowerCuts, c.TornAppends, c.ImageTears, c.MarkerTears, c.ImgRotBits)
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
	c.MarkerTears += other.MarkerTears
	c.ImgRotBits += other.ImgRotBits
}

// Decision classes: each fault roll mixes its class into the stream so
// the classes are independent of each other and of call order within an
// operation.
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
	classImgSyncFail
	classImgSyncDrop
	classMarkerFail
	classCrashAt
	classCrashTear
	classCrashTearLen
	classCrashImgTear
	classCrashImgTearLen
	classCrashMarkerTear
	classCrashMarkerTearLen
	classCrashMarkerGarbage
	classCrashImgGarbage
	classImgRot
	classImgRotBit
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

	log *Log
	img *Image
	mk  *Marker
}

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
// rewinds to its acknowledged-sync watermark (optionally with a torn
// partial block), the image loses its staged records (optionally with a
// torn prefix of the first), and the marker may tear the slot its next
// Set would write. Teardown I/O errors are swallowed — there is no one
// left to report them to after a power cut, and recovery verifies the
// resulting directory either way.
func (in *Injector) crash() {
	in.crashed = true
	in.counts.PowerCuts++
	if in.log != nil {
		in.log.crash()
	}
	if in.img != nil {
		in.img.crash()
	}
	if in.mk != nil {
		in.mk.crash()
	}
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
	f, _ := b.(*storage.Marker)
	in.mk = &Marker{in: in, b: b, f: f}
	return in.mk
}

var _ storage.Wrapper = (*Injector)(nil)

// Log interposes on the undo-log store. Appends write through
// immediately (the real file is the model's staging area); durable
// tracks the block count a power cut preserves — it advances only when
// a sync is acknowledged.
type Log struct {
	in *Injector
	b  storage.LogStore
	f  *storage.File // non-nil when the wrapped store is file-backed
	// durable is the absolute block count surviving a power cut (the
	// watermark of the last acknowledged sync).
	durable uint64
	// pending holds clones of blocks appended since that sync — the
	// candidates for a torn tail at the cut.
	pending [][]byte
}

// AppendBlock implements storage.Backend with injected ENOSPC, short
// writes (torn mid-row, error returned), and bit rot in cold blocks.
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
	if err := l.b.AppendBlock(raw); err != nil {
		return err
	}
	l.pending = append(l.pending, append([]byte(nil), raw...))
	if l.f != nil && l.in.roll(classRot, p.RotEvery) {
		// Single-bit rot, cold blocks only: index <= durable-2 keeps at
		// least one valid block behind the rot at any later recovery, so
		// the CRC failure must read as mid-log corruption, never as a
		// repairable torn tail.
		lo := l.b.Super().Start
		if l.durable >= lo+2 {
			blk := lo + l.in.rand(classRotBlock)%(l.durable-1-lo)
			bit := l.in.rand(classRotBit) % (undolog.BlockBytes * 8)
			if err := l.f.RotBit(blk, bit); err != nil {
				return err
			}
			l.in.counts.RotBits++
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
		l.pending = nil
		return nil
	}
	if err := l.b.Sync(); err != nil {
		return err
	}
	l.durable = l.b.Blocks()
	l.pending = nil
	return nil
}

// crash rewinds the file to the acknowledged watermark and, half the
// time there is an unacknowledged block, leaves a torn prefix of it —
// exactly what a mid-row power cut leaves on real media.
func (l *Log) crash() {
	if l.f == nil {
		return
	}
	var torn []byte
	if len(l.pending) > 0 && l.in.rand(classCrashTear)%2 == 0 {
		torn = l.pending[0]
	}
	if err := l.f.Truncate(l.durable); err != nil {
		return
	}
	if len(torn) > 1 {
		n := 1 + int(l.in.rand(classCrashTearLen)%uint64(len(torn)-1))
		if l.f.TearTail(torn, n) == nil {
			l.in.counts.TornAppends++
		}
	}
}

// Pass-through reads and metadata.

func (l *Log) Blocks() uint64           { return l.b.Blocks() }
func (l *Log) ReadAll() ([]byte, error) { return l.b.ReadAll() }
func (l *Log) Truncate(n uint64) error  { return l.b.Truncate(n) }
func (l *Log) Super() undolog.Super     { return l.b.Super() }
func (l *Log) TornBytes() uint64        { return l.b.TornBytes() }

// Close releases the underlying store with no injection: after a power
// cut the process still releases its descriptors, and recovery reopens
// the files fresh.
func (l *Log) Close() error { return l.b.Close() }

// Image interposes on the image store: line writes can hit ENOSPC, the
// image sync can fail or be dropped, a bit can rot in a cold record after
// a sync, and a power cut discards the staged records and can tear the
// first.
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

// Sync implements storage.ImageStore; failures here surface through
// Dir.PersistMarker, whose caller retries the whole marker protocol.
func (im *Image) Sync() error {
	if err := im.in.step(); err != nil {
		return err
	}
	p := &im.in.prof
	if im.in.roll(classImgSyncFail, p.SyncFailEvery) {
		im.in.counts.SyncFails++
		return fmt.Errorf("%w: image sync: %w", ErrInjected, syscall.EIO)
	}
	if im.in.roll(classImgSyncDrop, p.SyncDropEvery) {
		// Acknowledged but not flushed, modeled as surviving a later cut
		// like the log's. The staged records live in process memory, so
		// surviving means reaching the file: the drop still appends them
		// (fsync included, which a cut in this model cannot tell apart
		// from a skipped one) and only the counter records the lie.
		im.in.counts.SyncDrops++
	}
	if err := im.b.Sync(); err != nil {
		return err
	}
	if im.f != nil && im.in.roll(classImgRot, p.ImgRotEvery) {
		// Single-bit rot in a synced record with a whole record behind
		// it: Load must report it, never pass it as a torn tail.
		if im.f.RotBit(im.in.rand(classImgRotBit)) == nil {
			im.in.counts.ImgRotBits++
		}
	}
	return nil
}

// crash discards the image's staged records — they never left the
// process — and half the time leaves a torn prefix of the first at the
// tail: a 1..23-byte prefix of the record, or as many garbage bytes. The
// records belong to writes after the last marker sync, which the undo
// log covers (write-ahead rules 1 and 2), so recovery rolls them back.
func (im *Image) crash() {
	if im.f == nil {
		return
	}
	tear := 0
	if im.in.rand(classCrashImgTear)%2 == 0 {
		tear = 1 + int(im.in.rand(classCrashImgTearLen)%23) // 24 B records: tear 1..23 bytes
	}
	garbage := im.in.rand(classCrashImgGarbage)%2 == 0
	if torn, err := im.f.Cut(tear, garbage); torn && err == nil {
		im.in.counts.ImageTears++
	}
}

func (im *Image) Load() (*mem.Image, error) { return im.b.Load() }
func (im *Image) Close() error              { return im.b.Close() }

// Marker interposes on the persisted-epoch marker.
type Marker struct {
	in *Injector
	b  storage.MarkerStore
	f  *storage.Marker
}

// Set implements storage.MarkerStore with injected slot write or fsync
// failures (retryable upstream through the PersistMarker protocol). The
// failed Set wrote only the older slot, so the newest marker stands.
func (mk *Marker) Set(e mem.EpochID) error {
	if err := mk.in.step(); err != nil {
		return err
	}
	if mk.in.roll(classMarkerFail, mk.in.prof.MarkerFailEvery) {
		mk.in.counts.MarkerFails++
		return fmt.Errorf("%w: marker slot write: %w", ErrInjected, syscall.EIO)
	}
	return mk.b.Set(e)
}

// crash tears the marker's next slot a quarter of the time: a 1..19-byte
// prefix of a record, or as many garbage bytes, lands in the slot the
// next Set would write. The record re-records the newest completed
// epoch, so a prefix that happens to complete it still recovers that
// epoch; Dir.Recover must discard the torn slot and report it.
func (mk *Marker) crash() {
	if mk.f == nil || mk.in.rand(classCrashMarkerTear)%4 != 0 {
		return
	}
	e, err := mk.f.Get()
	if err != nil {
		return
	}
	n := 1 + int(mk.in.rand(classCrashMarkerTearLen)%19) // 20 B records: tear 1..19 bytes
	garbage := mk.in.rand(classCrashMarkerGarbage)%2 == 0
	if mk.f.TearSet(e, n, garbage) == nil {
		mk.in.counts.MarkerTears++
	}
}

func (mk *Marker) Get() (mem.EpochID, error) { return mk.b.Get() }
func (mk *Marker) SyncDir() error            { return mk.b.SyncDir() }
func (mk *Marker) Close() error              { return mk.b.Close() }
