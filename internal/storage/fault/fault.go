// Package fault is a deterministic storage fault injector: a
// storage.Wrapper that interposes on the files behind a durable store
// — the undo log and the image file of a Dir, or a result log — at
// their storage.FileOps seam, and injects per-operation failures from a
// splitmix64-seeded schedule: writes that fail with ENOSPC, whole or
// after a prefix landed, fsyncs that fail with EIO once or for good,
// single-bit rot, and a power cut at operation N.
//
// Determinism contract (DESIGN.md §11): every injection decision is a
// pure function of (seed, operation index, decision class). The
// operation index is a single counter shared by every interposed file,
// advanced once per write, truncate and fsync, so a machine driven by a
// deterministic workload sees a reproducible fault sequence — the whole
// campaign failure collapses to one (seed, schedule) pair. The seed is
// hashed before the index is added, so neighbouring seeds draw
// independent schedules rather than one schedule shifted by an
// operation.
//
// The power cut knows no file format. Each file keeps what its last
// fsync made durable; every 512-byte sector written since lands either
// as written or as that fsync left it, independently across sectors and
// files; and each file ends at its synced length or its current one.
// A write that failed, whole or short, is no different: whatever of it
// reached the file is unsynced like any other write. After the cut
// every write, truncate and fsync fails with storage.ErrPowerLost.
//
// Rot is the one fault that is not survivable, so it strikes only bytes
// recovery validates, and must surface as a hard error, never pass
// silently: after a successful fsync, one bit may flip in the undo-log
// prefix the last sealed commit names (undolog.ErrCorruptBlock) or in
// the image bytes in front of its final sealed batch
// (storage.ErrCorruptImage). The flip goes to the real file, outside
// the sector tracking, so no cut undoes it.
package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"syscall"

	"picl/internal/storage"
	"picl/internal/undolog"
)

// ErrInjected marks every failure manufactured by the injector; match
// with errors.Is. Injected errors wrap a plausible errno (ENOSPC, EIO)
// underneath so callers exercising errno-specific paths see them too.
var ErrInjected = errors.New("fault: injected storage failure")

// sectorBytes is the unit a power cut lands or loses independently.
const sectorBytes = 512

// Profile sets the 1-in-N odds of each fault class (0 disables a
// class) plus the power-cut schedule. Rates are independent: each
// class rolls its own splitmix64 stream per operation.
type Profile struct {
	WriteFailEvery  int // a write fails with ENOSPC before any byte lands
	ShortWriteEvery int // a write lands a prefix, then fails with ENOSPC
	SyncFailEvery   int // an fsync fails with EIO (retryable upstream)
	RotEvery        int // after a successful fsync, one bit flips in bytes recovery validates

	// Power cut: when CrashWindow > 0 the injector schedules a cut at
	// operation CrashAtMin + seededRand%CrashWindow (the sentinel is
	// treated as power loss, not a device error).
	CrashAtMin  uint64
	CrashWindow uint64

	// PermanentSyncFrom, when nonzero, makes every fsync from that
	// operation index on fail — the permanent-device-death scenario that
	// must land the machine in read-only degraded mode.
	PermanentSyncFrom uint64
}

// Default returns a moderately hostile transient profile: every class
// enabled at rates that fire several times in a quickstart-sized run,
// no scheduled power cut, no permanent failure.
func Default() Profile {
	return Profile{
		WriteFailEvery:  200,
		ShortWriteEvery: 200,
		SyncFailEvery:   48,
		RotEvery:        96,
	}
}

// Transient returns a profile limited to the class the machine always
// retries, failing fsyncs: a run under it usually survives to a clean
// close, exercising the bounded-retry path rather than degradation.
func Transient() Profile {
	return Profile{SyncFailEvery: 48}
}

// Counts aggregates what the injector actually did — campaign drivers
// print these so coverage of each fault class is visible, never
// silently zero.
type Counts struct {
	Ops         uint64 // intercepted writes, truncates and fsyncs
	WriteFails  uint64 // writes failed before any byte landed
	ShortWrites uint64 // writes failed after a prefix landed
	SyncFails   uint64
	RotBits     uint64 // bits flipped in validated bytes
	PowerCuts   uint64
	// Landed and Lost count the sectors written since their file's last
	// fsync, differing from what it left, that a cut landed as written
	// or left as the fsync did.
	Landed, Lost uint64
	// LenLost counts files a cut left at their synced length rather
	// than their current one.
	LenLost uint64
}

// String renders the counts as one stable line.
func (c Counts) String() string {
	return fmt.Sprintf("ops=%d write_fail=%d short=%d sync_fail=%d rot=%d cuts=%d landed=%d lost=%d len_lost=%d",
		c.Ops, c.WriteFails, c.ShortWrites, c.SyncFails, c.RotBits, c.PowerCuts, c.Landed, c.Lost, c.LenLost)
}

// Add accumulates other into c (campaign aggregation).
func (c *Counts) Add(other Counts) {
	c.Ops += other.Ops
	c.WriteFails += other.WriteFails
	c.ShortWrites += other.ShortWrites
	c.SyncFails += other.SyncFails
	c.RotBits += other.RotBits
	c.PowerCuts += other.PowerCuts
	c.Landed += other.Landed
	c.Lost += other.Lost
	c.LenLost += other.LenLost
}

// Decision classes: each fault roll mixes its class into the stream so
// the classes are independent of each other and of call order within an
// operation. Classes are only ever appended, and retired ones keep their
// slot, so an earlier seed rolls the same values for the classes it had.
const (
	classSyncFail uint64 = iota + 1
	classWriteFail
	classShortWrite
	classShortLen
	classRot
	classRotAt
	classCrashAt
	classCut
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
// directory (one machine) or one result log; it is not safe for
// concurrent use, matching the storage layer's contract, except that
// its files' reads touch no injector state.
type Injector struct {
	key     uint64 // splitmix64(seed): the base every decision adds the op to
	prof    Profile
	op      uint64 // shared operation counter across all files
	crashAt uint64 // 0 = no cut scheduled
	crashed bool
	counts  Counts
	flips   []Flip // every bit rot flipped in a log block, in order

	files []*file            // every file interposed on, in wrap order
	log   *storage.File      // the undo log (or result log), if any
	img   *storage.ImageFile // the image file, if any
	logf  *file              // the interposers behind them
	imgf  *file
}

// Flip is one bit the injector flipped in a stored log block (absolute
// block numbering, as storage.LogStore.Blocks counts).
type Flip struct{ Block, Bit uint64 }

// New builds an injector for the given seed and profile. The power-cut
// operation index, if the profile schedules one, is derived from the
// seed immediately so CrashAt can be reported before any operation.
func New(seed uint64, prof Profile) *Injector {
	in := &Injector{key: splitmix64(seed), prof: prof}
	if prof.CrashWindow > 0 {
		in.crashAt = prof.CrashAtMin + splitmix64(seed^classCrashAt)%prof.CrashWindow
		if in.crashAt == 0 {
			in.crashAt = 1
		}
	}
	return in
}

// CrashAt reports the scheduled power-cut operation index (0 = none).
func (in *Injector) CrashAt() uint64 { return in.crashAt }

// Crashed reports whether the scheduled power cut has fired.
func (in *Injector) Crashed() bool { return in.crashed }

// Ops reports how many writes, truncates and fsyncs have been
// intercepted.
func (in *Injector) Ops() uint64 { return in.op }

// Counts returns a snapshot of the injection counters.
func (in *Injector) Counts() Counts { return in.counts }

// LogRot returns every bit flipped in a log block so far, in order. A
// block of a recovered prefix that holds a bit flipped an odd number of
// times is rot recovery must have reported.
func (in *Injector) LogRot() []Flip { return slices.Clone(in.flips) }

// rand derives the decision value for (current op, class).
func (in *Injector) rand(class uint64) uint64 {
	return splitmix64(splitmix64(in.key+in.op) ^ class)
}

// roll reports whether the 1-in-every fault of the given class fires at
// the current operation. every <= 0 disables the class.
func (in *Injector) roll(class uint64, every int) bool {
	return every > 0 && in.rand(class)%uint64(every) == 0
}

// step advances the shared operation counter, firing the scheduled
// power cut when its index is reached. Every intercepted write,
// truncate and fsync starts here; after a cut, each fails with
// ErrPowerLost.
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

// crash cuts the power under every interposed file, in wrap order,
// drawing one decision per sector and per file length from the cut's
// own stream. A file already closed is out of its reach. Teardown I/O
// errors are swallowed — there is no one left to report them to after
// a power cut, and recovery verifies the resulting directory either
// way.
func (in *Injector) crash() {
	in.crashed = true
	in.counts.PowerCuts++
	roll := in.rand(classCut)
	n := uint64(0)
	next := func() uint64 { n++; return splitmix64(roll + n) }
	for _, f := range in.files {
		f.cut(next)
	}
}

// interpose wraps ops in a file the injector tracks and schedules.
func (in *Injector) interpose(ops storage.FileOps) *file {
	f := &file{in: in, ops: ops, old: map[int64][]byte{}}
	if fi, err := ops.Stat(); err == nil {
		f.synced = fi.Size() // what is on file when the store mounts is durable
	}
	in.files = append(in.files, f)
	return f
}

// WrapLog implements storage.Wrapper: it interposes on the file behind
// a *storage.File and returns the store itself. Any other store passes
// through unchanged.
func (in *Injector) WrapLog(b storage.LogStore) storage.LogStore {
	if lf, ok := b.(*storage.File); ok {
		in.log = lf
		lf.WrapFile(func(ops storage.FileOps) storage.FileOps {
			in.logf = in.interpose(ops)
			return in.logf
		})
	}
	return b
}

// WrapImage implements storage.Wrapper: it interposes on the file
// behind a *storage.ImageFile — the one Reset's compaction opens too —
// and returns the store itself.
func (in *Injector) WrapImage(b storage.ImageStore) storage.ImageStore {
	if im, ok := b.(*storage.ImageFile); ok {
		in.img = im
		im.WrapFile(func(ops storage.FileOps) storage.FileOps {
			in.imgf = in.interpose(ops)
			return in.imgf
		})
	}
	return b
}

// WrapMarker implements storage.Wrapper: the marker is returned
// unchanged, since its commit is the image file's write and fsync.
func (in *Injector) WrapMarker(b storage.MarkerStore) storage.MarkerStore { return b }

var _ storage.Wrapper = (*Injector)(nil)

// rot flips one bit that recovery validates, chosen uniformly over the
// log prefix the last sealed commit names and the image bytes in front
// of its final sealed batch. Without an image there is no named prefix,
// and nothing rots.
func (in *Injector) rot() {
	if in.img == nil || !in.roll(classRot, in.prof.RotEvery) {
		return
	}
	var logBytes uint64
	if in.log != nil {
		logBytes = (in.img.LogBlocks() - in.log.Super().Start) * undolog.BlockBytes
	}
	total := logBytes + uint64(in.img.FinalBatchAt())
	if total == 0 {
		return
	}
	at := in.rand(classRotAt) % (total * 8)
	if at < logBytes*8 {
		blk := at / (undolog.BlockBytes * 8)
		bit := at % (undolog.BlockBytes * 8)
		if in.logf.flip(undolog.SuperBytes+int64(at/8), byte(1)<<(at%8)) == nil {
			in.counts.RotBits++
			in.flips = append(in.flips, Flip{in.log.Super().Start + blk, bit})
		}
		return
	}
	at -= logBytes * 8
	if in.imgf.flip(int64(at/8), byte(1)<<(at%8)) == nil {
		in.counts.RotBits++
	}
}

// file interposes on one durable file. old holds, for every sector
// written or truncated since the file's last fsync, its content as that
// fsync left it (zeros past the file's end then); synced is the file's
// length at that fsync.
type file struct {
	in     *Injector
	ops    storage.FileOps
	synced int64
	old    map[int64][]byte
}

// sector reads sector s of the file as it stands, zeros past its end.
func (f *file) sector(s int64) ([]byte, error) {
	b := make([]byte, sectorBytes)
	if _, err := f.ops.ReadAt(b, s*sectorBytes); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return b, nil
}

// track records, for every sector of [lo, hi) not yet written since the
// last fsync, its content as that fsync left it: what it holds now.
func (f *file) track(lo, hi int64) error {
	for s := lo / sectorBytes; s*sectorBytes < hi; s++ {
		if _, ok := f.old[s]; ok {
			continue
		}
		b, err := f.sector(s)
		if err != nil {
			return err
		}
		f.old[s] = b
	}
	return nil
}

// WriteAt implements storage.FileOps with injected ENOSPC, before any
// byte lands or after a prefix of p did.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	in := f.in
	if err := in.step(); err != nil {
		return 0, err
	}
	if in.roll(classWriteFail, in.prof.WriteFailEvery) {
		in.counts.WriteFails++
		return 0, fmt.Errorf("%w: write of %d bytes to %s: %w", ErrInjected, len(p), f.ops.Name(), syscall.ENOSPC)
	}
	n, short := len(p), false
	if n > 1 && in.roll(classShortWrite, in.prof.ShortWriteEvery) {
		n, short = 1+int(in.rand(classShortLen)%uint64(n-1)), true
		in.counts.ShortWrites++
	}
	if err := f.track(off, off+int64(n)); err != nil {
		return 0, err
	}
	w, err := f.ops.WriteAt(p[:n], off)
	if err == nil && short {
		err = fmt.Errorf("%w: short write: %d of %d bytes reached %s: %w", ErrInjected, n, len(p), f.ops.Name(), syscall.ENOSPC)
	}
	return w, err
}

// Truncate implements storage.FileOps: the sectors it shortens are
// tracked like written ones, so a cut may restore them.
func (f *file) Truncate(size int64) error {
	if err := f.in.step(); err != nil {
		return err
	}
	fi, err := f.ops.Stat()
	if err != nil {
		return err
	}
	if err := f.track(size, fi.Size()); err != nil {
		return err
	}
	return f.ops.Truncate(size)
}

// Sync implements storage.FileOps with injected EIO, once or, from
// Profile.PermanentSyncFrom on, for good. A successful fsync makes the
// file's sectors and length durable, and may be followed by rot.
func (f *file) Sync() error {
	in := f.in
	if err := in.step(); err != nil {
		return err
	}
	if p := in.prof.PermanentSyncFrom; p != 0 && in.op >= p {
		in.counts.SyncFails++
		return fmt.Errorf("%w: fsync of %s (permanent): %w", ErrInjected, f.ops.Name(), syscall.EIO)
	}
	if in.roll(classSyncFail, in.prof.SyncFailEvery) {
		in.counts.SyncFails++
		return fmt.Errorf("%w: fsync of %s: %w", ErrInjected, f.ops.Name(), syscall.EIO)
	}
	if err := f.ops.Sync(); err != nil {
		return err
	}
	fi, err := f.ops.Stat()
	if err != nil {
		return err
	}
	f.synced = fi.Size()
	clear(f.old)
	in.rot()
	return nil
}

// flip xors mask into the byte at off, on the real file and in the
// copy a cut would restore, so the cut keeps it either way.
func (f *file) flip(off int64, mask byte) error {
	var b [1]byte
	if _, err := f.ops.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= mask
	if _, err := f.ops.WriteAt(b[:], off); err != nil {
		return err
	}
	if old, ok := f.old[off/sectorBytes]; ok {
		old[off%sectorBytes] ^= mask
	}
	return nil
}

// cut applies the power cut to the file: each tracked sector, in
// ascending order, lands as written or as the last fsync left it, and
// the file ends at its synced length or its current one, each decision
// drawn from next.
func (f *file) cut(next func() uint64) {
	fi, err := f.ops.Stat()
	if err != nil {
		return
	}
	end := fi.Size()
	if end != f.synced && next()%2 == 0 {
		end = f.synced
		f.in.counts.LenLost++
	}
	sectors := make([]int64, 0, len(f.old))
	for s := range f.old {
		sectors = append(sectors, s)
	}
	slices.Sort(sectors)
	land := make([][]byte, len(sectors))
	for i, s := range sectors {
		now, err := f.sector(s)
		if err != nil {
			return
		}
		land[i] = now
		if bytes.Equal(now, f.old[s]) {
			continue
		}
		if next()%2 == 0 {
			f.in.counts.Landed++
		} else {
			land[i] = f.old[s]
			f.in.counts.Lost++
		}
	}
	if f.ops.Truncate(end) != nil {
		return
	}
	for i, s := range sectors {
		if at := s * sectorBytes; at < end {
			f.ops.WriteAt(land[i][:min(sectorBytes, end-at)], at)
		}
	}
}

// Pass-through reads, metadata and Close. They touch no injector state,
// so the log's reads may run beside the image's Load, as Dir.Recover
// runs them; after a power cut the process still releases its
// descriptors, and recovery reopens the files fresh.

func (f *file) ReadAt(p []byte, off int64) (int, error) { return f.ops.ReadAt(p, off) }
func (f *file) Stat() (os.FileInfo, error)              { return f.ops.Stat() }
func (f *file) Name() string                            { return f.ops.Name() }
func (f *file) Close() error                            { return f.ops.Close() }
