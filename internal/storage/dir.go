package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// Well-known file names inside a durable log directory.
const (
	LogFileName   = "undo.log"
	ImageFileName = "image.dat"
)

// Dir is a durable PiCL store on a real filesystem: the undo log and
// the line-granular memory image, whose last commit record is the
// persisted-epoch marker, living together in one directory. It is what
// `picl.Open` mounts, what the SIGKILL crash harness leaves behind, and
// what `picl-recover -log` audits.
// The component fields are interfaces so a Wrapper (fault injection)
// can interpose on every durable operation; without a wrapper they hold
// the concrete *File, *ImageFile, and *Marker directly.
type Dir struct {
	path string
	Log  LogStore
	Img  ImageStore
	Mk   MarkerStore
	mk   *Marker // the unwrapped marker: Reset points it at the compacted image
	wrap Wrapper // re-applied to components reopened by Reset
}

// OpenDir opens (creating if absent) a durable store directory. The
// image opens first, so a store whose image is refused (an older
// format) keeps its log untouched too.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	img, err := OpenImage(filepath.Join(path, ImageFileName))
	if err != nil {
		return nil, err
	}
	lg, err := OpenFile(filepath.Join(path, LogFileName), 0)
	if err != nil {
		img.Close()
		return nil, err
	}
	dirf, err := os.Open(path)
	if err != nil {
		lg.Close()
		img.Close()
		return nil, err
	}
	mk := &Marker{im: img, dirf: dirf}
	return &Dir{path: path, Log: lg, Img: img, Mk: mk, mk: mk}, nil
}

// Path returns the directory the store lives in.
func (d *Dir) Path() string { return d.path }

// Wrap interposes w on every component and remembers it, so Reset
// re-wraps the fresh components it opens. Install after Recover/Reset
// (mount-time recovery should read the real files) and before handing
// the Dir to a machine.
func (d *Dir) Wrap(w Wrapper) {
	if w == nil {
		return
	}
	d.wrap = w
	d.Log = w.WrapLog(d.Log)
	d.Img = w.WrapImage(d.Img)
	d.Mk = w.WrapMarker(d.Mk)
}

// RecoverInfo summarizes what a durable recovery found and did.
type RecoverInfo struct {
	// Marker is the epoch recovered to (the newest durable marker).
	Marker mem.EpochID
	// MarkerAt is the byte offset in the image file of the commit
	// record the marker came from (0 for an image with none).
	MarkerAt int64
	// BlocksRead is the length of the log prefix the marker's commit
	// record names: every block of it was validated, and the backward
	// scan decoded the ones it reached.
	BlocksRead int
	// TornBytes is how many log bytes past that prefix were dropped:
	// blocks appended after the last log sync, whether a crash left
	// them whole, zeroed, garbage or torn, and any partial tail.
	TornBytes uint64
	// ImageTornBytes is how many torn image batch bytes — a commit
	// append the crash interrupted, or rot in the final batch — were
	// discarded at open.
	ImageTornBytes uint64
	// Applied and Scanned report the backward undo scan's work, counted
	// as undolog.Log.ApplyTo counts them: the entries applied, and the
	// blocks scanned in front of the block it stopped at.
	Applied, Scanned int
	// Lines is the recovered image's non-zero line count.
	Lines int
}

// Recover rebuilds the consistent memory image from the directory's
// durable state (paper §IV-B, on real files): read the marker, validate
// every block of the log prefix its commit record names, load the
// image, scan the prefix backward from its end applying every entry
// covering the marker epoch until the first block that expired at or
// before it, and drop the log past the prefix. The log is read in
// fixed-size chunks and decoded a block at a time, so recovery's memory
// is bounded by the image, not by the log. Every block of the prefix
// was synced before the commit sealed, so a block of it that fails
// validation, or is missing, is rot (undolog.ErrCorruptBlock); whatever
// lies past it was never synced under any commit and is dropped,
// whatever its shape.
func (d *Dir) Recover() (*mem.Image, RecoverInfo, error) {
	if err := d.removeStaleTmp(); err != nil {
		return nil, RecoverInfo{}, err
	}
	marker, err := d.Mk.Get()
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	named, have, start := d.mk.im.LogBlocks(), d.Log.Blocks(), d.Log.Super().Start
	if named < start || named > have {
		return nil, RecoverInfo{}, fmt.Errorf("%w: the marker's commit names a %d-block log prefix, the log holds blocks [%d, %d) (media rot, not an unsynced block)",
			undolog.ErrCorruptBlock, named, start, have)
	}
	if err := checkLog(d.Log, start, named); err != nil {
		return nil, RecoverInfo{}, err
	}
	img, err := d.Img.Load()
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	applied, scanned, err := applyLog(d.Log, start, named, img, marker)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	if err := d.Log.Truncate(named); err != nil {
		return nil, RecoverInfo{}, err
	}
	return img, RecoverInfo{
		Marker:         marker,
		MarkerAt:       max(d.mk.im.size-imageRecBytes, 0),
		BlocksRead:     int(named - start),
		TornBytes:      (have-named)*undolog.BlockBytes + d.Log.TornBytes(),
		ImageTornBytes: d.mk.im.TornBytes(),
		Applied:        applied,
		Scanned:        scanned,
		Lines:          img.Len(),
	}, nil
}

// removeStaleTmp discards *.tmp files a crash left between a temp write
// and its atomic rename (Reset's image compaction). They are never part of durable state — the rename is the
// commit point — but without cleanup a crashed store carries them
// forever. The removal is fsynced through the directory handle so it
// cannot itself be undone by a crash.
func (d *Dir) removeStaleTmp() error {
	stale, err := filepath.Glob(filepath.Join(d.path, "*.tmp"))
	if err != nil {
		return err
	}
	if len(stale) == 0 {
		return nil
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return d.Mk.SyncDir()
}

// Reset compacts the store to a fresh epoch-0 baseline holding exactly
// img: the image file is atomically replaced with one record per live
// line, sealed under the recovered epoch, the log is emptied, and the
// marker returns to 0. `picl.Open` calls this after recovery so a new
// machine's epoch numbering starts clean.
//
// Every intermediate crash point is safe: until the image rename lands
// the old image+log still recover; after it, the compacted image is
// sealed under the recovered epoch and names an empty log prefix, so
// recovery applies none of the old log's entries — the compaction wrote
// exactly the state they would restore — and drops the old log whole. The log swap (remove, create) is a directory change,
// so the directory is fsynced before the marker enters the new
// numbering: otherwise a power cut after the new session's first
// commits could bring the old log back, or leave none, beside a
// new-session marker. Epoch 0 is then sealed twice, so the commit
// recovery falls back to when the newest one is torn or rots is never
// the old session's, whose log is gone.
func (d *Dir) Reset(img *mem.Image) error {
	e, err := d.Mk.Get()
	if err != nil {
		return err
	}
	imgPath := filepath.Join(d.path, ImageFileName)
	tmp := imgPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	compacted, err := writeCompacted(f, img, e)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(tmp, imgPath); err != nil {
		f.Close()
		return err
	}
	if err := d.Mk.SyncDir(); err != nil {
		f.Close()
		return err
	}
	if err := d.Img.Close(); err != nil {
		f.Close()
		return err
	}
	d.mk.im = compacted
	d.Img = compacted
	if d.wrap != nil {
		d.Img = d.wrap.WrapImage(d.Img)
	}

	// Fresh, empty log: recreate rather than truncate so the block
	// numbering restarts at 0 alongside the new machine's epochs.
	region := d.Log.Super().RegionBytes
	logPath := filepath.Join(d.path, LogFileName)
	if err := d.Log.Close(); err != nil {
		return err
	}
	if err := os.Remove(logPath); err != nil {
		return err
	}
	log2, err := OpenFile(logPath, region)
	if err != nil {
		return err
	}
	d.Log = log2
	if d.wrap != nil {
		d.Log = d.wrap.WrapLog(d.Log)
	}
	if err := d.Mk.SyncDir(); err != nil {
		return err
	}
	for range 2 {
		if err := d.Mk.Set(0); err != nil {
			return err
		}
	}
	return nil
}

// writeCompacted writes a one-batch image holding img, sealed as epoch
// e and naming an empty log prefix, into the empty file f, and returns
// it as an open image. The records follow mem.Image.Each's ascending
// line order, so the bytes are a function of img's content alone.
func writeCompacted(f *os.File, img *mem.Image, e mem.EpochID) (*ImageFile, error) {
	if _, err := f.Write(imageHeader[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, imageIOBytes)
	var sum uint32 // CRC32C of the records flushed so far
	var n int64
	var err error
	flush := func() {
		if err == nil {
			_, err = f.Write(buf)
		}
		sum = crc32.Update(sum, castagnoli, buf)
		buf = buf[:0]
	}
	img.Each(func(l mem.LineAddr, w mem.Word) {
		if len(buf) == cap(buf) {
			flush()
		}
		buf = appendImageRecord(buf, l, w)
		n++
	})
	buf = appendCommitRecord(buf, commitRec{epoch: e, count: n, sum: crc32.Update(sum, castagnoli, buf)})
	flush()
	if err != nil {
		return nil, err
	}
	return &ImageFile{f: f, size: imageHeaderBytes + (n+1)*imageRecBytes, epoch: e}, nil
}

// PersistMarker durably advances the persisted-epoch marker, enforcing
// the ordering contract: the log first, then the commit that seals the
// staged image records as epoch e and names the synced log prefix. It
// is the commit an ACS-gap scan makes: its batch can hold evictions of
// epochs newer than e, whose undo entries recovery at e applies.
func (d *Dir) PersistMarker(e mem.EpochID) error {
	if err := d.Log.Sync(); err != nil {
		return err
	}
	d.mk.im.syncedLog = d.Log.Blocks()
	return d.Mk.Set(e)
}

// PersistBulk durably advances the marker to e without syncing the log:
// the commit seals the staged image records and names the log prefix of
// the last sync. It is the bulk ACS's commit (paper §IV-C), after which
// every line on disk holds its newest value of an epoch <= e, so
// recovery at e applies no undo entry — every entry logged so far ends
// at or before e. Only core.PiCL.ForcePersist may reach it (walorder
// checks that); any other commit goes through PersistMarker.
func (d *Dir) PersistBulk(e mem.EpochID) error { return d.Mk.Set(e) }

// Close releases every component; image records no commit sealed are
// dropped.
func (d *Dir) Close() error {
	err := d.Log.Close()
	if e := d.Img.Close(); err == nil {
		err = e
	}
	if e := d.Mk.Close(); err == nil {
		err = e
	}
	return err
}

// RecoverDir is the one-shot read path: open a durable store, recover
// its consistent image, and close it again (cmd/picl-recover and the
// crash harness's verifier).
func RecoverDir(path string) (*mem.Image, RecoverInfo, error) {
	d, err := OpenDir(path)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	defer d.Close()
	return d.Recover()
}
