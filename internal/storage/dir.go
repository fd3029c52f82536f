package storage

import (
	"errors"
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
	mk   *Marker    // the unwrapped marker: Reset points it at the compacted image
	wrap Wrapper    // re-applied to the image Reset's compaction opens
	rec  *recovered // what the last Recover found, for Reset to seal
}

// recovered is the report Recover leaves for Reset: the image it
// returned, the epoch it recovered to, and the lines its undo scan
// changed relative to what the image file replays.
type recovered struct {
	img     *mem.Image
	marker  mem.EpochID
	changed []mem.LineAddr
}

// CompactRatio bounds the image file across Opens: Reset rewrites it
// whole when it holds more than CompactRatio records per live line —
// line and commit records alike, so sessions that commit without
// writing cannot grow it past the bound either — and otherwise appends
// to it only what recovery changed.
const CompactRatio = 2

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
// re-wraps the image its compaction opens. Install after Recover/Reset
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
	// TornBytes is how many log bytes past that prefix recovery
	// ignored: blocks appended after the last log sync, whether a crash
	// left them whole, zeroed, garbage or torn; stale blocks a rewind
	// left behind the append point, which the session never overwrote;
	// and any partial tail, which the open cut. The whole blocks stay on
	// file for the next session to overwrite in place.
	TornBytes uint64
	// ImageTornBytes is how many torn image batch bytes — a commit the
	// crash interrupted, or rot in the final batch — were discarded at
	// open: the bytes past the sealed end up to the last non-zero one.
	// Zero padding is never torn: a cleanly closed image reports 0.
	ImageTornBytes uint64
	// ImagePadBytes is the zero padding the image held behind its sealed
	// end and any torn bytes at open: kept for later commits to
	// overwrite, or dropped with the torn bytes in front of it.
	ImagePadBytes uint64
	// Applied and Scanned report the backward undo scan's work, counted
	// as undolog.Log.ApplyTo counts them: the entries applied, and the
	// blocks scanned in front of the block it stopped at.
	Applied, Scanned int
	// Lines is the recovered image's non-zero line count.
	Lines int
	// Changed is how many lines the undo scan changed: the batch Reset
	// appends to an image it does not compact.
	Changed int
	// Records is how many records the image file holds, line and commit
	// records alike; Reset compacts it when they exceed CompactRatio
	// per live line.
	Records int64
}

// Recover rebuilds the consistent memory image from the directory's
// durable state (paper §IV-B, on real files): read the marker, validate
// every block of the log prefix its commit record names while the image
// loads beside it, scan the prefix backward from its end applying every
// entry covering the marker epoch until the first block that expired at
// or before it, and ignore the log past the prefix. The validation and
// the load read different files and share no state, so they run on two
// goroutines (see Wrapper) and recovery waits for the longer of them,
// the load. The validation's error wins: rot in the prefix is reported
// even when the image fails too, and a failed load only once the prefix
// validates. The log is read in fixed-size chunks and decoded a block
// at a time, so recovery's memory is bounded by the image, not by the
// log. Every block of the prefix was synced before the commit sealed,
// so a block of it that fails validation, or is missing, is rot
// (undolog.ErrCorruptBlock); whatever lies past it was never synced
// under any commit and is ignored, whatever its shape. Recover also
// keeps what Reset seals: the image it returns and the lines its scan
// changed.
func (d *Dir) Recover() (*mem.Image, RecoverInfo, error) {
	d.rec = nil
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
	checked := make(chan error, 1)
	go func() { checked <- checkLog(d.Log, start, named) }()
	img, err := d.Img.Load()
	if cerr := <-checked; cerr != nil {
		return nil, RecoverInfo{}, cerr
	}
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	applied, scanned, changed, err := applyLog(d.Log, start, named, img, marker)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	d.rec = &recovered{img: img, marker: marker, changed: changed}
	return img, RecoverInfo{
		Marker:         marker,
		MarkerAt:       max(d.mk.im.size-imageRecBytes, 0),
		BlocksRead:     int(named - start),
		TornBytes:      (have-named)*undolog.BlockBytes + d.Log.TornBytes(),
		ImageTornBytes: d.mk.im.TornBytes(),
		ImagePadBytes:  d.mk.im.pad,
		Applied:        applied,
		Scanned:        scanned,
		Lines:          img.Len(),
		Changed:        len(changed),
		Records:        d.mk.im.Records(),
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

// Reset seals what the last Recover returned as the new session's
// epoch-0 baseline, so a new machine's epoch numbering starts clean.
// An image holding at most CompactRatio records per live line is kept:
// the lines the undo scan changed are appended as one batch, in
// ascending line order, sealed under the recovered epoch and naming an
// empty log prefix (no batch when the scan changed nothing), and epoch
// 0 is sealed twice, each seal its own append and fsync. A larger image
// is compacted instead: atomically replaced by one record per live
// line, sealed the same way and followed by the two epoch-0 seals. Only
// then is the log rewound to its first block, in place: the new
// session's blocks overwrite the old ones from there.
//
// Every intermediate crash point is safe. Until the first seal, the old
// image and log still recover. From it on, the image file replays
// exactly the recovered state and the newest commits name an empty
// prefix, so recovery reads none of the old log. The second epoch-0
// seal means the commit recovery falls back to when the newest one is
// torn or rots is never the old session's, whose log prefix the new
// session overwrites; the rewind waits for it (the overwrite invariant,
// DESIGN.md §10.2). Reset fails unless Recover ran since the last
// Reset: it seals only what recovery read from these files.
func (d *Dir) Reset() error {
	r := d.rec
	if r == nil {
		return errors.New("storage: Reset without a Recover of the store")
	}
	d.rec = nil
	start := d.Log.Super().Start
	if d.mk.im.Records() > CompactRatio*int64(r.img.Len()) {
		if err := d.compact(r.img, r.marker, start); err != nil {
			return err
		}
		return d.Log.Rewind(start)
	}
	d.mk.im.syncedLog = start
	if len(r.changed) > 0 {
		for _, l := range r.changed {
			//lint:ignore walorder the diff batch restores recovered values; recovery at its commit reads no log
			if err := d.Img.WriteLine(l, r.img.Read(l)); err != nil {
				return err
			}
		}
		//lint:ignore walorder the diff's commit names an empty log prefix, so no log sync orders it
		if err := d.Mk.Set(r.marker); err != nil {
			return err
		}
	}
	for range 2 {
		if err := d.Mk.Set(0); err != nil {
			return err
		}
	}
	return d.Log.Rewind(start)
}

// compact atomically replaces the image file with one record per live
// line of img, sealed as epoch e, then epoch 0 sealed twice, every
// commit naming the empty log prefix that ends at block start: written
// to a temp file, fsynced, renamed over the image, and the directory
// fsynced. The seals share the temp file's one write and fsync: the
// file is whole before the rename makes it the image, so no seal of it
// can land torn or out of order, and rot in its final one falls back to
// an epoch-0 seal, never to a compaction with no commit behind it.
func (d *Dir) compact(img *mem.Image, e mem.EpochID, start uint64) error {
	imgPath := filepath.Join(d.path, ImageFileName)
	tmp := imgPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	compacted, err := writeCompacted(f, img, e, start)
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
	return nil
}

// writeCompacted writes a one-batch image holding img, sealed as epoch
// e, and two empty epoch-0 commits behind it, all naming the empty log
// prefix that ends at block start, into the empty file f, and returns
// it as an open image. The records follow mem.Image.Each's ascending
// line order, so the bytes are a function of img's content alone.
func writeCompacted(f *os.File, img *mem.Image, e mem.EpochID, start uint64) (*ImageFile, error) {
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
	buf = appendCommitRecord(buf, commitRec{epoch: e, logBlocks: start, count: n, sum: crc32.Update(sum, castagnoli, buf)})
	for range 2 {
		buf = appendCommitRecord(buf, commitRec{logBlocks: start})
	}
	flush()
	if err != nil {
		return nil, err
	}
	size := imageHeaderBytes + (n+3)*imageRecBytes
	return &ImageFile{f: f, size: size, alloc: size, sealedLog: start, syncedLog: start}, nil
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
//
// Every block past the named prefix is then dead: a later commit names
// either the same prefix (another bulk commit) or a fresh sync (an
// ACS-gap commit, whose recovery applies no entry of an epoch <= e).
// So the log is rewound to the prefix's end, and a session that commits
// only with Sync reuses the same blocks instead of growing its log.
func (d *Dir) PersistBulk(e mem.EpochID) error {
	if err := d.Mk.Set(e); err != nil {
		return err
	}
	return d.Log.Rewind(d.mk.im.LogBlocks())
}

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
