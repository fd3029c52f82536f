package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// Well-known file names inside a durable log directory.
const (
	LogFileName    = "undo.log"
	ImageFileName  = "image.dat"
	MarkerFileName = "marker"
)

// Dir is a durable PiCL store on a real filesystem: the undo log, the
// line-granular memory image, and the persisted-epoch marker, living
// together in one directory. It is what `picl.Open` mounts, what the
// SIGKILL crash harness leaves behind, and what `picl-recover -log`
// audits.
// The component fields are interfaces so a Wrapper (fault injection)
// can interpose on every durable operation; without a wrapper they hold
// the concrete *File, *ImageFile, and *Marker directly.
type Dir struct {
	path string
	Log  LogStore
	Img  ImageStore
	Mk   MarkerStore
	mk   *Marker // the unwrapped marker, for Recover's torn-slot report
	wrap Wrapper // re-applied to components reopened by Reset
}

// OpenDir opens (creating if absent) a durable store directory.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	lg, err := OpenFile(filepath.Join(path, LogFileName), 0)
	if err != nil {
		return nil, err
	}
	img, err := OpenImage(filepath.Join(path, ImageFileName))
	if err != nil {
		lg.Close()
		return nil, err
	}
	mk, err := OpenMarker(filepath.Join(path, MarkerFileName))
	if err != nil {
		lg.Close()
		img.Close()
		return nil, err
	}
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
	// BlocksRead is how many whole, valid log blocks were scanned in.
	BlocksRead int
	// TornBytes is how many partial log tail bytes the crash left
	// behind (discarded at open).
	TornBytes uint64
	// MarkerTorn reports a marker slot that failed validation: a Set the
	// crash interrupted, discarded in favor of the other slot.
	MarkerTorn bool
	// Applied and Scanned report the backward undo scan's work.
	Applied, Scanned int
	// Lines is the recovered image's non-zero line count.
	Lines int
}

// Recover rebuilds the consistent memory image from the directory's
// durable state: read the marker, load the image, scan the log backward
// applying every entry covering the marker epoch (paper §IV-B, on real
// files).
func (d *Dir) Recover() (*mem.Image, RecoverInfo, error) {
	if err := d.removeStaleTmp(); err != nil {
		return nil, RecoverInfo{}, err
	}
	marker, err := d.Mk.Get()
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	raw, err := d.Log.ReadAll()
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	l, read, err := undolog.ReadLog(bytes.NewReader(raw), 0)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	img, err := d.Img.Load()
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	applied, scanned := l.ApplyTo(img, marker)
	return img, RecoverInfo{
		Marker:     marker,
		BlocksRead: read,
		TornBytes:  d.Log.TornBytes(),
		MarkerTorn: d.mk.Torn(),
		Applied:    applied,
		Scanned:    scanned,
		Lines:      img.Len(),
	}, nil
}

// removeStaleTmp discards *.tmp files a crash left between a temp write
// and its atomic rename (the marker's one-time creation, Reset's image
// compaction). They are never part of durable state — the rename is the
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
// img: the image file is atomically replaced with the compacted state,
// the log is emptied, and the marker returns to 0. `picl.Open` calls
// this after recovery so a new machine's epoch numbering starts clean.
//
// Every intermediate crash point is safe: until the image rename lands
// the old image+log+marker still recover; after it, applying the old
// log's covering entries to the compacted image is the identity (they
// patch lines to exactly the end-of-marker values the compaction wrote);
// once the log is emptied the marker value no longer matters because
// there are no entries left to apply. The log swap (remove, create) is
// a directory change, so the directory is fsynced before the marker
// enters the new numbering: otherwise a power cut after the new
// session's first commits could bring the old log back, or leave none,
// beside a new-session marker. Epoch 0 then goes into both marker
// slots, so the slot Get falls back to when the newest is torn or rots
// never holds the old session's marker, whose log is gone.
func (d *Dir) Reset(img *mem.Image) error {
	imgPath := filepath.Join(d.path, ImageFileName)
	tmp := imgPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, imageIOBytes)
	var rec [imageRecBytes]byte
	werr := error(nil)
	img.Each(func(l mem.LineAddr, w mem.Word) {
		if werr != nil {
			return
		}
		binary.LittleEndian.PutUint64(rec[0:8], uint64(l))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(w))
		_, werr = bw.Write(rec[:])
	})
	if werr == nil {
		werr = bw.Flush()
	}
	if werr != nil {
		f.Close()
		return werr
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, imgPath); err != nil {
		return err
	}
	if err := d.Mk.SyncDir(); err != nil {
		return err
	}
	if err := d.Img.Close(); err != nil {
		return err
	}
	img2, err := OpenImage(imgPath)
	if err != nil {
		return err
	}
	d.Img = img2
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
	for slot := 0; slot < 2; slot++ {
		if err := d.Mk.Set(0); err != nil {
			return err
		}
	}
	return nil
}

// PersistMarker durably advances the persisted-epoch marker, enforcing
// the ordering contract: image first, then log, then the in-place
// marker write.
func (d *Dir) PersistMarker(e mem.EpochID) error {
	if err := d.Img.Sync(); err != nil {
		return err
	}
	if err := d.Log.Sync(); err != nil {
		return err
	}
	return d.Mk.Set(e)
}

// Sync flushes image and log staging without moving the marker.
func (d *Dir) Sync() error {
	if err := d.Img.Sync(); err != nil {
		return err
	}
	return d.Log.Sync()
}

// Close syncs and releases every component.
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
