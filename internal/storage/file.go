package storage

import (
	"fmt"
	"io"
	"os"

	"picl/internal/undolog"
)

// File is the undo log on a real disk, and the block store a Results
// region lives on. The layout is the durable byte representation itself
// — a 64 B superblock at offset 0 followed by whole 2 KB blocks — so a
// File's content can be fed straight to undolog.ReadLog. Appends are
// sequential positional writes of exactly one block (the
// row-buffer-sized flush the paper's on-chip undo buffer issues);
// durability is deferred to Sync, which maps to fsync. Rewind moves the append point back without I/O, so a
// log's space is reused where it lies: the blocks past the append point
// stay on file, stale, until appends overwrite them in place.
type File struct {
	f      FileOps
	super  undolog.Super
	blocks uint64 // the append point: total blocks including the GC'd prefix
	stored uint64 // whole blocks on file, stale ones past a Rewind included
	torn   uint64 // partial tail bytes discarded at open
	dirty  bool
}

// OpenFile opens (creating if absent) a log file. A fresh file is
// initialized with a synced superblock for an empty, never-GC'd region
// of regionBytes capacity (undolog.DefaultRegionBytes if 0). An
// existing file has its superblock validated (a corrupt one is a hard
// undolog.ErrCorruptSuper) and any partial tail block discarded; the
// number of torn bytes dropped is reported by TornBytes.
func OpenFile(path string, regionBytes uint64) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	lf := &File{f: f}
	if fi.Size() == 0 {
		if regionBytes == 0 {
			regionBytes = undolog.DefaultRegionBytes
		}
		lf.super = undolog.Super{Version: undolog.SuperVersion, RegionBytes: regionBytes}
		if _, err := f.WriteAt(undolog.EncodeSuper(lf.super), 0); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		return lf, nil
	}

	sraw := make([]byte, undolog.SuperBytes)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, undolog.SuperBytes), sraw); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: file shorter than a superblock", undolog.ErrCorruptSuper)
	}
	super, err := undolog.DecodeSuper(sraw)
	if err != nil {
		f.Close()
		return nil, err
	}
	lf.super = super
	payload := fi.Size() - undolog.SuperBytes
	whole := uint64(payload) / undolog.BlockBytes
	lf.torn = uint64(payload) % undolog.BlockBytes
	if lf.torn != 0 {
		// Torn tail write: drop the partial block (its entries cover
		// only in-place writes that were never issued — see the
		// package ordering contract).
		if err := f.Truncate(undolog.SuperBytes + int64(whole)*undolog.BlockBytes); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	lf.blocks = super.Start + whole
	lf.stored = lf.blocks
	return lf, nil
}

// Super returns the file's superblock geometry.
func (lf *File) Super() undolog.Super { return lf.super }

// TornBytes reports how many partial tail bytes were discarded when the
// file was opened (0 for a cleanly closed log).
func (lf *File) TornBytes() uint64 { return lf.torn }

// AppendBlock implements LogStore: one sequential positional block
// write at the append point, over a stale block if a Rewind left one
// there. The data is staged in the OS page cache until Sync.
func (lf *File) AppendBlock(raw []byte) error {
	if err := checkBlock(raw); err != nil {
		return err
	}
	off := undolog.SuperBytes + int64(lf.blocks-lf.super.Start)*undolog.BlockBytes
	if _, err := lf.f.WriteAt(raw, off); err != nil {
		return err
	}
	lf.blocks++
	lf.stored = max(lf.stored, lf.blocks)
	lf.dirty = true
	return nil
}

// Rewind implements LogStore: the append point moves back to block n
// (absolute numbering, between the GC'd prefix and Blocks) with no I/O.
// The blocks from n on stay on file, stale, and the next appends
// overwrite them in place; recovery never reads them, since they lie
// past every prefix a sealed commit names (see the package ordering
// contract).
func (lf *File) Rewind(n uint64) error {
	if n < lf.super.Start || n > lf.blocks {
		return fmt.Errorf("storage: rewind to block %d outside [%d, %d]", n, lf.super.Start, lf.blocks)
	}
	lf.blocks = n
	return nil
}

// Sync implements LogStore: fsync, making every appended block durable.
func (lf *File) Sync() error {
	if !lf.dirty {
		return nil
	}
	if err := lf.f.Sync(); err != nil {
		return err
	}
	lf.dirty = false
	return nil
}

// Blocks implements LogStore.
func (lf *File) Blocks() uint64 { return lf.blocks }

// ReadBlocks implements LogStore: one positional read of the stored
// blocks from block first on into p — stale blocks past a Rewind
// included.
func (lf *File) ReadBlocks(first uint64, p []byte) error {
	n := uint64(len(p)) / undolog.BlockBytes
	if uint64(len(p))%undolog.BlockBytes != 0 || first < lf.super.Start || first+n > lf.stored {
		return fmt.Errorf("storage: read of %d bytes at block %d, the log stores whole blocks [%d, %d)",
			len(p), first, lf.super.Start, lf.stored)
	}
	_, err := lf.f.ReadAt(p, undolog.SuperBytes+int64(first-lf.super.Start)*undolog.BlockBytes)
	return err
}

// Truncate implements LogStore: discard tail blocks so n total remain,
// durably, stale ones included.
func (lf *File) Truncate(n uint64) error {
	if n < lf.super.Start {
		return fmt.Errorf("storage: truncate to %d below GC'd prefix %d", n, lf.super.Start)
	}
	if n >= lf.blocks {
		return nil
	}
	if err := lf.f.Truncate(undolog.SuperBytes + int64(n-lf.super.Start)*undolog.BlockBytes); err != nil {
		return err
	}
	lf.blocks, lf.stored = n, n
	return lf.f.Sync()
}

// Refresh implements LogStore: it re-stats the file and extends the
// logical block count to cover whole blocks another process appended
// to the shared region (the serving daemon's cross-process result
// store). A partial tail — a foreign append still in flight — is left
// alone: it is not this process's crash to repair. Refresh never
// shrinks the count, and is for logs that never Rewind.
func (lf *File) Refresh() error {
	fi, err := lf.f.Stat()
	if err != nil {
		return err
	}
	payload := fi.Size() - undolog.SuperBytes
	if payload < 0 {
		payload = 0
	}
	whole := lf.super.Start + uint64(payload)/undolog.BlockBytes
	if whole > lf.blocks {
		lf.blocks = whole
	}
	lf.stored = max(lf.stored, lf.blocks)
	return nil
}

// Close implements LogStore.
func (lf *File) Close() error {
	if err := lf.Sync(); err != nil {
		lf.f.Close()
		return err
	}
	return lf.f.Close()
}

// WrapFile interposes w on the file's I/O: every later read, write,
// truncate and fsync goes through the FileOps w returns.
func (lf *File) WrapFile(w func(FileOps) FileOps) { lf.f = w(lf.f) }

// checkBlock validates an encoded block's size before it is accepted.
func checkBlock(raw []byte) error {
	if len(raw) != undolog.BlockBytes {
		return fmt.Errorf("storage: block is %d bytes, want %d", len(raw), undolog.BlockBytes)
	}
	return nil
}
