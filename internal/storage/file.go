package storage

import (
	"fmt"
	"io"
	"os"

	"picl/internal/undolog"
)

// File is the file-backed Backend: the undo log on a real disk. The
// layout is the durable byte representation itself — a 64 B superblock
// at offset 0 followed by whole 2 KB blocks — so a File's content can
// be fed straight to undolog.ReadLog. Appends are sequential positional
// writes of exactly one block (the row-buffer-sized flush the paper's
// on-chip undo buffer issues); durability is deferred to Sync, which
// maps to fsync.
type File struct {
	f      *os.File
	super  undolog.Super
	blocks uint64 // total blocks including the GC'd prefix
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
	return lf, nil
}

// Super returns the file's superblock geometry.
func (lf *File) Super() undolog.Super { return lf.super }

// TornBytes reports how many partial tail bytes were discarded when the
// file was opened (0 for a cleanly closed log).
func (lf *File) TornBytes() uint64 { return lf.torn }

// AppendBlock implements Backend: one sequential positional block
// write. The data is staged in the OS page cache until Sync.
func (lf *File) AppendBlock(raw []byte) error {
	if err := checkBlock(raw); err != nil {
		return err
	}
	off := undolog.SuperBytes + int64(lf.blocks-lf.super.Start)*undolog.BlockBytes
	if _, err := lf.f.WriteAt(raw, off); err != nil {
		return err
	}
	lf.blocks++
	lf.dirty = true
	return nil
}

// Sync implements Backend: fsync, making every appended block durable.
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

// Blocks implements Backend.
func (lf *File) Blocks() uint64 { return lf.blocks }

// ReadAll implements Backend.
func (lf *File) ReadAll() ([]byte, error) {
	size := undolog.SuperBytes + int64(lf.blocks-lf.super.Start)*undolog.BlockBytes
	out := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(lf.f, 0, size), out); err != nil {
		return nil, err
	}
	return out, nil
}

// Truncate implements Backend: discard tail blocks so n total remain,
// durably.
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
	lf.blocks = n
	return lf.f.Sync()
}

// Refresh re-stats the file and extends the logical block count to
// cover whole blocks another process appended to the shared region
// (the serving daemon's cross-process result store). A partial tail —
// a foreign append still in flight — is left alone: it is not this
// process's crash to repair. Refresh never shrinks the count.
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
	return nil
}

// TearTail simulates a block append interrupted mid-row by a power
// failure: only the first n bytes of raw land at the append offset,
// forced to media, leaving a partial tail block for the next open to
// repair. The logical block count does not advance — the append never
// completed. Fault injection only (internal/storage/fault).
func (lf *File) TearTail(raw []byte, n int) error {
	if n <= 0 || n >= len(raw) {
		return fmt.Errorf("storage: tear of %d bytes of a %d-byte block", n, len(raw))
	}
	off := undolog.SuperBytes + int64(lf.blocks-lf.super.Start)*undolog.BlockBytes
	if _, err := lf.f.WriteAt(raw[:n], off); err != nil {
		return err
	}
	return lf.f.Sync()
}

// LandUnsynced simulates what a power cut leaves of the blocks appended
// after the last sync: the file is cut back to n total blocks, then
// landed[i] is written where block n+i went — a short slice is a torn
// block, an empty one never reached the disk (zeros, if anything landed
// behind it) — and forced to media. The logical count becomes n. Fault
// injection only (internal/storage/fault).
func (lf *File) LandUnsynced(n uint64, landed [][]byte) error {
	if err := lf.Truncate(n); err != nil {
		return err
	}
	off := undolog.SuperBytes + int64(n-lf.super.Start)*undolog.BlockBytes
	for i, b := range landed {
		if _, err := lf.f.WriteAt(b, off+int64(i)*undolog.BlockBytes); err != nil {
			return err
		}
	}
	return lf.f.Sync()
}

// RotBit flips a single bit inside stored block b (absolute numbering,
// as Blocks counts) and forces it to media — simulated media rot. Fault
// injection only; the injector targets blocks of the prefix the last
// commit names, so the corruption must be detected by recovery rather
// than dropped with the unsynced blocks behind it.
func (lf *File) RotBit(block, bit uint64) error {
	if block < lf.super.Start || block >= lf.blocks {
		return fmt.Errorf("storage: rot of block %d outside stored range [%d, %d)",
			block, lf.super.Start, lf.blocks)
	}
	bit %= undolog.BlockBytes * 8
	off := undolog.SuperBytes + int64(block-lf.super.Start)*undolog.BlockBytes + int64(bit/8)
	var b [1]byte
	if _, err := lf.f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := lf.f.WriteAt(b[:], off); err != nil {
		return err
	}
	return lf.f.Sync()
}

// Close implements Backend.
func (lf *File) Close() error {
	if err := lf.Sync(); err != nil {
		lf.f.Close()
		return err
	}
	return lf.f.Close()
}

var _ Backend = (*File)(nil)
