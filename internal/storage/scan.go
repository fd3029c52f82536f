package storage

import (
	"fmt"
	"slices"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// logIOBlocks is how many blocks one positional read of a log scan
// covers: 64 KB, so a scan's memory is one fixed buffer however long
// the log grows.
const logIOBlocks = 32

// eachStored calls fn on the raw bytes of log blocks [lo, hi) of lg —
// ascending, or descending if backward — reading logIOBlocks blocks at
// a time, and stops at fn's first error or first false. raw aliases a
// buffer the next read reuses.
func eachStored(lg LogStore, lo, hi uint64, backward bool, fn func(n uint64, raw []byte) (bool, error)) error {
	buf := make([]byte, min(hi-lo, logIOBlocks)*undolog.BlockBytes)
	for done := uint64(0); done < hi-lo; {
		k := min(hi-lo-done, logIOBlocks)
		first := lo + done
		if backward {
			first = hi - done - k
		}
		if err := lg.ReadBlocks(first, buf[:k*undolog.BlockBytes]); err != nil {
			return err
		}
		for j := range k {
			i := j
			if backward {
				i = k - 1 - j
			}
			more, err := fn(first+i, buf[i*undolog.BlockBytes:(i+1)*undolog.BlockBytes])
			if err != nil || !more {
				return err
			}
		}
		done += k
	}
	return nil
}

// checkLog validates every block of the log prefix [start, named) the
// marker's commit names — magic, CRC and entry count, its entries left
// undecoded. Every block of the prefix was synced before that commit
// sealed, so one that fails is rot (undolog.ErrCorruptBlock), wherever
// it lies: in front of the block the recovery scan stops at as much as
// behind it.
func checkLog(lg LogStore, start, named uint64) error {
	return eachStored(lg, start, named, false, func(n uint64, raw []byte) (bool, error) {
		if err := undolog.CheckBlock(raw); err != nil {
			return false, fmt.Errorf("block %d of the %d-block log prefix the marker's commit names fails validation (media rot, not an unsynced block): %w",
				n, named, err)
		}
		return true, nil
	})
}

// applyLog is undolog.Log.ApplyTo over the log prefix [start, named)
// on file, one block in memory at a time: it reads the prefix backward
// from its end, decoding each block and applying it with Block.Apply,
// until the first block whose expiration tag is at or before marker.
// It returns the entries applied and the blocks scanned, counted as
// ApplyTo counts them, and the lines whose value the scan changed, in
// ascending order: what img holds beyond what the image file replays.
func applyLog(lg LogStore, start, named uint64, img *mem.Image, marker mem.EpochID) (applied, scanned int, changed []mem.LineAddr, err error) {
	replayed := map[mem.LineAddr]mem.Word{} // each line the scan writes, as the image file replays it
	err = eachStored(lg, start, named, true, func(_ uint64, raw []byte) (bool, error) {
		b, err := undolog.DecodeBlock(raw)
		if err != nil {
			return false, err
		}
		for _, e := range b.Entries {
			if _, ok := replayed[e.Line]; !ok && e.Covers(marker) {
				replayed[e.Line] = img.Read(e.Line)
			}
		}
		n, stop := b.Apply(img, marker)
		if stop {
			return false, nil
		}
		applied += n
		scanned++
		return true, nil
	})
	for l, w := range replayed {
		if img.Read(l) != w {
			changed = append(changed, l)
		}
	}
	slices.Sort(changed)
	return applied, scanned, changed, err
}

// EachBlock calls fn on every block the log stores, oldest first,
// decoding one block at a time from chunked positional reads, and
// stops at the first error. After Recover that is the prefix recovery
// read (cmd/picl-recover's structural audit).
func (d *Dir) EachBlock(fn func(undolog.Block) error) error {
	return eachStored(d.Log, d.Log.Super().Start, d.Log.Blocks(), false, func(_ uint64, raw []byte) (bool, error) {
		b, err := undolog.DecodeBlock(raw)
		if err == nil {
			err = fn(b)
		}
		return err == nil, err
	})
}
