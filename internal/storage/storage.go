// Package storage provides durable backends for PiCL's undo log and the
// pieces a real on-disk deployment needs around it: a line-granular
// durable memory image kept as an append-only log of line records, and
// the persisted-epoch marker, which is the image log's last commit
// record.
// It is the first layer of the stack whose state outlives the
// simulator process — `picl.Open` builds a crash-consistent store on it,
// cmd/picl-crash SIGKILLs real child processes against it, and
// cmd/picl-recover audits what it left behind.
//
// Two Backend implementations exist:
//
//   - Mem models the simulated in-NVM log region: the byte image it
//     accumulates is identical to undolog.Log.WriteTo output (the golden
//     byte-identity tests pin this), so everything that consumes durable
//     log bytes is agnostic to which backend produced them.
//   - File stores the same bytes in a real file, one sequential 2 KB
//     block write per append (cf. pmembench's LogWriterZeroCached
//     staging/flush discipline), made durable by fsync in Sync, which
//     only the commits that need it call.
//
// # Ordering contract
//
// The crash-consistency argument of the whole durable stack rests on
// three ordering rules, enforced by the callers in internal/core:
//
//  1. Write-ahead logging: an undo block covering a line must be
//     appended to the log before any in-place write to that line is
//     staged in the image file. (The core's bloom-filter dependency
//     check flushes the staging buffer first.) The append is not
//     synced: a staged write reaches the file only in a commit, and the
//     commit that needs the block syncs the log first (rule 2).
//  2. Commit ordering: the commit that advances the persisted-epoch
//     marker to epoch E carries every in-place write staged since the
//     previous commit in its own append — the staged line records, then
//     one commit record sealing them (their count and CRC32C) as epoch
//     E — and names the undo-log prefix recovery at E reads: the log's
//     block count at its last sync. An ACS-gap commit
//     (Dir.PersistMarker) syncs the log first, since its batch can hold
//     writes of epochs after E whose undo entries recovery applies. The
//     bulk ACS's commit (Dir.PersistBulk) does not: every line then
//     holds its newest value of an epoch <= E and every undo entry
//     logged ends at or before E, so recovery at E applies none. Nothing
//     else writes image records, so every record on file is sealed or
//     torn.
//  3. Commit in place: Marker.Set appends that batch to the open image
//     file with one positional write and one fsync — no temp file,
//     rename or directory fsync on the commit path, and never a write
//     below the last sealed commit. The log is reused in place, never
//     removed or recreated, under the overwrite invariant: no log write
//     lands below the largest prefix either of the two newest sealed
//     commits names. A bulk commit rewinds it to the prefix it names;
//     Reset seals the recovered state — the lines recovery changed,
//     under the recovered epoch and naming an empty prefix, then epoch
//     0 twice — before it rewinds the log to its first block. A file
//     replaced whole (Reset's image compaction, past CompactRatio) goes
//     through write-temp + fsync + rename + directory fsync.
//
// # Torn data and rot
//
// A crash can leave the log's unsynced blocks — everything past the
// count of its last sync — in any shape: each one whole, zeros,
// garbage, torn, or the stale block from before a rewind that it
// overwrote, in any order, since a page cache writes unsynced pages
// back as it likes; and it can tear the image's in-flight commit
// batch, in order or out of it. Both are survivable by construction.
// Dir.Recover reads the log only up to the prefix the last sealed
// commit names and drops the rest, whatever its shape — stale blocks a
// rewind left behind the append point included: no commit needed it.
// It reads that prefix in fixed-size chunks, twice: it validates every
// block of it without decoding entries, then scans it backward from
// its end one block at a time, applying each until the first that
// expired at or before the marker (paper §IV-B) — so its memory is
// bounded by the image, not by the log. OpenImage keeps the image up
// to the last commit record whose batch validates and drops the rest
// as a torn batch: whatever of an interrupted append landed, in
// whatever order, its commit record cannot seal it. Every record of
// that batch belongs to writes after the last marker, so recovery's
// backward undo scan over the named prefix overwrites the lines
// whether their records survived whole, torn or not at all.
//
// Rot is not a tear. Every block of the named prefix was synced before
// its commit sealed, so a block of it that fails validation, or is
// missing, is rot (undolog.ErrCorruptBlock), never dropped — in front
// of the block the backward scan stops at as much as behind it, which
// is why the validation pass reads the whole prefix. An invalid
// image record or batch with a sealed batch behind it cannot be an
// interrupted append either — appends are sequential and only the last
// can be in flight — and is a hard error (ErrCorruptImage), never a
// silently older line. Rot in the final batch, its commit record
// included, reads as a torn batch: it is indistinguishable from an
// interrupted write of it. Recovery then lands one commit back, which
// is still a consistent checkpoint: that commit names the log prefix
// holding the undo entries for every line it sealed past its epoch, and
// the later prefix still holds it whole. A corrupt
// superblock, or an image without this format's header (the older
// layouts included), is likewise unrecoverable.
package storage

import (
	"fmt"

	"picl/internal/undolog"
)

// Backend is durable, append-only block storage for the undo log. All
// implementations present the identical durable byte representation:
// one undolog superblock followed by whole 2 KB blocks.
//
// AppendBlock may stage; data is guaranteed durable only after Sync
// returns. Implementations are not safe for concurrent use.
type Backend interface {
	// AppendBlock appends one encoded block (exactly undolog.BlockBytes
	// long, as produced by undolog.EncodeBlock).
	AppendBlock(raw []byte) error
	// Sync makes every appended block durable (fsync for files; a
	// no-op for memory regions).
	Sync() error
	// Blocks reports the total block count including the GC'd prefix
	// recorded in the superblock — the same watermark as
	// undolog.Log.Blocks.
	Blocks() uint64
	// ReadAll returns the full durable byte representation: the
	// superblock followed by every stored block, ready for
	// undolog.ReadLog.
	ReadAll() ([]byte, error)
	// Truncate discards appended blocks from the tail so that n total
	// blocks remain (crash support and torn-tail repair). n below the
	// GC'd prefix is an error; n at or above the current count is a
	// no-op.
	Truncate(n uint64) error
	// Close releases the backend, syncing staged data first.
	Close() error
}

// checkBlock validates an encoded block's size before it is accepted.
func checkBlock(raw []byte) error {
	if len(raw) != undolog.BlockBytes {
		return fmt.Errorf("storage: block is %d bytes, want %d", len(raw), undolog.BlockBytes)
	}
	return nil
}

// DumpLog replays a live log (superblock geometry plus every live
// block) into a backend and syncs it. Dumping into a fresh Mem created
// with l.Super() yields bytes identical to l.WriteTo — the byte-identity
// bridge between the simulated region and real files.
func DumpLog(l *undolog.Log, b Backend) error {
	err := l.EachBlock(func(bl undolog.Block) error {
		raw, err := undolog.EncodeBlock(bl)
		if err != nil {
			return err
		}
		return b.AppendBlock(raw)
	})
	if err != nil {
		return err
	}
	return b.Sync()
}
