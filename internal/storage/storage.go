// Package storage provides durable backends for PiCL's undo log and the
// pieces a real on-disk deployment needs around it: a line-granular
// durable memory image kept as an append-only log of line records, and
// a persisted-epoch marker written in place.
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
//     staging/flush discipline), made durable by fsync in Sync.
//
// # Ordering contract
//
// The crash-consistency argument of the whole durable stack rests on
// three ordering rules, enforced by the callers in internal/core:
//
//  1. Write-ahead logging: an undo block covering a line must be
//     appended AND synced before any in-place write to that line is
//     staged in the image file. (The core's bloom-filter dependency
//     check flushes the staging buffer first; the mirror syncs inside
//     that flush.) A staged write reaches the file only at the image's
//     next Sync, later still.
//  2. Marker ordering: the persisted-epoch marker for epoch E is
//     written only after the log and every in-place write of epochs
//     <= E have been synced — for the image, appended by its Sync.
//  3. Marker in place: the marker file holds two CRC'd slots, and Set
//     overwrites only the slot not holding the newest marker, with one
//     positional write and one fsync — no temp file, rename or directory
//     fsync on the commit path. A crash can tear only that slot, which
//     Get discards in favor of the other, so recovery observes the last
//     completed Set. Files replaced whole (the marker's one-time
//     creation, Reset's image compaction) go through write-temp + fsync
//     + rename + directory fsync; Reset also fsyncs the directory after
//     recreating the log, before it writes epoch 0 into both slots.
//
// # Torn-tail semantics
//
// A crash can tear the final log block (partial write), the image's
// in-flight append, or the marker slot an in-flight Set was writing.
// All are survivable by construction: a torn log block is dropped by
// undolog.ReadLog's CRC scan, and the in-place writes it would have
// covered were never issued (rule 1), so recovery does not need its
// entries. Image records are fixed-size and CRC-checked; OpenImage
// drops a partial trailing record or an invalid final one. Every record
// of an interrupted append belongs to writes after the last marker sync
// (rule 2), covered by synced undo entries (rule 1), so recovery's
// backward undo scan overwrites the lines whether their records
// survived whole, torn or not at all. A torn marker slot fails its CRC
// and the other slot holds the last completed Set (rule 3).
//
// Rot is not a tear. An invalid image record with whole records behind
// it, like an invalid log block with blocks behind it, cannot be an
// interrupted append — appends are sequential — and is a hard error
// (ErrCorruptImage, undolog.ErrCorruptBlock), never a silently older
// line. Rot in the final record or block reads as a torn tail: it is
// indistinguishable from an interrupted write of it. A corrupt
// superblock, an image without this format's header (the older
// headerless layout included), or a marker with both slots invalid is
// likewise unrecoverable.
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
