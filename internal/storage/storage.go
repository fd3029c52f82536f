// Package storage provides durable backends for PiCL's undo log and the
// pieces a real on-disk deployment needs around it: a line-granular
// durable memory image kept as a log of line records, written at its
// sealed end over zero padding the file is extended with ahead of the
// commits, and the persisted-epoch marker, which is the image log's
// last commit record.
// It is the first layer of the stack whose state outlives the
// simulator process — `picl.Open` builds a crash-consistent store on it,
// cmd/picl-crash SIGKILLs real child processes against it, and
// cmd/picl-recover audits what it left behind.
//
// File stores the undo log in a real file, one sequential 2 KB block
// write per append (cf. pmembench's LogWriterZeroCached staging/flush
// discipline), made durable by fsync in Sync, which only the commits
// that need it call; its bytes are exactly undolog.Log.WriteTo's, so
// undolog.ReadLog reads the file as it lies. Every durable file does
// its I/O through FileOps, the seam the fault injector interposes on.
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
//  3. Commit in place: Marker.Set writes that batch at the open image
//     file's sealed end, over its zero padding, with one positional
//     write and one fsync — no temp file, rename or directory fsync on
//     the commit path, never a write below the last sealed commit, and
//     the file's length changes only when a batch runs past the
//     padding and the commit extends it by imageIOBytes of zeros first.
//     The log is reused in place, never removed or recreated, under the
//     overwrite invariant: no log write lands below the largest prefix
//     either of the two newest sealed commits names. A bulk commit rewinds it to the prefix it names;
//     Reset seals the recovered state — the lines recovery changed,
//     under the recovered epoch and naming an empty prefix, then epoch
//     0 twice — before it rewinds the log to its first block. A file
//     replaced whole (Reset's image compaction, past CompactRatio) goes
//     through write-temp + fsync + rename + directory fsync.
//
// # Torn data and rot
//
// A crash keeps what each file's last fsync made durable; every
// sector written since may land as written or as that fsync left it,
// in any combination across sectors and files, and each file may end
// at its synced length or its current one. For the log, that leaves
// its unsynced blocks — everything past the count of its last sync —
// in any shape: each one whole, zeros, torn, or the stale block from
// before a rewind that it overwrote; for the image, its in-flight
// commit batch torn, in order or out of it, with or without the
// padding extension it made. Both are survivable by construction.
// Dir.Recover reads the log only up to the prefix the last sealed
// commit names and drops the rest, whatever its shape — stale blocks a
// rewind left behind the append point included: no commit needed it.
// It reads that prefix in fixed-size chunks, twice: it validates every
// block of it without decoding entries, then scans it backward from
// its end one block at a time, applying each until the first that
// expired at or before the marker (paper §IV-B) — so its memory is
// bounded by the image, not by the log. OpenImage keeps the image up
// to the last commit record whose batch validates and drops the
// non-zero bytes past it as a torn batch, with the zero padding behind
// them: whatever of an interrupted commit landed, in whatever order,
// its commit record cannot seal it. Zeros never validate as a record,
// so a tail of zero padding alone is kept as it is, and no batch that
// validates ever lies past the sealed end. Every record of that batch
// belongs to writes after the last marker, so recovery's backward undo
// scan over the named prefix overwrites the lines whether their records
// survived whole, torn or not at all.
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
