package storage

import (
	"errors"
	"os"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// ErrPowerLost is the sentinel a fault-injecting file seam returns once
// its scheduled crash point is reached: the simulated power is off,
// every subsequent write, truncate and fsync fails the same way, and
// the only way forward is reopening the directory and running recovery.
// Match it with errors.Is — it arrives wrapped with operation context.
var ErrPowerLost = errors.New("storage: simulated power loss")

// FileOps is the I/O a durable file does: File (the undo log and the
// result log) and ImageFile make every read, write, truncate and fsync
// through it. *os.File is the default; WrapFile interposes another
// (internal/storage/fault's power-cut model). WriteAt is declared here,
// not embedded, so picl-lint's walorder sees a commit's positional
// write on the same receiver as its fsync.
type FileOps interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Name() string
	Close() error
}

var _ FileOps = (*os.File)(nil)

// LogStore is what a Dir needs from its undo-log component, and what a
// Results region lives on: durable, append-only storage of whole 2 KB
// blocks behind one undolog superblock. File implements it; a Wrapper
// may decorate it. AppendBlock may stage: data is guaranteed durable
// only after Sync returns. Implementations are not safe for concurrent
// use, except that ReadBlocks may run beside the image's Load.
type LogStore interface {
	// AppendBlock appends one encoded block (exactly undolog.BlockBytes
	// long, as produced by undolog.EncodeBlock).
	AppendBlock(raw []byte) error
	// Sync makes every appended block durable.
	Sync() error
	// Blocks reports the total block count including the GC'd prefix
	// recorded in the superblock — the same watermark as
	// undolog.Log.Blocks.
	Blocks() uint64
	// Truncate discards blocks from the tail so that n total remain,
	// durably (crash support and torn-tail repair). n below the GC'd
	// prefix is an error; n at or above the current count is a no-op.
	Truncate(n uint64) error
	// Close releases the store, syncing staged data first.
	Close() error
	Super() undolog.Super
	TornBytes() uint64
	// ReadBlocks fills p, a whole number of blocks long, with the
	// stored blocks from block first on (absolute numbering, as Blocks
	// counts). Dir.Recover calls it from a goroutine of its own while
	// the image's Load runs.
	ReadBlocks(first uint64, p []byte) error
	// Rewind moves the append point back to block n, between the GC'd
	// prefix and Blocks, without I/O: the blocks from n on stay stored,
	// stale, and the next appends overwrite them in place. The caller
	// keeps the overwrite invariant: n is at or above every log prefix
	// the two newest sealed commits name.
	Rewind(n uint64) error
	// Refresh extends Blocks over whole blocks another process
	// appended to the shared file (the serving daemon's result log).
	Refresh() error
}

// ImageStore is what a Dir needs from its image component — the durable
// line-granular memory image. ImageFile implements it; its Sync writes
// nothing, since staged records reach the file only sealed by the
// marker's commit. Load only reads, and Dir.Recover runs it while the
// log's ReadBlocks runs on another goroutine.
type ImageStore interface {
	WriteLine(l mem.LineAddr, w mem.Word) error
	Sync() error
	Load() (*mem.Image, error)
	Close() error
}

// MarkerStore is what a Dir needs from its persisted-epoch marker.
// Marker implements it: Set is the image's commit append, and Get reads
// the last sealed commit record.
type MarkerStore interface {
	Set(e mem.EpochID) error
	Get() (mem.EpochID, error)
	SyncDir() error
	Close() error
}

// Wrapper decorates a Dir's components as they are (re)opened, and the
// log a Results region mounts on. A wrapper may return a component of
// its own (the benchmark's timer does), or interpose on the file behind
// a *File or *ImageFile with WrapFile and return the component itself,
// as the fault injector does (internal/storage/fault): its power cut
// acts on the files, so it knows no file format. Dir remembers the
// wrapper and re-applies it to the image Reset's compaction opens. The
// components it returns are called from one goroutine at a time, with
// one exception: Recover runs the log's ReadBlocks beside the image's
// Load, so a wrapper that keeps state across the two synchronizes it
// (the fault injector's reads touch none).
type Wrapper interface {
	WrapLog(LogStore) LogStore
	WrapImage(ImageStore) ImageStore
	WrapMarker(MarkerStore) MarkerStore
}

var (
	_ LogStore    = (*File)(nil)
	_ ImageStore  = (*ImageFile)(nil)
	_ MarkerStore = (*Marker)(nil)
)
