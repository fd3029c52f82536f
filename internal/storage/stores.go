package storage

import (
	"errors"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// ErrPowerLost is the sentinel a fault-injecting store wrapper returns
// once its scheduled crash point is reached: the simulated power is off,
// every subsequent operation on the store fails the same way, and the
// only way forward is reopening the directory and running recovery.
// Match it with errors.Is — it arrives wrapped with operation context.
var ErrPowerLost = errors.New("storage: simulated power loss")

// LogStore is what a Dir needs from its undo-log component: the Backend
// block operations plus the superblock geometry, torn-tail report,
// positional block reads and the in-place rewind File provides. File
// implements it; fault wrappers decorate it.
type LogStore interface {
	Backend
	Super() undolog.Super
	TornBytes() uint64
	// ReadBlocks fills p, a whole number of blocks long, with the
	// stored blocks from block first on (absolute numbering, as Blocks
	// counts).
	ReadBlocks(first uint64, p []byte) error
	// Rewind moves the append point back to block n, between the GC'd
	// prefix and Blocks, without I/O: the blocks from n on stay stored,
	// stale, and the next appends overwrite them in place. The caller
	// keeps the overwrite invariant: n is at or above every log prefix
	// the two newest sealed commits name.
	Rewind(n uint64) error
}

// ImageStore is what a Dir needs from its image component — the durable
// line-granular memory image. ImageFile implements it; its Sync writes
// nothing, since staged records reach the file only sealed by the
// marker's commit.
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

// Wrapper decorates a Dir's components as they are (re)opened — the
// hook the fault-injection campaign uses to interpose torn writes,
// failing fsyncs, bit rot, and power cuts between the machine and the
// real files (see internal/storage/fault). Dir remembers the wrapper and
// re-applies it to the fresh components Reset opens.
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
