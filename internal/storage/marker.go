package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"picl/internal/mem"
)

// The marker file is two fixed slots, one page apart, so writing back
// one slot's page never rewrites the other. A slot holds one record:
// epoch (8 B), sequence (8 B), CRC32C of those 16 bytes (4 B).
const (
	markerSlotStride = 4096
	markerFileBytes  = 2 * markerSlotStride
	markerRecBytes   = 20
)

// castagnoli is the CRC32C table behind every checksum the package
// writes: marker slots, image records and result records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Marker is the durable persisted-epoch record — the 8-byte pointer the
// OS reads first during recovery (paper §IV-B), written in place like
// the paper's NVM record. Set writes (epoch, sequence, CRC) into the
// slot that does not hold the newest marker, with one positional write
// and one fsync: no temp file, rename or directory fsync. A crash mid-Set
// can tear only that slot, so Get — the valid slot with the higher
// sequence — always finds the last completed Set.
type Marker struct {
	f    *os.File // the two-slot marker file
	dirf *os.File // directory handle: the one-time creation, SyncDir

	// State of the newest completed marker, loaded by the first Get (or
	// Set) and advanced by each Set.
	loaded bool
	seq    uint64 // its sequence
	next   int64  // the slot the next Set writes: the other one
	torn   bool   // the last Get found one invalid slot
}

// OpenMarker opens the marker at path. When the file is absent it first
// builds the two-slot layout, both slots holding epoch 0 at sequence 0
// (the pristine initial state), once per store.
func OpenMarker(path string) (*Marker, error) {
	dirf, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		if err = createMarker(path, dirf); err == nil {
			f, err = os.OpenFile(path, os.O_RDWR, 0)
		}
	}
	if err != nil {
		dirf.Close()
		return nil, err
	}
	return &Marker{f: f, dirf: dirf}, nil
}

// createMarker builds the layout through the atomic replace shape
// (write *.tmp, fsync, rename, fsync the directory): a crash leaves
// either no marker — epoch 0, as before creation — or the whole layout,
// plus at worst a stale marker.tmp that Dir.Recover sweeps.
func createMarker(path string, dirf *os.File) error {
	var buf [markerFileBytes]byte
	rec := encodeMarker(0, 0)
	copy(buf[0:], rec[:])
	copy(buf[markerSlotStride:], rec[:])
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return dirf.Sync()
}

// encodeMarker builds the slot record for epoch e at sequence seq.
func encodeMarker(e mem.EpochID, seq uint64) [markerRecBytes]byte {
	var rec [markerRecBytes]byte
	binary.LittleEndian.PutUint64(rec[0:8], uint64(e))
	binary.LittleEndian.PutUint64(rec[8:16], seq)
	binary.LittleEndian.PutUint32(rec[16:20], crc32.Checksum(rec[0:16], castagnoli))
	return rec
}

// Set durably records epoch e as the newest fully persisted epoch. It
// overwrites the older slot only, so a failed or torn Set leaves the
// newest marker intact, and a retry writes the same slot again.
func (mk *Marker) Set(e mem.EpochID) error {
	if !mk.loaded {
		if _, err := mk.Get(); err != nil {
			return err
		}
	}
	rec := encodeMarker(e, mk.seq+1)
	if _, err := mk.f.WriteAt(rec[:], mk.next*markerSlotStride); err != nil {
		return err
	}
	if err := mk.f.Sync(); err != nil {
		return err
	}
	mk.seq++
	mk.next ^= 1
	return nil
}

// Get reads the newest durable persisted epoch: the valid slot with the
// higher sequence (slot 0 on a tie, which only the fresh layout has).
// One invalid slot is a Set torn by a crash — or rot in a slot, which
// looks the same and lands recovery one marker back — and is reported
// by Torn. Both slots invalid, or a file that is not the two-slot
// layout (a 16-byte marker from the older rename-replaced format
// included), is an error, never epoch 0.
func (mk *Marker) Get() (mem.EpochID, error) {
	fi, err := mk.f.Stat()
	if err != nil {
		return 0, err
	}
	if fi.Size() != markerFileBytes {
		return 0, fmt.Errorf("storage: marker is %d bytes, want %d", fi.Size(), markerFileBytes)
	}
	var epoch [2]mem.EpochID
	var seq [2]uint64
	var ok [2]bool
	for i := range ok {
		var rec [markerRecBytes]byte
		if _, err := mk.f.ReadAt(rec[:], int64(i)*markerSlotStride); err != nil {
			return 0, err
		}
		epoch[i] = mem.EpochID(binary.LittleEndian.Uint64(rec[0:8]))
		seq[i] = binary.LittleEndian.Uint64(rec[8:16])
		ok[i] = crc32.Checksum(rec[0:16], castagnoli) == binary.LittleEndian.Uint32(rec[16:20])
	}
	newest := 0
	switch {
	case !ok[0] && !ok[1]:
		return 0, fmt.Errorf("storage: marker CRC mismatch in both slots")
	case !ok[0], ok[1] && seq[1] > seq[0]:
		newest = 1
	}
	mk.loaded = true
	mk.seq, mk.next = seq[newest], int64(newest^1)
	mk.torn = !ok[0] || !ok[1]
	return epoch[newest], nil
}

// Torn reports whether the last Get found one invalid slot: the trace
// of a Set a crash interrupted, discarded in favor of the other slot.
func (mk *Marker) Torn() bool { return mk.torn }

// TearSet simulates a power cut partway through Set(e): only the first
// n bytes (1 <= n < 20) of the new record reach the slot Set would write,
// over what that slot held, or with garbage set n junk bytes do. The
// slot holding the newest completed marker is never touched, so Get
// still returns it (or e, if the prefix happens to complete the record).
// Fault injection only.
func (mk *Marker) TearSet(e mem.EpochID, n int, garbage bool) error {
	if n <= 0 || n >= markerRecBytes {
		return fmt.Errorf("storage: marker tear of %d bytes, want 1..%d", n, markerRecBytes-1)
	}
	if !mk.loaded {
		if _, err := mk.Get(); err != nil {
			return err
		}
	}
	rec := encodeMarker(e, mk.seq+1)
	if garbage {
		for i := range rec {
			rec[i] = 0xA5
		}
	}
	if _, err := mk.f.WriteAt(rec[:n], mk.next*markerSlotStride); err != nil {
		return err
	}
	return mk.f.Sync()
}

// SyncDir fsyncs the store directory, making completed renames and
// removals durable.
func (mk *Marker) SyncDir() error { return mk.dirf.Sync() }

// Close releases the marker file and the directory handle.
func (mk *Marker) Close() error {
	err := mk.f.Close()
	if e := mk.dirf.Close(); err == nil {
		err = e
	}
	return err
}
