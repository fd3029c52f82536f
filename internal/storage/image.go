package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"picl/internal/mem"
)

// imageRecBytes is the on-disk footprint of one image record: the line
// address and its current content word.
const imageRecBytes = 16

// imageIOBytes is the buffer the whole-file passes (open, Load, Reset's
// compaction) read or write records through: one syscall per 4096
// records instead of one per record.
const imageIOBytes = 64 << 10

// ImageFile is the durable line-granular memory image: the on-disk
// stand-in for the NVM array itself. Each line ever written owns one
// fixed 16-byte record (line address, content word); the first write to
// a line appends its record, subsequent writes update the word in
// place. This keeps the file proportional to the touched footprint
// instead of the address space, and keeps every update a single aligned
// 8-byte positional write.
//
// Durability is deferred to Sync (fsync); the ordering rules in the
// package doc explain why a torn or unsynced record is always repaired
// by the undo scan during recovery.
type ImageFile struct {
	f     *os.File
	slots map[mem.LineAddr]int64 // line -> record index
	n     int64                  // record count
	dirty bool
}

// OpenImage opens (creating if absent) a durable image file. A partial
// trailing record — a torn crash write — is discarded.
func OpenImage(path string) (*ImageFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	im := &ImageFile{f: f, slots: make(map[mem.LineAddr]int64)}
	im.n = fi.Size() / imageRecBytes
	if fi.Size()%imageRecBytes != 0 {
		if err := f.Truncate(im.n * imageRecBytes); err != nil {
			f.Close()
			return nil, err
		}
	}
	err = im.eachRecord(func(i int64, rec []byte) {
		im.slots[mem.LineAddr(binary.LittleEndian.Uint64(rec))] = i
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	return im, nil
}

// eachRecord reads the n whole records in order through one buffered
// reader and calls fn with each record's index and bytes.
func (im *ImageFile) eachRecord(fn func(i int64, rec []byte)) error {
	br := bufio.NewReaderSize(io.NewSectionReader(im.f, 0, im.n*imageRecBytes), imageIOBytes)
	var rec [imageRecBytes]byte
	for i := int64(0); i < im.n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return err
		}
		fn(i, rec[:])
	}
	return nil
}

// WriteLine durably mirrors one in-place line write (staged until
// Sync). It satisfies the checkpoint.LineSink mirror hook.
func (im *ImageFile) WriteLine(l mem.LineAddr, w mem.Word) error {
	if idx, ok := im.slots[l]; ok {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], uint64(w))
		if _, err := im.f.WriteAt(word[:], idx*imageRecBytes+8); err != nil {
			return err
		}
		im.dirty = true
		return nil
	}
	var rec [imageRecBytes]byte
	binary.LittleEndian.PutUint64(rec[0:8], uint64(l))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(w))
	if _, err := im.f.WriteAt(rec[:], im.n*imageRecBytes); err != nil {
		return err
	}
	im.slots[l] = im.n
	im.n++
	im.dirty = true
	return nil
}

// Sync makes every mirrored write durable.
func (im *ImageFile) Sync() error {
	if !im.dirty {
		return nil
	}
	if err := im.f.Sync(); err != nil {
		return err
	}
	im.dirty = false
	return nil
}

// Load reads the durable image into a functional memory image. Records
// whose word is zero collapse into the image's implicit zero state,
// matching mem.Image semantics exactly.
func (im *ImageFile) Load() (*mem.Image, error) {
	out := mem.NewImage()
	err := im.eachRecord(func(_ int64, rec []byte) {
		out.Write(mem.LineAddr(binary.LittleEndian.Uint64(rec[0:8])),
			mem.Word(binary.LittleEndian.Uint64(rec[8:16])))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Lines reports how many lines own records.
func (im *ImageFile) Lines() int { return len(im.slots) }

// TearTail simulates a crash tearing a record append mid-write: n junk
// bytes (1 <= n < 16) land past the last whole record. OpenImage
// discards the partial trailing record. Fault injection only.
func (im *ImageFile) TearTail(n int) error {
	if n <= 0 || n >= imageRecBytes {
		return fmt.Errorf("storage: image tear of %d bytes, want 1..%d", n, imageRecBytes-1)
	}
	junk := make([]byte, n)
	for i := range junk {
		junk[i] = 0xA5
	}
	if _, err := im.f.WriteAt(junk, im.n*imageRecBytes); err != nil {
		return err
	}
	return im.f.Sync()
}

// Close syncs and releases the image file.
func (im *ImageFile) Close() error {
	if err := im.Sync(); err != nil {
		im.f.Close()
		return err
	}
	return im.f.Close()
}
