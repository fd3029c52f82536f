package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"picl/internal/mem"
)

// The image file is a short header followed by fixed-size line records
// appended in Sync order. A record is the line address (u64), its word
// (u64), the CRC32C of those 16 bytes (u32) and 4 reserved zero bytes.
const (
	imageHeaderBytes = 8
	imageRecBytes    = 24
)

// imageHeader opens every non-empty image file: the magic "PCLI" and
// format version 2. The first format (version 1) was bare 16-byte
// records with no header; such a file is refused, never misread.
var imageHeader = [imageHeaderBytes]byte{'P', 'C', 'L', 'I', 2, 0, 0, 0}

// imageIOBytes is the buffer the whole-file passes (Load, Reset's
// compaction) read or write records through: one syscall per ~2700
// records instead of one per record.
const imageIOBytes = 64 << 10

// ErrCorruptImage reports an image file recovery cannot trust: a header
// that is not this format's (a headerless image of the older layout
// included), or a record that fails validation with whole records
// behind it (media rot, not a torn tail). Match it with errors.Is.
var ErrCorruptImage = errors.New("storage: corrupt image file")

// ImageFile is the durable line-granular memory image: the on-disk
// stand-in for the NVM array itself, kept as an append-only log of
// CRC-checked line records. WriteLine stages a record in memory; Sync
// appends everything staged with one positional write at the tail and
// one fsync, the sequential row-sized write discipline the undo log
// already follows. Load replays the records in file order, so a line's
// last record wins. The file grows by one record per line written back
// until Dir.Reset compacts it to one record per live line.
//
// A crash can leave only a torn tail: a partial trailing record, or an
// invalid final one, which OpenImage drops and reports (TornBytes). An
// invalid record with whole records behind it is rot, and Load fails
// with ErrCorruptImage rather than return an older line.
type ImageFile struct {
	f      *os.File
	size   int64  // bytes on file: header plus whole records (0 until the first Sync)
	staged []byte // records staged since the last successful Sync
	torn   uint64 // torn tail bytes dropped at open
}

// OpenImage opens (creating if absent) a durable image file and drops a
// torn tail: a partial trailing record, an invalid final record, or a
// prefix of the header a first Sync left. A file whose header is not
// this format's is an error, and the file is left untouched.
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
	im := &ImageFile{f: f, size: fi.Size()}
	keep, err := im.validTail()
	if err == nil && keep < im.size {
		im.torn = uint64(im.size - keep)
		im.size = keep
		if err = f.Truncate(keep); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return im, nil
}

// validTail checks the header and the final whole record, and returns
// the length of the file without its torn tail. Only the tail is read:
// the records in front of it are checked by Load.
func (im *ImageFile) validTail() (int64, error) {
	if im.size == 0 {
		return 0, nil
	}
	head := make([]byte, min(im.size, imageHeaderBytes))
	if _, err := im.f.ReadAt(head, 0); err != nil {
		return 0, err
	}
	if !bytes.Equal(head, imageHeader[:len(head)]) {
		return 0, fmt.Errorf("%w: %s does not start with the image header %x (a headerless 16-byte-record image from an older format?)",
			ErrCorruptImage, im.f.Name(), imageHeader)
	}
	if im.size < imageHeaderBytes {
		return 0, nil // a first Sync torn inside the header
	}
	keep := imageHeaderBytes + (im.size-imageHeaderBytes)/imageRecBytes*imageRecBytes
	if keep == imageHeaderBytes {
		return keep, nil
	}
	var rec [imageRecBytes]byte
	if _, err := im.f.ReadAt(rec[:], keep-imageRecBytes); err != nil {
		return 0, err
	}
	if _, _, ok := decodeImageRecord(rec[:]); !ok {
		keep -= imageRecBytes
	}
	return keep, nil
}

// appendImageRecord appends the record for line l holding w to b.
func appendImageRecord(b []byte, l mem.LineAddr, w mem.Word) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(l))
	b = binary.LittleEndian.AppendUint64(b, uint64(w))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(b)-16:], castagnoli))
	return binary.LittleEndian.AppendUint32(b, 0)
}

// decodeImageRecord decodes one record and reports whether it is valid:
// its CRC matches and its reserved bytes are zero, so every single-bit
// flip is caught.
func decodeImageRecord(rec []byte) (mem.LineAddr, mem.Word, bool) {
	ok := crc32.Checksum(rec[0:16], castagnoli) == binary.LittleEndian.Uint32(rec[16:20]) &&
		binary.LittleEndian.Uint32(rec[20:24]) == 0
	return mem.LineAddr(binary.LittleEndian.Uint64(rec[0:8])), mem.Word(binary.LittleEndian.Uint64(rec[8:16])), ok
}

// WriteLine stages the record of one in-place line write for the next
// Sync. It satisfies the checkpoint.LineSink mirror hook.
func (im *ImageFile) WriteLine(l mem.LineAddr, w mem.Word) error {
	im.staged = appendImageRecord(im.staged, l, w)
	return nil
}

// Sync appends every staged record at the tail, behind the header when
// the file is empty, with one positional write, and fsyncs. A failed
// Sync keeps the records staged and the tail where it was, so a retry
// writes the same bytes again.
func (im *ImageFile) Sync() error {
	if len(im.staged) == 0 {
		return nil
	}
	buf := im.staged
	if im.size == 0 {
		buf = append(imageHeader[:], buf...)
	}
	if _, err := im.f.WriteAt(buf, im.size); err != nil {
		return err
	}
	if err := im.f.Sync(); err != nil {
		return err
	}
	im.size += int64(len(buf))
	im.staged = im.staged[:0]
	return nil
}

// Load replays the file's records into a functional memory image, in
// file order, so a line's last record wins; staged records are not yet
// part of the file. Records whose word is zero collapse into the
// image's implicit zero state, matching mem.Image semantics exactly. An
// invalid record is rot — OpenImage already dropped a torn final one —
// and fails with ErrCorruptImage.
func (im *ImageFile) Load() (*mem.Image, error) {
	out := mem.NewImage()
	if im.size == 0 {
		return out, nil
	}
	n := (im.size - imageHeaderBytes) / imageRecBytes
	br := bufio.NewReaderSize(io.NewSectionReader(im.f, imageHeaderBytes, n*imageRecBytes), imageIOBytes)
	var rec [imageRecBytes]byte
	for i := int64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, err
		}
		l, w, ok := decodeImageRecord(rec[:])
		if !ok {
			return nil, fmt.Errorf("%w: record %d of %d fails validation with further records behind it (media rot, not a torn tail)",
				ErrCorruptImage, i, n)
		}
		out.Write(l, w)
	}
	return out, nil
}

// TornBytes reports how many torn tail bytes were dropped when the file
// was opened (0 for a cleanly closed image).
func (im *ImageFile) TornBytes() uint64 { return im.torn }

// Cut simulates a power cut against the image: every staged record is
// lost with the process. With tear > 0 (0 tears nothing) the cut lands
// partway through the append Sync would have made: the first tear bytes
// (1..23) of the first staged record, or as many garbage bytes, reach
// the tail (behind the header when the file is empty) and are forced to
// media. Synced records are never touched. It reports whether it tore
// anything — with nothing staged no append was in flight. Fault
// injection only.
func (im *ImageFile) Cut(tear int, garbage bool) (bool, error) {
	if tear < 0 || tear >= imageRecBytes {
		return false, fmt.Errorf("storage: image tear of %d bytes, want 0..%d", tear, imageRecBytes-1)
	}
	staged := im.staged
	im.staged = nil
	if tear == 0 || len(staged) == 0 {
		return false, nil
	}
	part := staged[:tear]
	if garbage {
		part = bytes.Repeat([]byte{0xA5}, tear)
	}
	off := im.size
	if off == 0 {
		part = append(imageHeader[:], part...)
	}
	if _, err := im.f.WriteAt(part, off); err != nil {
		return false, err
	}
	return true, im.f.Sync()
}

// RotBit flips one bit of a synced record other than the final one —
// rot there reads as a torn tail — and forces it to media: simulated
// media rot, which Load must report. bit indexes the bits of those
// records, modulo their count; fewer than two synced records is an
// error. Fault injection only.
func (im *ImageFile) RotBit(bit uint64) error {
	n := max(im.size-imageHeaderBytes, 0) / imageRecBytes
	if n < 2 {
		return fmt.Errorf("storage: image rot needs two synced records, the file holds %d", n)
	}
	bit %= uint64(n-1) * imageRecBytes * 8
	off := imageHeaderBytes + int64(bit/8)
	var b [1]byte
	if _, err := im.f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := im.f.WriteAt(b[:], off); err != nil {
		return err
	}
	return im.f.Sync()
}

// Close appends whatever is staged and releases the image file.
func (im *ImageFile) Close() error {
	if err := im.Sync(); err != nil {
		im.f.Close()
		return err
	}
	return im.f.Close()
}
