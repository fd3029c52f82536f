package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"picl/internal/mem"
)

// The image file is a short header followed by fixed-size records
// written one commit at a time, then zero padding that later commits
// overwrite (see ImageFile). A line record is the line address
// (u64), its word (u64), the CRC32C of those 16 bytes (u32) and 4 zero
// bytes. A commit record seals the line records between it and the
// previous commit record, its batch: the epoch it persists (u32), the
// undo-log block count recovery at that epoch reads (u32), the batch's
// record count (u32), the CRC32C of the batch's bytes (u32), the CRC32C
// of those 16 bytes (u32), and commitTag where a line record holds
// zeros.
const (
	imageHeaderBytes = 8
	imageRecBytes    = 24
)

// imageHeader opens every non-empty image file: the magic "PCLI" and
// format version 4. Version 1 (bare 16-byte records, no header),
// version 2 (line records with no commit records) and version 3 (commit
// records with a 64-bit epoch and no log block count) are refused,
// never misread.
var imageHeader = [imageHeaderBytes]byte{'P', 'C', 'L', 'I', 4, 0, 0, 0}

// commitTag marks a commit record: "SEAL", 12 bits away from the zeros
// every line record carries in the same place.
const commitTag = 0x4C414553

// imageIOBytes is the buffer the whole-file passes (Load, Reset's
// compaction) read or write records through — one syscall per 2730
// records instead of one per record — and the step in which commit
// extends the file's zero padding and findSealed skips it.
const imageIOBytes = 2730 * imageRecBytes

// imageZeros is the zero padding commit extends the file with.
var imageZeros [imageIOBytes]byte

// castagnoli is the CRC32C table behind every checksum the package
// writes: image records, commit batches and result records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptImage reports an image file recovery cannot trust: a header
// that is not this format's (the older layouts included), or a record
// or batch that fails validation with a sealed batch behind it (media
// rot, not a torn batch). Match it with errors.Is.
var ErrCorruptImage = errors.New("storage: corrupt image file")

// ImageFile is the durable line-granular memory image: the on-disk
// stand-in for the NVM array itself, kept as a log of CRC-checked line
// records sealed by commit records. WriteLine stages a record in
// memory; commit (Marker.Set) writes everything staged plus the commit
// record sealing it at the sealed end, with one positional write and
// one fsync, the sequential row-sized write discipline the undo log
// already follows. The last sealed commit record is the persisted-epoch
// marker, and names the undo-log prefix recovery at its epoch reads.
// Load replays the records in file order, so a line's last record wins.
// The sealed records grow by one per line written back, and one per
// commit, until an Open finds more than CompactRatio records per live
// line and Dir.Reset compacts the file to one record per live line.
//
// The file is the header, the sealed batches, then zero padding: when
// a batch would run past the file's length, commit first extends the
// file with imageIOBytes of zeros, so most commits overwrite blocks
// already allocated and their fsync has no new file length to make
// durable. Zeros never read as a record — 16 zero bytes never carry a
// matching CRC32C, and a commit record ends in commitTag — so the
// sealed end is the last non-zero record that validates.
//
// A crash can leave only a torn batch: whatever of the in-flight commit
// landed behind the sealed end, in any order the page cache wrote it
// back, and the padding extension it made or not. OpenImage drops the
// non-zero bytes past the sealed end, the padding behind them with
// them, and reports them (TornBytes); an all-zero tail is kept as it
// is. No batch that validates ever lies past the sealed end: after
// OpenImage every byte there is zero, and a commit writes there only
// its own batch. An invalid record or batch with a sealed batch behind
// it is rot, and Load fails with ErrCorruptImage rather than return an
// older line.
type ImageFile struct {
	f      FileOps
	size   int64       // bytes on file: header through the last sealed commit record (0 until the first commit)
	final  int64       // where the last sealed commit's batch starts (0 until the first commit)
	alloc  int64       // the file's length: size, then the zero padding commits overwrite
	staged []byte      // line records staged since the last commit
	torn   uint64      // torn batch bytes dropped at open
	pad    uint64      // zero padding behind the sealed end and the torn bytes at open
	epoch  mem.EpochID // the last sealed commit's epoch (0 before the first commit)
	// sealedLog is the undo-log block count the last sealed commit
	// names; syncedLog is the count the next commit names: the log's
	// count at its last successful sync (Dir.PersistMarker raises it),
	// sealedLog until then.
	sealedLog, syncedLog uint64
}

// OpenImage opens (creating if absent) a durable image file and drops a
// torn batch: the non-zero bytes behind the last commit record whose
// batch validates, or a prefix of the header a first commit left, with
// the zero padding behind them. A tail of zeros alone is padding and
// stays: OpenImage then neither truncates nor fsyncs. A file whose
// header is not this format's is an error, and the file is left
// untouched.
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
	im := &ImageFile{f: f, alloc: fi.Size()}
	end, err := im.findSealed(fi.Size())
	im.syncedLog = im.sealedLog
	if err == nil {
		im.pad = uint64(fi.Size() - end) // end >= size: a commit record ends in commitTag
		if end > im.size {
			im.torn, im.alloc = uint64(end-im.size), im.size
			if err = f.Truncate(im.size); err == nil {
				err = f.Sync()
			}
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return im, nil
}

// findSealed scans a file of n bytes for the last commit record whose
// batch validates, leaving size, epoch and sealedLog at it (size 0 if
// there is none), and returns the end of the file's non-zero bytes.
// The zero padding is skipped in imageIOBytes reads from the end; the
// header is checked, then records are read back one at a time from the
// last whole one holding a non-zero byte: zeros never validate. Only
// that tail is read: the records in front of the batch are checked by
// Load.
func (im *ImageFile) findSealed(n int64) (int64, error) {
	end, err := im.dataEnd(n)
	if err != nil || end == 0 {
		return 0, err
	}
	head := make([]byte, min(end, imageHeaderBytes))
	if _, err := im.f.ReadAt(head, 0); err != nil {
		return 0, err
	}
	if !bytes.Equal(head, imageHeader[:len(head)]) {
		return 0, fmt.Errorf("%w: %s does not start with the version-%d image header %x (an image from an older format?)",
			ErrCorruptImage, im.f.Name(), imageHeader[4], imageHeader)
	}
	if end <= imageHeaderBytes {
		return end, nil
	}
	last := min((end-imageHeaderBytes-1)/imageRecBytes, (n-imageHeaderBytes)/imageRecBytes-1)
	var rec [imageRecBytes]byte
	for at := imageHeaderBytes + last*imageRecBytes; at >= imageHeaderBytes; at -= imageRecBytes {
		if _, err := im.f.ReadAt(rec[:], at); err != nil {
			return 0, err
		}
		c, ok := decodeCommitRecord(rec[:])
		if !ok || c.count > (at-imageHeaderBytes)/imageRecBytes {
			continue
		}
		start := at - c.count*imageRecBytes
		h := crc32.New(castagnoli)
		if _, err := io.Copy(h, io.NewSectionReader(im.f, start, at-start)); err != nil {
			return 0, err
		}
		if h.Sum32() == c.sum {
			im.size, im.final, im.epoch, im.sealedLog = at+imageRecBytes, start, c.epoch, c.logBlocks
			return end, nil
		}
	}
	return end, nil
}

// dataEnd returns the offset just past the last non-zero byte among the
// file's first n (0 if there is none), reading back from n in
// imageIOBytes chunks: zero padding costs a read per chunk, not one per
// record.
func (im *ImageFile) dataEnd(n int64) (int64, error) {
	buf := make([]byte, min(n, imageIOBytes))
	for hi := n; hi > 0; {
		lo := max(hi-imageIOBytes, 0)
		chunk := buf[:hi-lo]
		if _, err := im.f.ReadAt(chunk, lo); err != nil {
			return 0, err
		}
		if i := lastNonZero(chunk); i >= 0 {
			return lo + int64(i) + 1, nil
		}
		hi = lo
	}
	return 0, nil
}

// lastNonZero returns the index of b's last non-zero byte, or -1.
func lastNonZero(b []byte) int {
	i := len(b)
	for i >= 8 && binary.LittleEndian.Uint64(b[i-8:i]) == 0 {
		i -= 8
	}
	for i--; i >= 0 && b[i] == 0; i-- {
	}
	return i
}

// appendImageRecord appends the record for line l holding w to b.
func appendImageRecord(b []byte, l mem.LineAddr, w mem.Word) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(l))
	b = binary.LittleEndian.AppendUint64(b, uint64(w))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(b)-16:], castagnoli))
	return binary.LittleEndian.AppendUint32(b, 0)
}

// decodeImageRecord decodes one line record and reports whether it is
// valid: its CRC matches and its last 4 bytes are zero, so every
// single-bit flip is caught.
func decodeImageRecord(rec []byte) (mem.LineAddr, mem.Word, bool) {
	ok := crc32.Checksum(rec[0:16], castagnoli) == binary.LittleEndian.Uint32(rec[16:20]) &&
		binary.LittleEndian.Uint32(rec[20:24]) == 0
	return mem.LineAddr(binary.LittleEndian.Uint64(rec[0:8])), mem.Word(binary.LittleEndian.Uint64(rec[8:16])), ok
}

// commitRec is a decoded commit record: it seals the count line
// records in front of it, whose bytes have CRC32C sum, as epoch, and
// names the undo-log prefix of logBlocks blocks that recovery at epoch
// reads.
type commitRec struct {
	epoch     mem.EpochID
	logBlocks uint64
	count     int64
	sum       uint32
}

// appendCommitRecord appends the encoding of c to b.
func appendCommitRecord(b []byte, c commitRec) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(c.epoch))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.logBlocks))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.count))
	b = binary.LittleEndian.AppendUint32(b, c.sum)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(b)-16:], castagnoli))
	return binary.LittleEndian.AppendUint32(b, commitTag)
}

// decodeCommitRecord decodes one commit record and reports whether it
// is one: its tag is commitTag and its CRC matches.
func decodeCommitRecord(rec []byte) (commitRec, bool) {
	ok := binary.LittleEndian.Uint32(rec[20:24]) == commitTag &&
		crc32.Checksum(rec[0:16], castagnoli) == binary.LittleEndian.Uint32(rec[16:20])
	return commitRec{
		epoch:     mem.EpochID(binary.LittleEndian.Uint32(rec[0:4])),
		logBlocks: uint64(binary.LittleEndian.Uint32(rec[4:8])),
		count:     int64(binary.LittleEndian.Uint32(rec[8:12])),
		sum:       binary.LittleEndian.Uint32(rec[12:16]),
	}, ok
}

// WriteLine stages the record of one in-place line write for the next
// commit. It satisfies the checkpoint.LineSink mirror hook.
func (im *ImageFile) WriteLine(l mem.LineAddr, w mem.Word) error {
	im.staged = appendImageRecord(im.staged, l, w)
	return nil
}

// Sync writes nothing: staged records reach the file only sealed, in
// the commit append Marker.Set makes, so the image has nothing to make
// durable on its own.
func (im *ImageFile) Sync() error { return nil }

// batch returns the bytes the next commit writes for epoch e: the
// header when the file is empty, every staged record, and the commit
// record sealing them and naming syncedLog. It may write into the
// staging buffer's spare capacity, never into its records.
func (im *ImageFile) batch(e mem.EpochID) []byte {
	buf := appendCommitRecord(im.staged, commitRec{
		epoch:     e,
		logBlocks: im.syncedLog,
		count:     int64(len(im.staged)) / imageRecBytes,
		sum:       crc32.Checksum(im.staged, castagnoli),
	})
	if im.size == 0 {
		buf = append(imageHeader[:], buf...)
	}
	return buf
}

// commit durably records epoch e: it writes every staged record and
// the commit record sealing them at the sealed end with one positional
// write, over the zero padding (extending it first if the batch would
// run past the file's length), and fsyncs. A failed commit keeps the
// records staged and the sealed end where it was, so a retry writes the
// same bytes again.
func (im *ImageFile) commit(e mem.EpochID) error {
	if uint64(e) > math.MaxUint32 || im.syncedLog > math.MaxUint32 {
		return fmt.Errorf("storage: epoch %d or log block count %d does not fit the version-%d commit record",
			e, im.syncedLog, imageHeader[4])
	}
	buf := im.batch(e)
	final := im.size // where the batch's records start, behind any header
	if im.size == 0 {
		final = imageHeaderBytes
	}
	if err := im.extend(im.size + int64(len(buf))); err != nil {
		return err
	}
	if _, err := im.f.WriteAt(buf, im.size); err != nil {
		return err
	}
	if err := im.f.Sync(); err != nil {
		return err
	}
	im.size += int64(len(buf))
	im.final, im.epoch, im.sealedLog = final, e, im.syncedLog
	im.staged = im.staged[:0]
	return nil
}

// extend grows the file with zero padding, imageIOBytes at a time from
// its end, until it holds at least end bytes. The padding becomes
// durable with the fsync of the commit that needed it, so it is
// allocated and written once for every imageIOBytes of batches, and the
// commits in between overwrite it in place.
func (im *ImageFile) extend(end int64) error {
	for im.alloc < end {
		if _, err := im.f.WriteAt(imageZeros[:], im.alloc); err != nil {
			return err
		}
		im.alloc += imageIOBytes
	}
	return nil
}

// LogBlocks reports the undo-log block count the last sealed commit
// names (0 for an image with none): recovery at the marker reads the
// log up to there and drops the rest.
func (im *ImageFile) LogBlocks() uint64 { return im.sealedLog }

// FinalBatchAt reports the offset at which the last sealed commit's
// batch starts (0 for an image with none). Every byte in front of it
// has a sealed batch behind it, so a bit flipped there is rot Load
// reports, never a torn batch: where the fault injector's rot strikes.
func (im *ImageFile) FinalBatchAt() int64 { return im.final }

// WrapFile interposes w on the file's I/O: every later read, write,
// truncate and fsync goes through the FileOps w returns.
func (im *ImageFile) WrapFile(w func(FileOps) FileOps) { im.f = w(im.f) }

// Records reports how many records the file holds up to the last sealed
// commit: line records and commit records alike.
func (im *ImageFile) Records() int64 {
	if im.size == 0 {
		return 0
	}
	return (im.size - imageHeaderBytes) / imageRecBytes
}

// Load replays the file's sealed batches into a functional memory
// image, in file order, so a line's last record wins; staged records
// are not yet part of the file. Records whose word is zero collapse
// into the image's implicit zero state, matching mem.Image semantics
// exactly. The records of one page mostly arrive together — a
// populated or compacted file is all 64-record page runs — and
// mem.Image.Write remembers the page it wrote last, so a run costs one
// page lookup. OpenImage already dropped the torn batch, so an invalid
// record, or a commit record whose batch does not match it, is rot and
// fails with ErrCorruptImage. Load only reads the file: Dir.Recover
// runs it beside the log prefix's validation.
func (im *ImageFile) Load() (*mem.Image, error) {
	out := mem.NewImage()
	if im.size == 0 {
		return out, nil
	}
	buf := make([]byte, imageIOBytes)
	var sum uint32 // CRC32C of the open batch's records so far
	var count int64
	for off := int64(imageHeaderBytes); off < im.size; {
		chunk := buf[:min(int64(len(buf)), im.size-off)]
		if _, err := im.f.ReadAt(chunk, off); err != nil {
			return nil, err
		}
		run := 0 // start of the chunk's line records not yet in sum
		for i := 0; i < len(chunk); i += imageRecBytes {
			rec := chunk[i : i+imageRecBytes]
			if l, w, ok := decodeImageRecord(rec); ok {
				out.Write(l, w)
				count++
				continue
			}
			at := off + int64(i)
			c, ok := decodeCommitRecord(rec)
			if !ok {
				return nil, fmt.Errorf("%w: the record at byte %d fails validation with a sealed batch behind it (media rot, not a torn batch)",
					ErrCorruptImage, at)
			}
			sum = crc32.Update(sum, castagnoli, chunk[run:i])
			if c.count != count || c.sum != sum {
				return nil, fmt.Errorf("%w: the commit record of epoch %d at byte %d seals %d records with CRC %#x, its batch holds %d with CRC %#x (media rot, not a torn batch)",
					ErrCorruptImage, c.epoch, at, c.count, c.sum, count, sum)
			}
			sum, count, run = 0, 0, i+imageRecBytes
		}
		sum = crc32.Update(sum, castagnoli, chunk[run:])
		off += int64(len(chunk))
	}
	if count != 0 {
		return nil, fmt.Errorf("%w: %d records behind the last commit record", ErrCorruptImage, count)
	}
	return out, nil
}

// TornBytes reports how many torn batch bytes were dropped when the
// file was opened: the bytes past the sealed end up to the last
// non-zero one (0 for a cleanly closed image, whatever its padding).
func (im *ImageFile) TornBytes() uint64 { return im.torn }

// Close releases the image file. Staged records are dropped: no commit
// sealed them, and the undo log covers every write they carry.
func (im *ImageFile) Close() error { return im.f.Close() }

// Marker is the durable persisted-epoch record — the pointer the OS
// reads first during recovery (paper §IV-B). It has no file of its own:
// it is the image log's last sealed commit record, so advancing it and
// making the image writes it covers durable are one write. Set writes
// the staged line records and the commit record sealing them as epoch
// e, naming the log prefix synced last (Dir.PersistMarker raises it),
// at the sealed end with one positional write and one fsync; a crash
// tears only that batch, which OpenImage drops, so Get finds the last
// completed Set.
type Marker struct {
	im   *ImageFile
	dirf *os.File // the store directory: SyncDir
}

// Set durably records epoch e as the newest fully persisted epoch,
// sealing every image record staged before it.
func (mk *Marker) Set(e mem.EpochID) error { return mk.im.commit(e) }

// Get reads the newest durable persisted epoch: that of the last sealed
// commit record (0 for an image with none).
func (mk *Marker) Get() (mem.EpochID, error) { return mk.im.epoch, nil }

// SyncDir fsyncs the store directory, making completed renames and
// removals durable.
func (mk *Marker) SyncDir() error { return mk.dirf.Sync() }

// Close releases the directory handle; the image file is the image's
// to close.
func (mk *Marker) Close() error { return mk.dirf.Close() }
