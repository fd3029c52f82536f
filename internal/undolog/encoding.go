package undolog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"picl/internal/mem"
)

// On-NVM byte layout of the undo log (paper Fig. 5a, concretized).
//
// A block is exactly BlockBytes (2048) long — one row-buffer-sized
// sequential write:
//
//	offset 0   magic       "PCLB" (4 B)
//	offset 4   entryCount  uint16
//	offset 6   reserved    uint16
//	offset 8   maxTill     uint64 (superblock expiration tag, §IV-B)
//	offset 16  entries     entryCount x 72 B records
//	...        zero padding
//	offset 2044 crc32      of bytes [0, 2044) (Castagnoli)
//
// Each 72-byte entry record:
//
//	offset 0   line        uint64 (line address)
//	offset 8   validFrom   uint64
//	offset 16  validTill   uint64
//	offset 24  data        64-bit payload word + 40 B reserved for the
//	                       full line image in a data-carrying deployment
//
// The CRC stands in for the ECC a real NVDIMM row carries; recovery uses
// it to stop at a torn tail block (a block whose 2 KB write was
// interrupted mid-row by the power failure).
var blockMagic = [4]byte{'P', 'C', 'L', 'B'}

const (
	blockHeaderBytes = 16
	blockCRCOffset   = BlockBytes - 4
)

// The durable log region opens with one superblock — a single
// cache-line-sized header (cf. pmembench's LogWriter file header) that
// records the region geometry and, crucially, the block number of the
// first stored block: garbage collection trims the expired prefix, and
// without the start index a re-read log would renumber blocks from 0
// and lose TruncateTo/Blocks() watermark fidelity.
//
//	offset 0   magic       "PCLS" (4 B)
//	offset 4   version     uint16 (format version, currently 1)
//	offset 6   reserved    uint16
//	offset 8   regionBytes uint64 (OS log-region allocation)
//	offset 16  start       uint64 (block number of the first stored block)
//	...        zero padding
//	offset 60  crc32       of bytes [0, 60) (Castagnoli)
var superMagic = [4]byte{'P', 'C', 'L', 'S'}

// SuperBytes is the on-NVM size of the superblock: one 64 B cache line.
const SuperBytes = 64

// SuperVersion is the current durable log format version.
const SuperVersion = 1

const superCRCOffset = SuperBytes - 4

// Super is the decoded superblock of a durable log region.
type Super struct {
	Version     uint16
	RegionBytes uint64
	// Start is the block number of the first stored block — the length
	// of the garbage-collected prefix that precedes it in the conceptual
	// infinite log.
	Start uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptBlock reports a block that fails its magic or CRC check.
var ErrCorruptBlock = errors.New("undolog: corrupt block")

// ErrCorruptSuper reports a superblock that fails its magic, version, or
// CRC check — unlike a torn tail block this is not survivable: without
// the geometry header the log cannot be interpreted at all.
var ErrCorruptSuper = errors.New("undolog: corrupt superblock")

// EncodeSuper serializes a superblock into its durable 64 B form.
func EncodeSuper(s Super) []byte {
	out := make([]byte, SuperBytes)
	copy(out[0:4], superMagic[:])
	binary.LittleEndian.PutUint16(out[4:6], s.Version)
	binary.LittleEndian.PutUint64(out[8:16], s.RegionBytes)
	binary.LittleEndian.PutUint64(out[16:24], s.Start)
	crc := crc32.Checksum(out[:superCRCOffset], castagnoli)
	binary.LittleEndian.PutUint32(out[superCRCOffset:], crc)
	return out
}

// DecodeSuper parses a durable superblock, verifying magic, version, and
// CRC.
func DecodeSuper(raw []byte) (Super, error) {
	if len(raw) != SuperBytes {
		return Super{}, fmt.Errorf("%w: %d bytes, want %d", ErrCorruptSuper, len(raw), SuperBytes)
	}
	if [4]byte(raw[0:4]) != superMagic {
		return Super{}, fmt.Errorf("%w: bad magic", ErrCorruptSuper)
	}
	if crc := crc32.Checksum(raw[:superCRCOffset], castagnoli); crc != binary.LittleEndian.Uint32(raw[superCRCOffset:]) {
		return Super{}, fmt.Errorf("%w: CRC mismatch", ErrCorruptSuper)
	}
	s := Super{
		Version:     binary.LittleEndian.Uint16(raw[4:6]),
		RegionBytes: binary.LittleEndian.Uint64(raw[8:16]),
		Start:       binary.LittleEndian.Uint64(raw[16:24]),
	}
	if s.Version != SuperVersion {
		return Super{}, fmt.Errorf("%w: version %d, want %d", ErrCorruptSuper, s.Version, SuperVersion)
	}
	return s, nil
}

// EncodeBlock serializes a block into its durable 2 KB representation.
func EncodeBlock(b Block) ([]byte, error) {
	if len(b.Entries) > EntriesPerBlock {
		return nil, fmt.Errorf("undolog: %d entries exceed block capacity %d", len(b.Entries), EntriesPerBlock)
	}
	out := make([]byte, BlockBytes)
	copy(out[0:4], blockMagic[:])
	binary.LittleEndian.PutUint16(out[4:6], uint16(len(b.Entries)))
	binary.LittleEndian.PutUint64(out[8:16], uint64(b.MaxValidTill))
	off := blockHeaderBytes
	for _, e := range b.Entries {
		binary.LittleEndian.PutUint64(out[off:], uint64(e.Line))
		binary.LittleEndian.PutUint64(out[off+8:], uint64(e.ValidFrom))
		binary.LittleEndian.PutUint64(out[off+16:], uint64(e.ValidTill))
		binary.LittleEndian.PutUint64(out[off+24:], uint64(e.Old))
		off += EntryBytes
	}
	crc := crc32.Checksum(out[:blockCRCOffset], castagnoli)
	binary.LittleEndian.PutUint32(out[blockCRCOffset:], crc)
	return out, nil
}

// CheckBlock validates a durable block — its size, magic, CRC and
// entry count — without decoding its entries: what a block must pass
// before recovery may trust the expiration tag and entries it carries.
func CheckBlock(raw []byte) error {
	if len(raw) != BlockBytes {
		return fmt.Errorf("undolog: block is %d bytes, want %d", len(raw), BlockBytes)
	}
	if [4]byte(raw[0:4]) != blockMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptBlock)
	}
	if crc := crc32.Checksum(raw[:blockCRCOffset], castagnoli); crc != binary.LittleEndian.Uint32(raw[blockCRCOffset:]) {
		return fmt.Errorf("%w: CRC mismatch", ErrCorruptBlock)
	}
	if n := binary.LittleEndian.Uint16(raw[4:6]); n > EntriesPerBlock {
		return fmt.Errorf("%w: entry count %d", ErrCorruptBlock, n)
	}
	return nil
}

// DecodeBlock parses a durable block that passes CheckBlock.
func DecodeBlock(raw []byte) (Block, error) {
	if err := CheckBlock(raw); err != nil {
		return Block{}, err
	}
	n := int(binary.LittleEndian.Uint16(raw[4:6]))
	b := Block{MaxValidTill: mem.EpochID(binary.LittleEndian.Uint64(raw[8:16]))}
	off := blockHeaderBytes
	for i := 0; i < n; i++ {
		b.Entries = append(b.Entries, Entry{
			Line:      mem.LineAddr(binary.LittleEndian.Uint64(raw[off:])),
			ValidFrom: mem.EpochID(binary.LittleEndian.Uint64(raw[off+8:])),
			ValidTill: mem.EpochID(binary.LittleEndian.Uint64(raw[off+16:])),
			Old:       mem.Word(binary.LittleEndian.Uint64(raw[off+24:])),
		})
		off += EntryBytes
	}
	return b, nil
}

// Super returns the log's current superblock: format version, region
// geometry, and the GC'd-prefix start index.
func (l *Log) Super() Super {
	return Super{Version: SuperVersion, RegionBytes: l.regionBytes, Start: l.start}
}

// Start returns the block number of the oldest live block (the length of
// the garbage-collected prefix).
func (l *Log) Start() uint64 { return l.start }

// EachBlock calls fn on every live block, oldest first, stopping at the
// first error. Durable backends use it to dump the log through a block
// sink without the log package knowing the storage medium.
func (l *Log) EachBlock(fn func(Block) error) error {
	for i := range l.blocks {
		if err := fn(l.blocks[i]); err != nil {
			return err
		}
	}
	return nil
}

// Last returns the most recently appended live block. It panics on an
// empty log; callers pair it with an AppendBlock they just issued.
func (l *Log) Last() Block { return l.blocks[len(l.blocks)-1] }

// WriteTo serializes the durable log region (superblock, then blocks
// oldest-first) to w — the byte-exact NVM region content. It returns the
// bytes written.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(EncodeSuper(l.Super()))
	total := int64(n)
	if err != nil {
		return total, err
	}
	for _, b := range l.blocks {
		raw, err := EncodeBlock(b)
		if err != nil {
			return total, err
		}
		n, err := w.Write(raw)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadLog reconstructs a log from its durable byte representation: one
// superblock followed by whole blocks, stopping cleanly at a torn or
// corrupt tail block (whose entries are, by the write-ahead ordering,
// not yet required by any persisted checkpoint). The superblock's start
// index and region size are restored, so block numbering survives the
// round trip even after garbage collection; regionBytes > 0 overrides
// the recorded region size. Each block is kept as stored — its
// expiration tag, the one recovery's early stop reads, and its entries,
// an empty block included — so the log re-serializes to the same bytes.
// An empty input is an empty log (a region that was allocated but never
// written). It returns the log and how many whole blocks were read; a
// corrupt superblock is a hard error (ErrCorruptSuper, wrapped).
func ReadLog(r io.Reader, regionBytes uint64) (*Log, int, error) {
	sraw := make([]byte, SuperBytes)
	if _, err := io.ReadFull(r, sraw); err != nil {
		if err == io.EOF {
			return NewLog(regionBytes), 0, nil
		}
		return nil, 0, fmt.Errorf("%w: truncated to less than a superblock", ErrCorruptSuper)
	}
	super, err := DecodeSuper(sraw)
	if err != nil {
		return nil, 0, err
	}
	if regionBytes == 0 {
		regionBytes = super.RegionBytes
	}
	l := NewLog(regionBytes)
	l.start = super.Start
	buf := make([]byte, BlockBytes)
	read := 0
	for {
		_, err := io.ReadFull(r, buf)
		if err == io.EOF {
			return l, read, nil
		}
		if err == io.ErrUnexpectedEOF {
			// Torn tail write: the crash interrupted the final block.
			return l, read, nil
		}
		if err != nil {
			return l, read, err
		}
		b, err := DecodeBlock(buf)
		if err != nil {
			if !errors.Is(err, ErrCorruptBlock) {
				return l, read, err
			}
			// A corrupt FINAL block is a torn tail: the crash interrupted
			// its 2 KB write mid-row, and recovery stops in front of it.
			// A corrupt block with more data behind it cannot be a tear —
			// appends are sequential, so everything before the tail was
			// fully written once. That is media rot (or scribbling), and
			// silently dropping the tail there would discard committed
			// undo coverage, so it is a hard error.
			var probe [1]byte
			if n, _ := io.ReadFull(r, probe[:]); n == 0 {
				return l, read, nil // torn tail
			}
			return l, read, fmt.Errorf(
				"undolog: block %d fails validation with further data behind it (media rot, not a torn tail): %w",
				l.start+uint64(read), err)
		}
		l.push(b)
		read++
	}
}
