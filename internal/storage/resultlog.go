package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"picl/internal/undolog"
)

// Results is the content-addressed result region: an append-only log of
// (digest, payload) records living on a LogStore, so experiment results
// persist with exactly the durability machinery the undo log already
// has — 2 KB sequential block appends, a validated superblock, and
// torn-tail repair at open. internal/serve keys it on the SHA-256 of
// exp.RunKey.Canonical(); this layer treats the digest as opaque bytes.
//
// # Record format (result-region v1)
//
// Every record starts at a block boundary and is zero-padded to one:
//
//	offset  0  magic   "PRS1"
//	offset  4  payload length (uint32, little-endian)
//	offset  8  digest  (32 bytes, the content address)
//	offset 40  crc32   of bytes [0, 40) ++ payload (Castagnoli)
//	offset 44  payload
//
// Block-aligning records costs at most one block of padding per record
// (results are KB-sized) and buys the same crash argument as the undo
// log: a torn tail can only damage the final record, the scan drops it,
// and the truncate repairs the region to the last good boundary.
//
// # Concurrency
//
// A Results is not safe for concurrent use; internal/serve serializes
// access behind its store mutex. Cross-process sharing is append-only
// and externally serialized (the store's flock'd append lock): writers
// refresh to the true tail before appending, readers pick up foreign
// appends via Refresh, which never truncates — an unreadable tail there
// may simply be another process's append still in flight.
type Results struct {
	b LogStore
	// idx maps digest -> payload for every complete record scanned so
	// far. Payloads are retained in memory: the warm result cache IS the
	// serving daemon's working set.
	idx map[[32]byte][]byte
	// order records insertion order of digests (scan order, then local
	// appends) so listings are deterministic without sorting raw hashes.
	order [][32]byte
	// scanned is the absolute block index (LogStore.Blocks numbering)
	// the scan has consumed up to.
	scanned uint64
}

// resultMagic opens every record.
var resultMagic = [4]byte{'P', 'R', 'S', '1'}

const (
	resultHeaderBytes = 44
	// MaxResultBytes bounds one payload: anything larger than 16 MB is a
	// corrupt length field, not a result.
	MaxResultBytes = 16 << 20
)

// OpenResults mounts a result region on b, scanning every stored record
// into the in-memory index. A torn or corrupt tail (the record a crash
// interrupted) is discarded and the log truncated back to the last
// complete record, mirroring the undo log's open-time repair.
func OpenResults(b LogStore) (*Results, error) {
	r := &Results{b: b, idx: make(map[[32]byte][]byte), scanned: b.Super().Start}
	good, err := r.scan()
	if err != nil {
		return nil, err
	}
	if good < b.Blocks() {
		if err := b.Truncate(good); err != nil {
			return nil, fmt.Errorf("storage: repairing result region tail: %w", err)
		}
	}
	return r, nil
}

// scan reads the blocks past r.scanned, indexes the complete records
// among them, and returns the absolute block index one past the last
// complete record. An invalid or incomplete tail stops the scan
// without error, and the next scan reads it again.
func (r *Results) scan() (uint64, error) {
	if r.b.Blocks() <= r.scanned {
		return r.scanned, nil
	}
	payload := make([]byte, (r.b.Blocks()-r.scanned)*undolog.BlockBytes)
	if err := r.b.ReadBlocks(r.scanned, payload); err != nil {
		return 0, err
	}
	var off uint64
	for {
		if off+resultHeaderBytes > uint64(len(payload)) {
			return r.scanned, nil
		}
		rec := payload[off:]
		if [4]byte(rec[0:4]) != resultMagic {
			return r.scanned, nil
		}
		plen := binary.LittleEndian.Uint32(rec[4:8])
		if plen > MaxResultBytes {
			return r.scanned, nil
		}
		total := uint64(resultHeaderBytes) + uint64(plen)
		nblocks := (total + undolog.BlockBytes - 1) / undolog.BlockBytes
		if off+nblocks*undolog.BlockBytes > uint64(len(payload)) {
			return r.scanned, nil
		}
		want := binary.LittleEndian.Uint32(rec[40:44])
		crc := crc32.Checksum(rec[:40], castagnoli)
		crc = crc32.Update(crc, castagnoli, rec[resultHeaderBytes:total])
		if crc != want {
			return r.scanned, nil
		}
		var d [32]byte
		copy(d[:], rec[8:40])
		if _, dup := r.idx[d]; !dup {
			r.order = append(r.order, d)
		}
		body := make([]byte, plen)
		copy(body, rec[resultHeaderBytes:total])
		r.idx[d] = body
		r.scanned += nblocks
		off += nblocks * undolog.BlockBytes
	}
}

// Get returns the payload stored under d.
func (r *Results) Get(d [32]byte) ([]byte, bool) {
	p, ok := r.idx[d]
	return p, ok
}

// Len reports how many distinct digests are indexed.
func (r *Results) Len() int { return len(r.idx) }

// Blocks reports the log's total block count.
func (r *Results) Blocks() uint64 { return r.b.Blocks() }

// Digests returns the indexed digests in first-seen order.
func (r *Results) Digests() [][32]byte {
	out := make([][32]byte, len(r.order))
	copy(out, r.order)
	return out
}

// Put appends one record and makes it durable before returning. A
// digest already present is re-appended (last write wins on the next
// scan); callers coalesce via the claim protocol, so duplicates are
// rare and harmless. Appends are serialized, so blocks past the last
// complete record are no append in flight but a dead writer's partial
// record: Put cuts them first, as the next open would, or that open
// would cut this record with them.
func (r *Results) Put(d [32]byte, payload []byte) error {
	if len(payload) > MaxResultBytes {
		return fmt.Errorf("storage: result payload %d bytes exceeds %d", len(payload), MaxResultBytes)
	}
	if err := r.b.Truncate(r.scanned); err != nil {
		return err
	}
	total := resultHeaderBytes + len(payload)
	nblocks := (total + undolog.BlockBytes - 1) / undolog.BlockBytes
	buf := make([]byte, nblocks*undolog.BlockBytes)
	copy(buf[0:4], resultMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	copy(buf[8:40], d[:])
	copy(buf[resultHeaderBytes:], payload)
	crc := crc32.Checksum(buf[:40], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(buf[40:44], crc)
	for i := 0; i < nblocks; i++ {
		if err := r.b.AppendBlock(buf[i*undolog.BlockBytes : (i+1)*undolog.BlockBytes]); err != nil {
			return err
		}
	}
	if err := r.b.Sync(); err != nil {
		return err
	}
	if _, dup := r.idx[d]; !dup {
		r.order = append(r.order, d)
	}
	body := make([]byte, len(payload))
	copy(body, payload)
	r.idx[d] = body
	r.scanned = r.b.Blocks()
	return nil
}

// Refresh picks up records other processes appended since the last
// scan. Unlike open, it never truncates: an unreadable tail here is as
// likely a foreign append in flight as a crash, and crash repair
// belongs to the next open anyway.
func (r *Results) Refresh() error {
	if err := r.b.Refresh(); err != nil {
		return err
	}
	_, err := r.scan()
	return err
}

// Close syncs and releases the log.
func (r *Results) Close() error { return r.b.Close() }
