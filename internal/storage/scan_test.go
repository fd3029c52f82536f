package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// recoverOracle is recovery the in-memory way, over the log bytes raw
// and a base image: the prefix the commit names (named blocks, at
// epoch marker) read whole by undolog.ReadLog and applied with
// Log.ApplyTo. An empty raw is the fresh log OpenFile creates.
func recoverOracle(raw []byte, named uint64, marker mem.EpochID, base *mem.Image) (img *mem.Image, read, applied, scanned int, err error) {
	if len(raw) == 0 {
		raw = undolog.EncodeSuper(undolog.Super{Version: undolog.SuperVersion, RegionBytes: undolog.DefaultRegionBytes})
	}
	if len(raw) < undolog.SuperBytes {
		return nil, 0, 0, 0, undolog.ErrCorruptSuper
	}
	super, err := undolog.DecodeSuper(raw[:undolog.SuperBytes])
	if err != nil {
		return nil, 0, 0, 0, err
	}
	have := super.Start + uint64(len(raw)-undolog.SuperBytes)/undolog.BlockBytes
	if named < super.Start || named > have {
		return nil, 0, 0, 0, undolog.ErrCorruptBlock
	}
	l, read, err := undolog.ReadLog(bytes.NewReader(raw[:undolog.SuperBytes+(named-super.Start)*undolog.BlockBytes]), 0)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if uint64(read) < named-super.Start {
		return nil, 0, 0, 0, undolog.ErrCorruptBlock
	}
	img = base.Clone()
	applied, scanned = l.ApplyTo(img, marker)
	return img, read, applied, scanned, nil
}

// diffRecover recovers the store in dir with Dir.Recover and with the
// oracle over the same files, and fails unless both agree: the image
// bit for bit and every count, or the same class of failure. It leaves
// the store recovered (its log cut to the named prefix).
func diffRecover(t *testing.T, what, dir string) (RecoverInfo, error) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	im, err := OpenImage(filepath.Join(dir, ImageFileName))
	if err != nil {
		t.Fatal(err)
	}
	base, err := im.Load()
	named, marker := im.LogBlocks(), im.epoch
	im.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, read, applied, scanned, wantErr := recoverOracle(raw, named, marker, base)
	got, info, err := RecoverDir(dir)
	for _, sentinel := range []error{undolog.ErrCorruptBlock, undolog.ErrCorruptSuper} {
		if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
			t.Fatalf("%s: Recover = %v, the in-memory scan = %v", what, err, wantErr)
		}
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Recover = %v, the in-memory scan = %v", what, err, wantErr)
	}
	if err != nil {
		return info, err
	}
	if !got.Equal(want) || info.BlocksRead != read || info.Applied != applied || info.Scanned != scanned || info.Marker != marker {
		t.Fatalf("%s: Recover read %d blocks, applied %d over %d at epoch %d, differing on lines %v; the in-memory scan read %d, applied %d over %d at epoch %d",
			what, info.BlocksRead, info.Applied, info.Scanned, info.Marker, got.Diff(want, 5), read, applied, scanned, marker)
	}
	return info, nil
}

// copyStore copies the store files in src to a fresh directory.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{LogFileName, ImageFileName} {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// scanStore writes a durable store through Dir the way the core does:
// six epochs over 64 overlapping lines, each line write logging the
// line's previous value valid from the epoch that wrote it to the
// writing epoch, then staging the new value. Epochs 1, 3, 5 and 6
// commit with PersistMarker (ACS-gap), 2 and 4 with PersistBulk; the
// commits of epochs 3 and 5 each carry a batch of evictions of the
// next epoch. Each call to at gets a copy of the store as that commit
// left it, with the epoch's golden image.
func scanStore(t *testing.T, at func(e mem.EpochID, store string, golden *mem.Image)) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := mem.NewImage()
	from := map[mem.LineAddr]mem.EpochID{} // the epoch that wrote each line's value
	var pending []undolog.Entry
	flush := func() {
		if len(pending) == 0 {
			return
		}
		var maxTill mem.EpochID
		for _, en := range pending {
			maxTill = max(maxTill, en.ValidTill)
		}
		raw, err := undolog.EncodeBlock(undolog.Block{Entries: pending, MaxValidTill: maxTill})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Log.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
		pending = pending[:0]
	}
	write := func(l mem.LineAddr, e mem.EpochID) {
		if from[l] != e {
			pending = append(pending, undolog.Entry{Line: l, ValidFrom: from[l], ValidTill: e, Old: model.Read(l)})
			if len(pending) == undolog.EntriesPerBlock {
				flush()
			}
		}
		w := mem.PayloadFor(l, e, 0)
		model.Write(l, w)
		from[l] = e
		if err := d.Img.WriteLine(l, w); err != nil {
			t.Fatal(err)
		}
	}
	lines := func(e mem.EpochID, n int) []mem.LineAddr {
		var out []mem.LineAddr
		for i := range n {
			out = append(out, mem.LineAddr((int(e)*7+i*3)%64))
		}
		return out
	}
	var evicted map[mem.LineAddr]bool // lines of this epoch written before the last commit
	for e := mem.EpochID(1); e <= 6; e++ {
		for _, l := range lines(e, 20+5*int(e)) {
			if !evicted[l] {
				write(l, e)
			}
		}
		golden := model.Clone()
		// The evictions of e+1 reach the image ahead of e's commit; they
		// overwrite lines e+1 writes anyway.
		evicted = nil
		if e == 3 || e == 5 {
			evicted = map[mem.LineAddr]bool{}
			for _, l := range lines(e+1, 12) {
				write(l, e+1)
				evicted[l] = true
			}
		}
		flush()
		if e == 2 || e == 4 {
			err = d.PersistBulk(e)
		} else {
			err = d.PersistMarker(e)
		}
		if err != nil {
			t.Fatal(err)
		}
		at(e, copyStore(t, dir), golden)
	}
}

// TestStreamedRecoverMatchesInMemory is the streamed scan's
// differential test: at every commit point of scanStore, Dir.Recover —
// one chunk of the log in memory at a time — recovers exactly what
// ReadLog + Log.ApplyTo recover over the same named prefix, with the
// same counts, and lands on the commit's golden epoch.
func TestStreamedRecoverMatchesInMemory(t *testing.T) {
	scanned := 0
	scanStore(t, func(e mem.EpochID, store string, golden *mem.Image) {
		info, err := diffRecover(t, fmt.Sprintf("commit of epoch %d", e), store)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		img, _, err := RecoverDir(store)
		if err != nil || !img.Equal(golden) {
			t.Fatalf("epoch %d: recovered %v, off the golden image on lines %v", e, err, img.Diff(golden, 5))
		}
		scanned += info.Scanned
	})
	if scanned == 0 {
		t.Fatal("no commit left undo entries to apply: the newer-epoch evictions are not exercised")
	}
}

// TestStreamedRecoverRot: at the commit whose batch holds evictions of
// the next epoch, a bit flipped in any block of the named prefix — the
// first, one in the middle, one older than the block the scan stops
// at, that stop block, and the last — is rot (ErrCorruptBlock), though
// the scan itself decodes only the blocks behind the stop.
func TestStreamedRecoverRot(t *testing.T) {
	scanStore(t, func(e mem.EpochID, store string, _ *mem.Image) {
		if e != 5 {
			return
		}
		info, err := diffRecover(t, "clean", copyStore(t, store))
		if err != nil {
			t.Fatal(err)
		}
		last := uint64(info.BlocksRead) - 1
		stop := last - uint64(info.Scanned)
		blocks := map[string]uint64{"first": 0, "middle": stop / 2, "older than the stop": stop - 1, "the stop": stop, "last": last}
		if info.Scanned == 0 || stop < 3 {
			t.Fatalf("named prefix of %d blocks scanned %d: the rot positions are not distinct", info.BlocksRead, info.Scanned)
		}
		for what, b := range blocks {
			for _, off := range []int{0, 9, 200, undolog.BlockBytes - 1} { // magic, tag, an entry, the CRC
				rot := copyStore(t, store)
				path := filepath.Join(rot, LogFileName)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[undolog.SuperBytes+int(b)*undolog.BlockBytes+off] ^= 0x10
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := diffRecover(t, what+" block", rot); !errors.Is(err, undolog.ErrCorruptBlock) {
					t.Fatalf("rot at byte %d of the %s block (%d): Recover = %v, want ErrCorruptBlock", off, what, b, err)
				}
			}
		}
	})
}

// logBytes serializes a log built from blocks of entries.
func logBytes(blocks ...[]undolog.Entry) []byte {
	l := undolog.NewLog(1 << 20)
	for _, b := range blocks {
		l.AppendBlock(b)
	}
	var buf bytes.Buffer
	l.WriteTo(&buf)
	return buf.Bytes()
}

// FuzzRecoverLog: for arbitrary undo.log bytes and an image whose one
// commit seals three lines as epoch marker naming a named-block log
// prefix, Dir.Recover never panics and agrees with ReadLog + ApplyTo
// over that prefix (diffRecover): the same image and counts, or the
// same class of failure.
func FuzzRecoverLog(f *testing.F) {
	old := []undolog.Entry{{Line: 1, ValidFrom: 0, ValidTill: 1, Old: 5}, {Line: 2, ValidFrom: 1, ValidTill: 2, Old: 6}}
	newer := []undolog.Entry{{Line: 2, ValidFrom: 1, ValidTill: 3, Old: 7}, {Line: 3, ValidFrom: 0, ValidTill: 3, Old: 8}}
	bulk := logBytes(old, old)
	f.Add(bulk, uint32(2), uint32(2))                        // a clean bulk close: nothing to apply
	f.Add(logBytes(old, newer, newer), uint32(3), uint32(2)) // an ACS-gap commit with evictions of epoch 3
	rotStop := logBytes(old, old, newer)
	rotStop[undolog.SuperBytes+undolog.BlockBytes+9] ^= 1 // the stop block's tag
	f.Add(rotStop, uint32(3), uint32(2))
	f.Add(append(bytes.Clone(bulk), make([]byte, undolog.BlockBytes+5)...), uint32(2), uint32(2)) // unsynced zeros and a torn tail
	// A stale block a rewind left past the prefix: whole, valid, and
	// holding entries that would cover the marker if recovery read it.
	f.Add(append(bytes.Clone(bulk), logBytes(newer)[undolog.SuperBytes:]...), uint32(2), uint32(2))
	f.Add([]byte{}, uint32(0), uint32(0))
	f.Add(bulk[:10], uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, raw []byte, named, marker uint32) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		im := &ImageFile{syncedLog: uint64(named)}
		for l := mem.LineAddr(1); l <= 3; l++ {
			im.WriteLine(l, mem.Word(10*l))
		}
		if err := os.WriteFile(filepath.Join(dir, ImageFileName), im.batch(mem.EpochID(marker)), 0o644); err != nil {
			t.Fatal(err)
		}
		diffRecover(t, "fuzzed log", dir)
	})
}

// TestFileReadBlocks: positional block reads return the stored bytes
// under absolute numbering, a GC'd prefix included, and refuse a read
// that is not whole blocks or reaches outside the stored range.
func TestFileReadBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), LogFileName)
	full := logBytes([]undolog.Entry{{Line: 1, ValidTill: 1}}, []undolog.Entry{{Line: 2, ValidTill: 2}})
	copy(full, undolog.EncodeSuper(undolog.Super{Version: undolog.SuperVersion, RegionBytes: 1 << 20, Start: 5}))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	lf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	got := make([]byte, 2*undolog.BlockBytes)
	if err := lf.ReadBlocks(5, got); err != nil || !bytes.Equal(got, full[undolog.SuperBytes:]) {
		t.Fatalf("ReadBlocks(5) = %v, or the bytes differ from the stored blocks", err)
	}
	for _, c := range []struct {
		first uint64
		n     int
	}{{4, undolog.BlockBytes}, {6, 2 * undolog.BlockBytes}, {5, undolog.BlockBytes + 1}} {
		if err := lf.ReadBlocks(c.first, make([]byte, c.n)); err == nil {
			t.Fatalf("ReadBlocks(%d, %d bytes) of blocks [5, 7) succeeded", c.first, c.n)
		}
	}
}

// TestDirEachBlock: EachBlock walks the stored blocks oldest first,
// across read chunks, and stops at the callback's first error.
func TestDirEachBlock(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = logIOBlocks + 3
	for i := range n {
		raw, err := undolog.EncodeBlock(undolog.Block{MaxValidTill: mem.EpochID(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Log.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
	}
	var seen []mem.EpochID
	stop := errors.New("stop")
	err = d.EachBlock(func(b undolog.Block) error {
		seen = append(seen, b.MaxValidTill)
		if len(seen) == n-1 {
			return stop
		}
		return nil
	})
	if err != stop || len(seen) != n-1 || seen[0] != 0 || seen[n-2] != n-2 {
		t.Fatalf("EachBlock = %v after %v, want the callback's error after blocks 0..%d in order", err, seen, n-2)
	}
}
