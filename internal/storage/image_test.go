package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
)

// lineWrite is one WriteLine call of a test workload.
type lineWrite struct {
	l mem.LineAddr
	w mem.Word
}

// replay applies writes in order to a fresh image: what Load must
// return once they are all in the file.
func replay(writes []lineWrite) *mem.Image {
	img := mem.NewImage()
	for _, x := range writes {
		img.Write(x.l, x.w)
	}
	return img
}

// commitImage stages writes into the image at path and commits them as
// epoch e.
func commitImage(t *testing.T, path string, writes []lineWrite, e mem.EpochID) {
	t.Helper()
	im, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range writes {
		if err := im.WriteLine(x.l, x.w); err != nil {
			t.Fatal(err)
		}
	}
	if err := im.commit(e); err != nil {
		t.Fatal(err)
	}
	if err := im.Close(); err != nil {
		t.Fatal(err)
	}
}

// opened is what OpenImage and Load made of an image file.
type opened struct {
	img   *mem.Image
	torn  uint64
	epoch mem.EpochID
}

// loadImage opens the image at path and loads it.
func loadImage(t *testing.T, path string) (opened, error) {
	t.Helper()
	im, err := OpenImage(path)
	if err != nil {
		return opened{}, err
	}
	defer im.Close()
	img, err := im.Load()
	return opened{img, im.TornBytes(), im.epoch}, err
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// twoCommits writes seven line writes as two commits into a fresh image
// — three as epoch 4 behind the header, four as epoch 5 — and returns
// the writes, the file's bytes, and where the first batch ends.
func twoCommits(t *testing.T, path string) ([]lineWrite, []byte, int) {
	t.Helper()
	var writes []lineWrite
	for i := 0; i < 7; i++ {
		writes = append(writes, lineWrite{mem.LineAddr(i % 5), mem.Word(100 + i)})
	}
	commitImage(t, path, writes[:3], 4)
	commitImage(t, path, writes[3:], 5)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := imageHeaderBytes + 4*imageRecBytes
	if len(full) != first+5*imageRecBytes {
		t.Fatalf("two commits left %d bytes", len(full))
	}
	return writes, full, first
}

// TestImageFileRoundTrip: staged writes stay out of the file until a
// commit, which appends one record per write and one commit record
// behind the header; Load and a reopened file replay them so the last
// record of a line wins, zero words collapse to the implicit zero state,
// and the commit's epoch is the marker. A torn final commit record drops
// its whole batch at open, landing on the commit before it.
func TestImageFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "image.dat")
	im, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	var writes []lineWrite
	for i := 0; i < 200; i++ {
		l := mem.LineAddr(i % 60) // plenty of overwrites
		w := mem.PayloadFor(l, 3, uint64(i))
		if i%17 == 0 {
			w = 0 // zero writes must collapse to the implicit zero state
		}
		if err := im.WriteLine(l, w); err != nil {
			t.Fatal(err)
		}
		writes = append(writes, lineWrite{l, w})
		if i == 149 {
			if err := im.Sync(); err != nil {
				t.Fatal(err)
			}
			if got, err := im.Load(); err != nil || got.Len() != 0 || fileSize(t, path) != 0 {
				t.Fatalf("staged writes reached the file before a commit: %d lines, %d bytes, err %v",
					got.Len(), fileSize(t, path), err)
			}
			if err := im.commit(3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := im.commit(4); err != nil {
		t.Fatal(err)
	}
	if size := fileSize(t, path); size != imageHeaderBytes+202*imageRecBytes {
		t.Fatalf("file is %d bytes after two commits, want header + 200 line records + 2 commit records", size)
	}
	want := replay(writes)
	got, err := im.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || im.epoch != 4 {
		t.Fatalf("live load: epoch %d, %v", im.epoch, got.Diff(want, 5))
	}
	if err := im.Close(); err != nil {
		t.Fatal(err)
	}

	o, err := loadImage(t, path)
	if err != nil || o.torn != 0 || o.epoch != 4 || !o.img.Equal(want) {
		t.Fatalf("reopen: epoch %d torn=%d err=%v", o.epoch, o.torn, err)
	}

	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	o, err = loadImage(t, path)
	if err != nil || o.torn != 50*imageRecBytes+imageRecBytes-7 || o.epoch != 3 {
		t.Fatalf("after a torn commit record: epoch %d torn=%d err=%v, want epoch 3 and the batch dropped", o.epoch, o.torn, err)
	}
	if want := replay(writes[:150]); !o.img.Equal(want) {
		t.Fatalf("after a torn commit record: %v", o.img.Diff(want, 5))
	}
}

// TestImageTornTailMatrix cuts the image at every byte offset of two
// commits, the first into an empty file (header included): open must
// drop everything behind the last whole commit record, report it, and
// load exactly the batches in front of the cut at their epoch.
func TestImageTornTailMatrix(t *testing.T) {
	dir := t.TempDir()
	writes, full, first := twoCommits(t, filepath.Join(dir, "image.dat"))
	cut := filepath.Join(dir, "cut.dat")
	for off := 0; off <= len(full); off++ {
		if err := os.WriteFile(cut, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		keep, sealed, epoch := 0, 0, mem.EpochID(0)
		switch {
		case off == len(full):
			keep, sealed, epoch = off, 7, 5
		case off >= first:
			keep, sealed, epoch = first, 3, 4
		}
		o, err := loadImage(t, cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		if o.torn != uint64(off-keep) || fileSize(t, cut) != int64(keep) || o.epoch != epoch {
			t.Fatalf("cut at %d: torn=%d size=%d epoch %d, want torn %d size %d epoch %d",
				off, o.torn, fileSize(t, cut), o.epoch, off-keep, keep, epoch)
		}
		if want := replay(writes[:sealed]); !o.img.Equal(want) {
			t.Fatalf("cut at %d: %v", off, o.img.Diff(want, 5))
		}
	}
}

// TestImageRot: a flipped bit anywhere in a record with a sealed batch
// behind it — a line record or a commit record — fails Load with
// ErrCorruptImage and leaves the file as it was; the same flip anywhere
// in the final batch reads as a torn batch and lands one commit back.
func TestImageRot(t *testing.T) {
	dir := t.TempDir()
	writes, full, first := twoCommits(t, filepath.Join(dir, "image.dat"))
	rot := filepath.Join(dir, "rot.dat")
	for at := imageHeaderBytes; at < len(full); at += imageRecBytes {
		for bit := 0; bit < imageRecBytes*8; bit++ {
			bad := bytes.Clone(full)
			bad[at+bit/8] ^= 1 << (bit % 8)
			if err := os.WriteFile(rot, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			o, err := loadImage(t, rot)
			if at < first {
				if !errors.Is(err, ErrCorruptImage) {
					t.Fatalf("record at %d bit %d: load = %v, want ErrCorruptImage", at, bit, err)
				}
				if after, _ := os.ReadFile(rot); !bytes.Equal(after, bad) {
					t.Fatalf("record at %d bit %d: the rotted file was modified", at, bit)
				}
				continue
			}
			if err != nil || o.torn != uint64(len(full)-first) || o.epoch != 4 {
				t.Fatalf("final batch at %d bit %d: epoch %d torn=%d err=%v, want epoch 4 and the batch dropped",
					at, bit, o.epoch, o.torn, err)
			}
			if want := replay(writes[:3]); !o.img.Equal(want) {
				t.Fatalf("final batch at %d bit %d: %v", at, bit, o.img.Diff(want, 5))
			}
		}
	}
}

// TestImageRotBit: the fault hook refuses an image whose only batch is
// the final one and never flips a bit of the final batch.
func TestImageRotBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "image.dat")
	im, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	im.WriteLine(1, 1)
	if err := im.commit(1); err != nil {
		t.Fatal(err)
	}
	if err := im.RotBit(0); err == nil {
		t.Fatal("rot of a one-batch image accepted")
	}
	for i := 2; i <= 4; i++ {
		im.WriteLine(mem.LineAddr(i), mem.Word(i))
	}
	if err := im.commit(2); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	final := len(before) - 4*imageRecBytes
	for bit := uint64(0); bit < 4*imageRecBytes*8; bit += 37 {
		if err := im.RotBit(bit); err != nil {
			t.Fatal(err)
		}
		after, _ := os.ReadFile(path)
		if !bytes.Equal(after[final:], before[final:]) {
			t.Fatalf("bit %d rotted the final batch", bit)
		}
		if _, err := im.Load(); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("bit %d: load = %v, want ErrCorruptImage", bit, err)
		}
		if err := im.RotBit(bit); err != nil { // flip it back
			t.Fatal(err)
		}
	}
}

// TestImageLegacyRefused: images of the older layouts — headerless
// 16-byte records (version 1) and the version-2 header with line
// records and no commit records — and a file that does not start with a
// header prefix are errors at open, and the file is left byte-identical
// — never read as an empty or truncated image.
func TestImageLegacyRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := map[string][]byte{}
	for _, n := range []int{1, 2, 100} {
		v1 := make([]byte, 0, n*16)
		v2 := []byte{'P', 'C', 'L', 'I', 2, 0, 0, 0}
		for i := 0; i < n; i++ {
			v1 = binary.LittleEndian.AppendUint64(v1, uint64(i))
			v1 = binary.LittleEndian.AppendUint64(v1, uint64(1000+i))
			v2 = appendImageRecord(v2, mem.LineAddr(i), mem.Word(1000+i))
		}
		legacy[fmt.Sprintf("%d version-1 records", n)] = v1
		legacy[fmt.Sprintf("%d version-2 records", n)] = v2
		im := &ImageFile{staged: v2[imageHeaderBytes:]}
		v3 := im.batch(5)
		v3[4] = 3 // a sealed batch under the version-3 header
		legacy[fmt.Sprintf("%d version-3 records", n)] = v3
	}
	for name, raw := range legacy {
		path := filepath.Join(dir, "legacy.dat")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if im, err := OpenImage(path); !errors.Is(err, ErrCorruptImage) {
			if err == nil {
				im.Close()
			}
			t.Fatalf("%s: open = %v, want ErrCorruptImage", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
			t.Fatalf("%s: open modified the file", name)
		}
		// The same through a store directory.
		store := filepath.Join(dir, "store")
		if err := os.MkdirAll(store, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(store, ImageFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := RecoverDir(store); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("%s: recover = %v, want ErrCorruptImage", name, err)
		}
		if after, _ := os.ReadFile(filepath.Join(store, ImageFileName)); !bytes.Equal(after, raw) {
			t.Fatalf("%s: recovery modified the file", name)
		}
	}
	path := filepath.Join(dir, "junk.dat")
	if err := os.WriteFile(path, []byte("PCX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenImage(path); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("3 junk bytes: open = %v, want ErrCorruptImage", err)
	}
}

// TestCommitRecordOverflow: a commit whose epoch or named log block
// count does not fit the commit record's 32 bits fails without writing,
// rather than wrapping; the staged records wait for the next commit.
func TestCommitRecordOverflow(t *testing.T) {
	path := filepath.Join(t.TempDir(), ImageFileName)
	im, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	if err := im.WriteLine(1, 11); err != nil {
		t.Fatal(err)
	}
	if err := im.commit(1 << 32); err == nil {
		t.Fatal("commit of epoch 2^32 succeeded")
	}
	im.syncedLog = 1 << 32
	if err := im.commit(1); err == nil {
		t.Fatal("commit naming 2^32 log blocks succeeded")
	}
	if fileSize(t, path) != 0 {
		t.Fatal("a refused commit wrote to the file")
	}
	im.syncedLog = 7
	if err := im.commit(1); err != nil {
		t.Fatal(err)
	}
	if im.LogBlocks() != 7 || fileSize(t, path) != imageHeaderBytes+2*imageRecBytes {
		t.Fatalf("commit names %d log blocks in a %d-byte file, want 7 in %d",
			im.LogBlocks(), fileSize(t, path), imageHeaderBytes+2*imageRecBytes)
	}
}

// TestImageTearTail: a power cut (Cut) drops every staged record and,
// only when asked, tears the commit append that would have sealed them
// — in order or out of it, with zeros or garbage where the batch did
// not land — past the sealed records only; the following Close writes
// nothing, and the next open drops the torn bytes, reports them and
// lands on the last commit.
func TestImageTearTail(t *testing.T) {
	for _, c := range []struct{ reorder, garbage bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		dir := t.TempDir()
		path := filepath.Join(dir, "image.dat")
		im, err := OpenImage(path)
		if err != nil {
			t.Fatal(err)
		}
		// A tear of the first commit into an empty file lands behind the
		// header.
		im.WriteLine(9, 9)
		if torn, err := im.Cut(5, c.reorder, c.garbage); !torn || err != nil {
			t.Fatalf("%+v: cut of a first commit: torn=%v err=%v", c, torn, err)
		}
		want := int64(imageHeaderBytes + 5)
		if c.reorder {
			want = imageHeaderBytes + 2*imageRecBytes
		}
		if size := fileSize(t, path); size != want {
			t.Fatalf("%+v: first-commit tear left %d bytes, want %d", c, size, want)
		}
		im.Close()
		if o, err := loadImage(t, path); err != nil || o.torn != uint64(want) || o.img.Len() != 0 || o.epoch != 0 {
			t.Fatalf("%+v: after first-commit tear: %d lines epoch %d torn=%d err=%v", c, o.img.Len(), o.epoch, o.torn, err)
		}

		im, err = OpenImage(path)
		if err != nil {
			t.Fatal(err)
		}
		writes := []lineWrite{{1, 1}, {2, 2}, {3, 3}}
		for _, x := range writes {
			im.WriteLine(x.l, x.w)
		}
		if err := im.commit(6); err != nil {
			t.Fatal(err)
		}
		sealed, _ := os.ReadFile(path)
		im.WriteLine(5, 5)
		if torn, err := im.Cut(0, c.reorder, c.garbage); torn || err != nil {
			t.Fatalf("%+v: cut without a tear: torn=%v err=%v", c, torn, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, sealed) {
			t.Fatalf("%+v: a cut without a tear changed the file", c)
		}
		for tear := uint64(1); tear < 3*imageRecBytes; tear++ {
			im.WriteLine(6, 6)
			im.WriteLine(7, 7)
			if torn, err := im.Cut(tear, c.reorder, c.garbage); !torn || err != nil {
				t.Fatalf("%+v: cut at %d: torn=%v err=%v", c, tear, torn, err)
			}
			cut, _ := os.ReadFile(path)
			n := int(tear)
			if c.reorder {
				n = 3 * imageRecBytes
			}
			if len(cut) != len(sealed)+n || !bytes.Equal(cut[:len(sealed)], sealed) {
				t.Fatalf("%+v: cut at %d left %d bytes, want the %d sealed ones untouched plus %d", c, tear, len(cut), len(sealed), n)
			}
			if err := im.Close(); err != nil {
				t.Fatal(err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, cut) {
				t.Fatalf("%+v: Close after a cut wrote to the image", c)
			}
			o, err := loadImage(t, path)
			if err != nil || o.torn != uint64(n) || o.epoch != 6 || !o.img.Equal(replay(writes)) {
				t.Fatalf("%+v: reopen after cut at %d: epoch %d torn=%d err=%v", c, tear, o.epoch, o.torn, err)
			}
			if im, err = OpenImage(path); err != nil {
				t.Fatal(err)
			}
		}
		im.Close()
	}
}

// TestImageCutZeros: an out-of-order tear whose lost bytes are zeros in
// the batch itself would land the whole batch, so Cut writes nothing.
func TestImageCutZeros(t *testing.T) {
	path := filepath.Join(t.TempDir(), "image.dat")
	im, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	if err := im.commit(1); err != nil {
		t.Fatal(err)
	}
	im.WriteLine(0, 0) // 16 zero bytes lead the batch
	if torn, err := im.Cut(16, true, false); torn || err != nil {
		t.Fatalf("zero-prefix reorder: torn=%v err=%v, want nothing torn", torn, err)
	}
	if size := fileSize(t, path); size != imageHeaderBytes+imageRecBytes {
		t.Fatalf("zero-prefix reorder wrote to the image: %d bytes", size)
	}
}

// TestResetWritesImageFormat: the compaction writes the header, one
// record per live line and a commit record sealing them under the
// recovered epoch, then seals epoch 0 twice; a commit after it appends
// behind them.
func TestResetWritesImageFormat(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.PersistMarker(7); err != nil {
		t.Fatal(err)
	}
	want := mem.NewImage()
	for i := 1; i <= 10; i++ {
		want.Write(mem.LineAddr(i*3), mem.Word(i))
	}
	if err := d.Reset(want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ImageFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != imageHeaderBytes+13*imageRecBytes || !bytes.Equal(raw[:imageHeaderBytes], imageHeader[:]) {
		t.Fatalf("compacted image is %d bytes starting %x", len(raw), raw[:min(len(raw), imageHeaderBytes)])
	}
	recs := raw[imageHeaderBytes : imageHeaderBytes+10*imageRecBytes]
	got := mem.NewImage()
	for i := 0; i < len(recs); i += imageRecBytes {
		l, w, ok := decodeImageRecord(recs[i:])
		if !ok {
			t.Fatalf("compacted record %d fails validation", i/imageRecBytes)
		}
		got.Write(l, w)
	}
	if !got.Equal(want) {
		t.Fatalf("compacted records differ: %v", got.Diff(want, 5))
	}
	seals := appendCommitRecord(nil, commitRec{epoch: 7, count: 10, sum: crc32.Checksum(recs, castagnoli)})
	seals = appendCommitRecord(seals, commitRec{})
	seals = appendCommitRecord(seals, commitRec{})
	if !bytes.Equal(raw[len(raw)-len(seals):], seals) {
		t.Fatalf("compacted image ends %x, want epoch 7 sealing the records, then epoch 0 twice, all naming an empty log", raw[len(raw)-len(seals):])
	}
	if err := d.Img.WriteLine(3, 99); err != nil {
		t.Fatal(err)
	}
	if err := d.PersistMarker(1); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if len(after) != len(raw)+2*imageRecBytes || !bytes.Equal(after[:len(raw)], raw) {
		t.Fatalf("commit after the compaction rewrote or skipped bytes: %d -> %d", len(raw), len(after))
	}
	want.Write(3, 99)
	img, err := d.Img.Load()
	if err != nil || !img.Equal(want) {
		t.Fatalf("load after compaction and commit: err %v", err)
	}
}
