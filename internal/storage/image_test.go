package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// writeImage stages writes into the image at path and syncs them.
func writeImage(t *testing.T, path string, writes []lineWrite) {
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
	if err := im.Close(); err != nil {
		t.Fatal(err)
	}
}

// loadImage opens the image at path and loads it.
func loadImage(t *testing.T, path string) (*mem.Image, uint64, error) {
	t.Helper()
	im, err := OpenImage(path)
	if err != nil {
		return nil, 0, err
	}
	defer im.Close()
	img, err := im.Load()
	return img, im.TornBytes(), err
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestImageFileRoundTrip: staged writes stay out of the file until
// Sync, which appends one record per write behind the header; Load and
// a reopened file replay them so the last record of a line wins, zero
// words collapse to the implicit zero state, and a torn final record is
// dropped at open and reported.
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
	}
	if got, err := im.Load(); err != nil || got.Len() != 0 || fileSize(t, path) != 0 {
		t.Fatalf("staged writes reached the file before Sync: %d lines, %d bytes, err %v",
			got.Len(), fileSize(t, path), err)
	}
	if err := im.Sync(); err != nil {
		t.Fatal(err)
	}
	want := replay(writes)
	if size := fileSize(t, path); size != imageHeaderBytes+200*imageRecBytes {
		t.Fatalf("file is %d bytes after Sync, want header + 200 records", size)
	}
	got, err := im.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("live load differs: %v", got.Diff(want, 5))
	}
	if err := im.Close(); err != nil {
		t.Fatal(err)
	}

	got, torn, err := loadImage(t, path)
	if err != nil || torn != 0 {
		t.Fatalf("reopen: torn=%d err=%v", torn, err)
	}
	if !got.Equal(want) {
		t.Fatalf("reopened load differs: %v", got.Diff(want, 5))
	}

	// Torn final record: dropped at open, every earlier record intact.
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn, err = loadImage(t, path)
	if err != nil || torn != imageRecBytes-7 {
		t.Fatalf("after torn record: torn=%d err=%v, want %d", torn, err, imageRecBytes-7)
	}
	if want := replay(writes[:199]); !got.Equal(want) {
		t.Fatalf("after torn record: %v", got.Diff(want, 5))
	}
}

// TestImageTornTailMatrix cuts the image at every byte offset of two
// multi-record Syncs, the first into an empty file (header included):
// open must drop exactly the partial record or header, report it, and
// load every whole record in front of the cut.
func TestImageTornTailMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "image.dat")
	var writes []lineWrite
	for i := 0; i < 7; i++ {
		writes = append(writes, lineWrite{mem.LineAddr(i % 5), mem.Word(100 + i)})
	}
	writeImage(t, path, writes[:3])
	writeImage(t, path, writes[3:])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != imageHeaderBytes+7*imageRecBytes {
		t.Fatalf("two Syncs left %d bytes", len(full))
	}
	cut := filepath.Join(dir, "cut.dat")
	for off := 0; off <= len(full); off++ {
		if err := os.WriteFile(cut, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		keep := 0
		if off >= imageHeaderBytes {
			whole = (off - imageHeaderBytes) / imageRecBytes
			keep = imageHeaderBytes + whole*imageRecBytes
		}
		got, torn, err := loadImage(t, cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		if torn != uint64(off-keep) || fileSize(t, cut) != int64(keep) {
			t.Fatalf("cut at %d: torn=%d size=%d, want torn %d size %d", off, torn, fileSize(t, cut), off-keep, keep)
		}
		if want := replay(writes[:whole]); !got.Equal(want) {
			t.Fatalf("cut at %d: %v", off, got.Diff(want, 5))
		}
	}
}

// TestImageRot: a flipped bit anywhere in a record with a whole record
// behind it fails Load with ErrCorruptImage and leaves the file as it
// was; the same flip in the final record reads as a torn tail.
func TestImageRot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "image.dat")
	writes := []lineWrite{{1, 11}, {2, 22}, {1, 33}}
	writeImage(t, path, writes)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rot := filepath.Join(dir, "rot.dat")
	for rec := 0; rec < len(writes); rec++ {
		for bit := 0; bit < imageRecBytes*8; bit++ {
			bad := bytes.Clone(full)
			bad[imageHeaderBytes+rec*imageRecBytes+bit/8] ^= 1 << (bit % 8)
			if err := os.WriteFile(rot, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			got, torn, err := loadImage(t, rot)
			if rec < len(writes)-1 {
				if !errors.Is(err, ErrCorruptImage) {
					t.Fatalf("record %d bit %d: load = %v, want ErrCorruptImage", rec, bit, err)
				}
				if after, _ := os.ReadFile(rot); !bytes.Equal(after, bad) {
					t.Fatalf("record %d bit %d: the rotted file was modified", rec, bit)
				}
				continue
			}
			if err != nil || torn != imageRecBytes {
				t.Fatalf("final record bit %d: torn=%d err=%v, want a dropped record", bit, torn, err)
			}
			if want := replay(writes[:2]); !got.Equal(want) {
				t.Fatalf("final record bit %d: %v", bit, got.Diff(want, 5))
			}
		}
	}
}

// TestImageRotBit: the fault hook refuses a file with fewer than two
// records and never flips a bit of the final record.
func TestImageRotBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "image.dat")
	im, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	if err := im.WriteLine(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := im.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := im.RotBit(0); err == nil {
		t.Fatal("rot of a one-record image accepted")
	}
	for i := 2; i <= 4; i++ {
		im.WriteLine(mem.LineAddr(i), mem.Word(i))
	}
	if err := im.Sync(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	for bit := uint64(0); bit < 4*imageRecBytes*8; bit += 37 {
		if err := im.RotBit(bit); err != nil {
			t.Fatal(err)
		}
		after, _ := os.ReadFile(path)
		if final := len(after) - imageRecBytes; !bytes.Equal(after[final:], before[final:]) {
			t.Fatalf("bit %d rotted the final record", bit)
		}
		if _, err := im.Load(); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("bit %d: load = %v, want ErrCorruptImage", bit, err)
		}
		if err := im.RotBit(bit); err != nil { // flip it back
			t.Fatal(err)
		}
	}
}

// TestImageLegacyRefused: images of the older headerless layout (bare
// 16-byte records, one record included) and a file that does not start
// with a header prefix are errors at open, and the file is left
// byte-identical — never read as an empty or truncated image.
func TestImageLegacyRefused(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{1, 2, 100} {
		raw := make([]byte, 0, n*16)
		for i := 0; i < n; i++ {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(i))
			raw = binary.LittleEndian.AppendUint64(raw, uint64(1000+i))
		}
		path := filepath.Join(dir, "legacy.dat")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if im, err := OpenImage(path); !errors.Is(err, ErrCorruptImage) {
			if err == nil {
				im.Close()
			}
			t.Fatalf("%d legacy records: open = %v, want ErrCorruptImage", n, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
			t.Fatalf("%d legacy records: open modified the file", n)
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
			t.Fatalf("%d legacy records: recover = %v, want ErrCorruptImage", n, err)
		}
		if after, _ := os.ReadFile(filepath.Join(store, ImageFileName)); !bytes.Equal(after, raw) {
			t.Fatalf("%d legacy records: recovery modified the file", n)
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

// TestImageTearTail: a power cut (Cut) drops every staged record,
// leaves a torn prefix of the first (or garbage) only when asked and
// only past the synced records, and the following Close writes
// nothing; the next open drops the torn bytes and reports them.
func TestImageTearTail(t *testing.T) {
	for _, garbage := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "image.dat")
		im, err := OpenImage(path)
		if err != nil {
			t.Fatal(err)
		}
		// A tear of the first Sync into an empty file lands behind the
		// header.
		im.WriteLine(9, 9)
		if torn, err := im.Cut(5, garbage); !torn || err != nil {
			t.Fatalf("cut of a first Sync: torn=%v err=%v", torn, err)
		}
		if size := fileSize(t, path); size != imageHeaderBytes+5 {
			t.Fatalf("first-Sync tear left %d bytes", size)
		}
		im.Close()
		if img, torn, err := loadImage(t, path); err != nil || torn != 5 || img.Len() != 0 {
			t.Fatalf("after first-Sync tear: %d lines torn=%d err=%v", img.Len(), torn, err)
		}

		im, err = OpenImage(path)
		if err != nil {
			t.Fatal(err)
		}
		writes := []lineWrite{{1, 1}, {2, 2}, {3, 3}}
		for _, x := range writes {
			im.WriteLine(x.l, x.w)
		}
		if err := im.Sync(); err != nil {
			t.Fatal(err)
		}
		synced, _ := os.ReadFile(path)
		im.WriteLine(4, 4)
		for _, tear := range []int{-1, imageRecBytes} {
			if _, err := im.Cut(tear, garbage); err == nil {
				t.Fatalf("tear of %d bytes accepted", tear)
			}
		}
		im.WriteLine(5, 5)
		if torn, err := im.Cut(0, garbage); torn || err != nil {
			t.Fatalf("cut without a tear: torn=%v err=%v", torn, err)
		}
		if torn, err := im.Cut(7, garbage); torn || err != nil {
			t.Fatalf("cut with nothing staged: torn=%v err=%v", torn, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, synced) {
			t.Fatal("a cut without a tear changed the file")
		}
		im.WriteLine(6, 6)
		im.WriteLine(7, 7)
		if torn, err := im.Cut(11, garbage); !torn || err != nil {
			t.Fatalf("cut with a tear: torn=%v err=%v", torn, err)
		}
		cut, _ := os.ReadFile(path)
		if len(cut) != len(synced)+11 || !bytes.Equal(cut[:len(synced)], synced) {
			t.Fatalf("cut left %d bytes, want the %d synced ones untouched plus 11", len(cut), len(synced))
		}
		if err := im.Close(); err != nil {
			t.Fatal(err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, cut) {
			t.Fatal("Close after a cut wrote to the image")
		}
		img, torn, err := loadImage(t, path)
		if err != nil || torn != 11 {
			t.Fatalf("reopen after cut: torn=%d err=%v", torn, err)
		}
		if want := replay(writes); !img.Equal(want) {
			t.Fatalf("reopen after cut: %v", img.Diff(want, 5))
		}
	}
}

// TestResetWritesImageFormat: the compaction writes the header and one
// record per live line, and a Sync after it appends behind them.
func TestResetWritesImageFormat(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
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
	if len(raw) != imageHeaderBytes+10*imageRecBytes || !bytes.Equal(raw[:imageHeaderBytes], imageHeader[:]) {
		t.Fatalf("compacted image is %d bytes starting %x", len(raw), raw[:min(len(raw), imageHeaderBytes)])
	}
	if err := d.Img.WriteLine(3, 99); err != nil {
		t.Fatal(err)
	}
	if err := d.PersistMarker(1); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if len(after) != len(raw)+imageRecBytes || !bytes.Equal(after[:len(raw)], raw) {
		t.Fatalf("commit after the compaction rewrote or skipped bytes: %d -> %d", len(raw), len(after))
	}
	want.Write(3, 99)
	img, err := d.Img.Load()
	if err != nil || !img.Equal(want) {
		t.Fatalf("load after compaction and commit: err %v", err)
	}
}
