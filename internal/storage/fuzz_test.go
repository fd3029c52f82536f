package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
)

// sealedImage is the fuzz oracle, written record by record: raw parsed
// as the version-4 header and whole sealed batches, the image they
// replay to, and the last commit record. ok is false if raw is anything
// else.
func sealedImage(raw []byte) (img *mem.Image, last commitRec, ok bool) {
	img = mem.NewImage()
	if len(raw) == 0 {
		return img, last, true
	}
	if len(raw) < imageHeaderBytes || !bytes.Equal(raw[:imageHeaderBytes], []byte{'P', 'C', 'L', 'I', 4, 0, 0, 0}) ||
		(len(raw)-imageHeaderBytes)%imageRecBytes != 0 {
		return nil, last, false
	}
	var batch []lineWrite
	start := imageHeaderBytes
	for at := imageHeaderBytes; at < len(raw); at += imageRecBytes {
		rec := raw[at : at+imageRecBytes]
		if l, w, ok := decodeImageRecord(rec); ok {
			batch = append(batch, lineWrite{l, w})
			continue
		}
		c, ok := decodeCommitRecord(rec)
		if !ok || c.count != int64(len(batch)) || c.sum != crc32.Checksum(raw[start:at], castagnoli) {
			return nil, last, false
		}
		for _, x := range batch {
			img.Write(x.l, x.w)
		}
		batch, start, last = batch[:0], at+imageRecBytes, c
	}
	return img, last, len(batch) == 0
}

// FuzzOpenImage: for arbitrary image.dat bytes, OpenImage, Load and the
// marker's Get never panic, and either fail with ErrCorruptImage or
// keep a prefix of the bytes made only of sealed batches and zero
// padding: a tail of zeros alone is kept whole and nothing is torn;
// otherwise the file is cut at the sealed end, the bytes up to the last
// non-zero one reported torn and the zeros behind them as padding.
// Load returns exactly what the sealed batches replay to, Get the last
// one's epoch and LogBlocks the log prefix it names.
func FuzzOpenImage(f *testing.F) {
	im := &ImageFile{}
	im.WriteLine(1, 11)
	im.WriteLine(2, 22)
	im.syncedLog = 3
	one := bytes.Clone(im.batch(4))
	im.size = int64(len(one))
	im.staged = im.staged[:0]
	im.WriteLine(1, 33)
	im.syncedLog = 7
	two := append(bytes.Clone(one), im.batch(5)...)
	v3 := bytes.Clone(two) // the same bytes under the version-3 header
	v3[4] = 3
	f.Add([]byte{})
	f.Add(imageHeader[:])
	f.Add(imageHeader[:5])
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-7])                                                            // torn commit record
	f.Add(append(bytes.Clone(one), make([]byte, 48)...))                               // zeros behind a sealed batch
	f.Add(append(append(bytes.Clone(one), make([]byte, 24)...), two[len(one)+24:]...)) // out of order
	rot := bytes.Clone(two)
	rot[imageHeaderBytes+3] ^= 0x10 // rot in the older batch
	f.Add(rot)
	f.Add([]byte{'P', 'C', 'L', 'I', 2, 0, 0, 0})
	f.Add(v3)
	f.Add(append(bytes.Clone(two), make([]byte, 1000)...))              // a clean padded tail
	f.Add(append(bytes.Clone(two[:len(two)-7]), make([]byte, 1000)...)) // a torn batch, then padding
	f.Add(append(bytes.Clone(one), make([]byte, 4096-len(one))...))     // a padding extension that landed up to a page
	f.Add(make([]byte, 100))                                            // only the first commit's padding landed
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), ImageFileName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		im, err := OpenImage(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("open: %v, want nil or ErrCorruptImage", err)
			}
			return
		}
		defer im.Close()
		e, err := (&Marker{im: im}).Get()
		if err != nil {
			t.Fatal(err)
		}
		img, err := im.Load()
		if err != nil {
			if !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("load: %v, want nil or ErrCorruptImage", err)
			}
			return
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sealed := kept[:lastNonZero(kept)+1]
		torn := lastNonZero(raw) + 1 - len(sealed)
		if !bytes.HasPrefix(raw, kept) || (len(kept) == len(raw)) != (torn == 0) || torn > 0 && len(kept) != len(sealed) ||
			im.TornBytes() != uint64(torn) || im.pad != uint64(len(raw)-len(sealed)-torn) {
			t.Fatalf("open kept %d of %d bytes, sealed to byte %d, and reports %d torn and %d padding; want a prefix, cut at the sealed end unless only zeros follow it, and %d torn",
				len(kept), len(raw), len(sealed), im.TornBytes(), im.pad, torn)
		}
		want, last, ok := sealedImage(sealed)
		if !ok {
			t.Fatalf("load accepted %x, which is not whole sealed batches", sealed)
		}
		if !img.Equal(want) || e != last.epoch || im.LogBlocks() != last.logBlocks {
			t.Fatalf("load returned epoch %d, log prefix %d and %v, the sealed batches hold epoch %d naming %d blocks",
				e, im.LogBlocks(), img.Diff(want, 5), last.epoch, last.logBlocks)
		}
	})
}
