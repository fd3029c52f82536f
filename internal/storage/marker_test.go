package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
)

// markerAfter returns a store directory after three commits: lines 1..3
// as epoch 1, line 4 as epoch 2, and line 5 staged and sealed by the
// third commit, the one under test (epoch 3). It also returns the image
// bytes before that commit and after it, each up to its sealed end.
func markerAfter(t *testing.T) (dir string, before, after []byte) {
	t.Helper()
	dir = t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ImageFileName)
	for _, c := range []struct {
		lines []mem.LineAddr
		e     mem.EpochID
	}{{[]mem.LineAddr{1, 2, 3}, 1}, {[]mem.LineAddr{4}, 2}, {[]mem.LineAddr{5}, 3}} {
		for _, l := range c.lines {
			if err := d.Img.WriteLine(l, mem.Word(10*l+mem.LineAddr(c.e))); err != nil {
				t.Fatal(err)
			}
		}
		if c.e == 3 {
			before = readSealed(t, path)
		}
		if err := d.PersistMarker(c.e); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	after = readSealed(t, path)
	return dir, before, after
}

// recoverImage writes raw as the image of the store in dir and
// recovers it.
func recoverImage(t *testing.T, dir string, raw []byte) (*mem.Image, RecoverInfo, error) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, ImageFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return RecoverDir(dir)
}

// wantEpoch2 checks a recovery that must land on the second commit.
func wantEpoch2(t *testing.T, what string, img *mem.Image, info RecoverInfo, err error, before []byte) {
	t.Helper()
	if err != nil || info.Marker != 2 || info.MarkerAt != int64(len(before)-imageRecBytes) {
		t.Fatalf("%s: marker %d at %d err=%v, want 2 at %d", what, info.Marker, info.MarkerAt, err, len(before)-imageRecBytes)
	}
	if img.Len() != 4 || img.Read(5) != 0 || img.Read(4) != 42 {
		t.Fatalf("%s: recovered %d lines, line 4 = %d, line 5 = %d", what, img.Len(), img.Read(4), img.Read(5))
	}
}

// TestMarkerTornCommitMatrix is the marker's crash matrix: a power cut
// during the third commit can leave any prefix of its batch, or any
// later part of it behind zeros or garbage (an out-of-order write-back),
// at the file's end or over zero padding, and media rot can strike any
// bit of it. In every case recovery lands on the second commit and
// reports the dropped bytes: the non-zero ones as torn, the zeros
// behind them as padding; the records sealed before it are never
// touched. The whole batch landing is a completed Set, padded or not.
func TestMarkerTornCommitMatrix(t *testing.T) {
	dir, before, after := markerAfter(t)
	batch := after[len(before):]
	var cases [][]byte
	for split := 1; split < len(batch); split++ {
		zeros := bytes.Clone(batch)
		clear(zeros[:split])
		junk := bytes.Clone(batch)
		for i := range junk[:split] {
			junk[i] ^= 0xFF
		}
		cases = append(cases, batch[:split], zeros, junk, bytes.Repeat([]byte{0xA5}, split))
	}
	for bit := 0; bit < len(batch)*8; bit++ {
		rot := bytes.Clone(batch)
		rot[bit/8] ^= 1 << (bit % 8)
		cases = append(cases, rot)
	}
	for i, c := range cases {
		for _, pad := range []int{0, 1000} {
			img, info, err := recoverImage(t, dir, append(append(bytes.Clone(before), c...), make([]byte, pad)...))
			wantEpoch2(t, fmt.Sprint("case ", i, " pad ", pad), img, info, err, before)
			if torn := len(sealedPart(c)); info.ImageTornBytes != uint64(torn) || info.ImagePadBytes != uint64(len(c)-torn+pad) {
				t.Fatalf("case %d pad %d: %d torn and %d padding bytes reported, want %d and %d",
					i, pad, info.ImageTornBytes, info.ImagePadBytes, torn, len(c)-torn+pad)
			}
		}
	}
	for _, pad := range []int{0, 1000} {
		img, info, err := recoverImage(t, dir, append(bytes.Clone(after), make([]byte, pad)...))
		if err != nil || info.Marker != 3 || info.ImageTornBytes != 0 || info.ImagePadBytes != uint64(pad) || img.Read(5) != 53 {
			t.Fatalf("completed set, pad %d: marker %d torn=%d padding %d line 5 = %d err=%v, want 3", pad, info.Marker, info.ImageTornBytes, info.ImagePadBytes, img.Read(5), err)
		}
	}
}

// TestMarkerRotNewest: rot in the commit record holding the newest
// marker looks like a torn commit, so recovery lands one commit back
// and reports the dropped batch (DESIGN.md §10.2 says why that
// checkpoint is still consistent).
func TestMarkerRotNewest(t *testing.T) {
	dir, before, after := markerAfter(t)
	raw := bytes.Clone(after)
	raw[len(raw)-imageRecBytes+3] ^= 0x10 // the epoch of commit 3
	img, info, err := recoverImage(t, dir, raw)
	wantEpoch2(t, "rot in the newest commit record", img, info, err, before)
	if info.ImageTornBytes != uint64(len(after)-len(before)) {
		t.Fatalf("rot in the newest commit record: %d torn bytes reported", info.ImageTornBytes)
	}
}

// TestMarkerRejectsInvalid: a commit record that does not validate is
// never the marker. A wrong tag, a CRC mismatch, a count larger than the
// records in front of it, or a count or batch CRC that does not match
// its batch all leave the third commit unsealed, so recovery lands on
// the second — never on epoch 3, never on epoch 0.
func TestMarkerRejectsInvalid(t *testing.T) {
	dir, before, after := markerAfter(t)
	commit := len(after) - imageRecBytes
	mutate := map[string]func(rec []byte){
		"tag":       func(rec []byte) { rec[23] = 0 },
		"crc":       func(rec []byte) { rec[16]++ },
		"count":     func(rec []byte) { reseal(rec, 1000, 12) },
		"short":     func(rec []byte) { reseal(rec, 0, 12) },
		"batch crc": func(rec []byte) { reseal(rec, 1, 0xBAD) },
	}
	for name, m := range mutate {
		raw := bytes.Clone(after)
		m(raw[commit:])
		img, info, err := recoverImage(t, dir, raw)
		wantEpoch2(t, name, img, info, err, before)
	}
}

// reseal rewrites a commit record in place with another count and batch
// CRC, with a valid record CRC of its own.
func reseal(rec []byte, count uint32, sum uint32) {
	c, _ := decodeCommitRecord(rec)
	c.count, c.sum = int64(count), sum
	copy(rec, appendCommitRecord(nil, c))
}

// TestMarkerCreationCrash: a crash during the first commit on an empty
// image — header, records and commit record in one write — can leave
// any prefix of that write, with or without the zero padding extension
// it made first. Each such store recovers epoch 0 with an empty image,
// drops the torn bytes, and takes the next commit from the file's start
// again (header included); so does one where nothing landed, or only
// the padding.
func TestMarkerCreationCrash(t *testing.T) {
	im := &ImageFile{}
	im.WriteLine(1, 1)
	first := bytes.Clone(im.batch(1))
	for n := 0; n < 2*len(first); n++ {
		dir := t.TempDir()
		landed := first[:n%len(first)]
		if n >= len(first) {
			landed = append(bytes.Clone(landed), make([]byte, imageIOBytes-len(landed))...)
		}
		torn := len(sealedPart(landed))
		img, info, err := recoverImage(t, dir, landed)
		if err != nil || !info.Marker.AtMost(0) || img.Len() != 0 || info.ImageTornBytes != uint64(torn) ||
			info.ImageTornBytes+info.ImagePadBytes != uint64(len(landed)) || info.MarkerAt != 0 {
			t.Fatalf("%d bytes landed: marker %d lines %d torn %d padding %d err=%v, want 0 with %d torn",
				len(landed), info.Marker, img.Len(), info.ImageTornBytes, info.ImagePadBytes, err, torn)
		}
		d, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		d.Img.WriteLine(1, 1)
		if err := d.PersistMarker(1); err != nil {
			t.Fatal(err)
		}
		d.Close()
		if raw := readSealed(t, filepath.Join(dir, ImageFileName)); !bytes.Equal(raw, first) {
			t.Fatalf("%d bytes landed: the retried first commit wrote %x, want %x", len(landed), raw, first)
		}
	}
}

// BenchmarkMarkerSet times one durable marker advance with nothing
// staged: a 24-byte commit record appended and fsynced.
func BenchmarkMarkerSet(b *testing.B) {
	d, err := OpenDir(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Mk.Set(mem.EpochID(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}
