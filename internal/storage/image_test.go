package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
	img       *mem.Image
	torn, pad uint64
	epoch     mem.EpochID
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
	return opened{img, im.TornBytes(), im.pad, im.epoch}, err
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// sealedPart returns raw up to its last non-zero byte: on an image with
// nothing torn, its sealed end, the zero padding behind it cut off.
func sealedPart(raw []byte) []byte { return raw[:lastNonZero(raw)+1] }

// readSealed reads the image at path up to its sealed end, checking
// that nothing but zero padding follows.
func readSealed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sealedPart(raw)
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
	full := readSealed(t, path)
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
	if size := len(readSealed(t, path)); size != imageHeaderBytes+202*imageRecBytes {
		t.Fatalf("file is sealed to byte %d after two commits, want header + 200 line records + 2 commit records", size)
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

	raw := readSealed(t, path)
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	o, err = loadImage(t, path)
	if err != nil || o.torn != uint64(len(sealedPart(raw[:len(raw)-7]))-(imageHeaderBytes+151*imageRecBytes)) || o.epoch != 3 {
		t.Fatalf("after a torn commit record: epoch %d torn=%d err=%v, want epoch 3 and the batch dropped", o.epoch, o.torn, err)
	}
	if want := replay(writes[:150]); !o.img.Equal(want) {
		t.Fatalf("after a torn commit record: %v", o.img.Diff(want, 5))
	}
}

// TestImageTornTailMatrix cuts the image at every byte offset of two
// commits, the first into an empty file (header included), and again
// with zero padding behind the cut: open must drop the non-zero bytes
// behind the last whole commit record, with the padding behind them,
// report them, and load exactly the batches in front of the cut at
// their epoch; a cut with nothing but padding behind the sealed end
// keeps the file as it is.
func TestImageTornTailMatrix(t *testing.T) {
	dir := t.TempDir()
	writes, full, first := twoCommits(t, filepath.Join(dir, "image.dat"))
	cut := filepath.Join(dir, "cut.dat")
	for off := 0; off <= len(full); off++ {
		for _, pad := range []int{0, 100} {
			raw := append(bytes.Clone(full[:off]), make([]byte, pad)...)
			if err := os.WriteFile(cut, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			keep, sealed, epoch := 0, 0, mem.EpochID(0)
			switch {
			case off == len(full):
				keep, sealed, epoch = off, 7, 5
			case off >= first:
				keep, sealed, epoch = first, 3, 4
			}
			torn := len(sealedPart(full[keep:off])) // the non-zero bytes past the sealed end
			size := keep
			if torn == 0 {
				size = len(raw) // padding alone stays
			}
			o, err := loadImage(t, cut)
			if err != nil {
				t.Fatalf("cut at %d pad %d: %v", off, pad, err)
			}
			if o.torn != uint64(torn) || o.pad != uint64(len(raw)-keep-torn) || fileSize(t, cut) != int64(size) || o.epoch != epoch {
				t.Fatalf("cut at %d pad %d: torn=%d padding %d size=%d epoch %d, want torn %d padding %d size %d epoch %d",
					off, pad, o.torn, o.pad, fileSize(t, cut), o.epoch, torn, len(raw)-keep-torn, size, epoch)
			}
			if want := replay(writes[:sealed]); !o.img.Equal(want) {
				t.Fatalf("cut at %d pad %d: %v", off, pad, o.img.Diff(want, 5))
			}
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

// TestImageRotPaddedUntouched: a padded image with rot in a batch that
// has a sealed batch behind it fails recovery with ErrCorruptImage, and
// the failed open leaves the file byte-identical: its zero padding is
// neither torn nor truncated, so nothing is written before Load finds
// the rot.
func TestImageRotPaddedUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ImageFileName)
	_, _, first := twoCommits(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != imageIOBytes || len(sealedPart(raw)) == len(raw) {
		t.Fatalf("two commits left %d bytes sealed to %d, want them padded to %d", len(raw), len(sealedPart(raw)), imageIOBytes)
	}
	for _, at := range []int{imageHeaderBytes + 5, first - 1} {
		bad := bytes.Clone(raw)
		bad[at] ^= 0x08
		if _, _, err := recoverImage(t, dir, bad); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("rot at byte %d of a padded image: recover = %v, want ErrCorruptImage", at, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
			t.Fatalf("rot at byte %d: the failed recovery changed the padded image (%d -> %d bytes)", at, len(bad), len(after))
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
	if sealed := len(readSealed(t, path)); im.LogBlocks() != 7 || sealed != imageHeaderBytes+2*imageRecBytes {
		t.Fatalf("commit names %d log blocks in a file sealed to byte %d, want 7 to %d",
			im.LogBlocks(), sealed, imageHeaderBytes+2*imageRecBytes)
	}
}

// TestResetWritesImageFormat: an image holding more than two records
// per live line is compacted — the header, one record per live line and
// a commit record sealing them under the recovered epoch — then epoch 0
// is sealed twice; a commit after it appends behind them.
func TestResetWritesImageFormat(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := mem.NewImage()
	for pass := 3; pass >= 1; pass-- { // 30 line records, the last pass's values win
		for i := 1; i <= 10; i++ {
			if err := d.Img.WriteLine(mem.LineAddr(i*3), mem.Word(i*pass)); err != nil {
				t.Fatal(err)
			}
			want.Write(mem.LineAddr(i*3), mem.Word(i*pass))
		}
	}
	if err := d.PersistMarker(7); err != nil {
		t.Fatal(err)
	}
	if _, info, err := d.Recover(); err != nil || info.Records != 31 || info.Lines != 10 {
		t.Fatalf("recover: info %+v, err %v; want 31 records for 10 lines", info, err)
	}
	if err := d.Reset(); err != nil {
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
	after := readSealed(t, path)
	if len(after) != len(raw)+2*imageRecBytes || !bytes.Equal(after[:len(raw)], raw) {
		t.Fatalf("commit after the compaction rewrote or skipped bytes: sealed to byte %d -> %d", len(raw), len(after))
	}
	want.Write(3, 99)
	img, err := d.Img.Load()
	if err != nil || !img.Equal(want) {
		t.Fatalf("load after compaction and commit: err %v", err)
	}
}

// TestLoadShapes: Load replays the three record orders an image file
// holds into the image its records build one at a time — the 64-record
// page runs of a populated store, a random-order tail that returns
// lines to zero (dropping whole pages, then writing some back), and the
// compacted file of both, whose records compaction writes in ascending
// line order — and holds every line a plain map of the writes holds.
func TestLoadShapes(t *testing.T) {
	dir := t.TempDir()
	const pages = 8
	var runs []lineWrite
	for i := range pages * mem.LinesPerPage {
		l := mem.LineAddr(i)
		runs = append(runs, lineWrite{l, mem.PayloadFor(l, 1, 0)})
	}
	rng := rand.New(rand.NewSource(5))
	var tail []lineWrite
	for i := range 600 {
		l := mem.LineAddr(rng.Intn((pages + 1) * mem.LinesPerPage)) // a page past the runs too
		w := mem.PayloadFor(l, 2, uint64(i))
		if rng.Intn(3) == 0 {
			w = 0
		}
		tail = append(tail, lineWrite{l, w})
	}
	page2 := mem.PageAddr(2).FirstLine()
	for i := range mem.LinesPerPage {
		tail = append(tail, lineWrite{page2 + mem.LineAddr(i), 0})
	}
	tail = append(tail, lineWrite{page2 + 9, 77})

	write := func(name string, writes []lineWrite, batch int) string {
		path := filepath.Join(dir, name)
		for b := 0; b < len(writes); b += batch {
			commitImage(t, path, writes[b:min(b+batch, len(writes))], 1)
		}
		return path
	}
	check := func(what string, im *ImageFile, writes []lineWrite) {
		t.Helper()
		got, err := im.Load()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := replay(writes); !got.Equal(want) {
			t.Fatalf("%s: Load differs from the record-by-record image at %v", what, got.Diff(want, 4))
		}
		ref := map[mem.LineAddr]mem.Word{}
		for _, x := range writes {
			ref[x.l] = x.w
		}
		n := 0
		for l, w := range ref {
			if got.Read(l) != w {
				t.Fatalf("%s: line %v = %d, want %d", what, l, got.Read(l), w)
			}
			if w != 0 {
				n++
			}
		}
		if got.Len() != n {
			t.Fatalf("%s: Load holds %d lines, want %d", what, got.Len(), n)
		}
	}
	open := func(path string) *ImageFile {
		im, err := OpenImage(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { im.Close() })
		return im
	}
	check("page runs", open(write("runs.dat", runs, 2*mem.LinesPerPage)), runs)
	all := append(slices.Clone(runs), tail...)
	tailed := open(write("tail.dat", all, 50))
	check("random tail", tailed, all)
	img, err := tailed.Load()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "compacted.dat"))
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := writeCompacted(f, img, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer compacted.Close()
	check("compacted", compacted, all)
}
