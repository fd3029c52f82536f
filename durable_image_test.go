package picl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
	"picl/internal/storage"
)

// imageProbe is a storage.Wrapper that counts the lines a store's image
// is handed and, once cutMarker is set, fails every marker Set with a
// power cut: the commit's image and log syncs land, its marker never
// does.
type imageProbe struct {
	lines     int
	cutMarker bool
}

func (p *imageProbe) WrapLog(l storage.LogStore) storage.LogStore { return l }
func (p *imageProbe) WrapImage(im storage.ImageStore) storage.ImageStore {
	return &probedImage{im, p}
}
func (p *imageProbe) WrapMarker(mk storage.MarkerStore) storage.MarkerStore {
	return &probedMarker{mk, p}
}

type probedImage struct {
	storage.ImageStore
	p *imageProbe
}

func (im *probedImage) WriteLine(l mem.LineAddr, w mem.Word) error {
	im.p.lines++
	return im.ImageStore.WriteLine(l, w)
}

type probedMarker struct {
	storage.MarkerStore
	p *imageProbe
}

func (mk *probedMarker) Set(e mem.EpochID) error {
	if mk.p.cutMarker {
		return fmt.Errorf("%w: marker Set of epoch %d", storage.ErrPowerLost, e)
	}
	return mk.MarkerStore.Set(e)
}

// copyStore copies the regular files of store directory src into a
// fresh directory dst.
func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenImageTornTailMatrix: a crash can cut a commit's image append
// at any byte before its marker lands. For every such cut, Open drops
// the torn tail and recovers the marker's epoch bit-exactly: the undo
// entries synced ahead of the torn records roll their lines back.
func TestOpenImageTornTailMatrix(t *testing.T) {
	root := t.TempDir()
	base := filepath.Join(root, "store")
	p := &imageProbe{}
	m, err := Open(base, WithSmallCaches(), WithStoreWrapper(p))
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 24, 700)
	imgPath := filepath.Join(base, storage.ImageFileName)
	synced, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	pre := filepath.Join(root, "pre")
	copyStore(t, base, pre)
	_, info, err := storage.RecoverDir(pre)
	if err != nil {
		t.Fatal(err)
	}
	marker := uint64(info.Marker)

	// The commit whose image append the matrix cuts: its records land,
	// its marker does not.
	p.cutMarker = true
	for i := 0; i < 4; i++ {
		if err := m.Write(uint64(i)*64, 9000+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Sync()
	if !m.Degraded() {
		t.Fatal("a commit whose marker Set lost power left the machine writable")
	}
	m.Close()
	full, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < len(synced)+2*24 || !bytes.Equal(full[:len(synced)], synced) {
		t.Fatalf("the failed commit appended %d bytes to %d, want two records or more behind them",
			len(full)-len(synced), len(synced))
	}

	cut := filepath.Join(root, "cut")
	for off := len(synced); off <= len(full); off++ {
		copyStore(t, base, cut)
		if err := os.Truncate(filepath.Join(cut, storage.ImageFileName), int64(off)); err != nil {
			t.Fatal(err)
		}
		re, err := Open(cut, WithSmallCaches())
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		img, eid := re.Recovered()
		if eid != marker {
			t.Fatalf("cut at %d: recovered epoch %d, want the marker's %d", off, eid, marker)
		}
		for i := 0; i < 24; i++ {
			if got := img.Read(uint64(i) * 64); got != 700+uint64(i) {
				t.Fatalf("cut at %d: line %d recovered as %d, want %d", off, i, got, 700+i)
			}
		}
		if img.Lines() != 24 {
			t.Fatalf("cut at %d: %d lines recovered, want 24", off, img.Lines())
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenImageRotFails: a flipped bit in an image record with records
// behind it fails Open with ErrBackend (not ErrTornLog) and leaves the
// image as it was — never a machine seeded with an older line.
func TestOpenImageRotFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 24, 100)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storage.ImageFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+5] ^= 0x04 // the first record's word, behind the 8-byte header
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if !errors.Is(err, ErrBackend) || !errors.Is(err, storage.ErrCorruptImage) || errors.Is(err, ErrTornLog) {
		t.Fatalf("Open over a rotted image = %v, want ErrBackend wrapping ErrCorruptImage", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Fatal("the failed Open modified the rotted image")
	}
}

// TestOpenLegacyImageFails: a store whose image has the older
// headerless layout of bare 16-byte records, of any count, fails Open
// and keeps the image byte-identical.
func TestOpenLegacyImageFails(t *testing.T) {
	for _, n := range []int{1, 2, 100} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var raw []byte
		for i := 0; i < n; i++ {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(i))
			raw = binary.LittleEndian.AppendUint64(raw, uint64(50+i))
		}
		path := filepath.Join(dir, storage.ImageFileName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrBackend) || !errors.Is(err, storage.ErrCorruptImage) {
			t.Fatalf("%d legacy records: Open = %v, want ErrBackend wrapping ErrCorruptImage", n, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
			t.Fatalf("%d legacy records: the failed Open modified the image", n)
		}
	}
}

// TestDurableCommitImageAppendOnly: a durable commit only appends to
// the image — no byte below its pre-commit size changes — and the file
// grows by one record per line written back.
func TestDurableCommitImageAppendOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	p := &imageProbe{}
	m, err := Open(dir, WithStoreWrapper(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	path := filepath.Join(dir, storage.ImageFileName)
	line := uint64(1)
	for c := 0; c < 6; c++ {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p.lines = 0
		for i := 0; i < 64; i++ {
			line = line * 6364136223846793005 % (1 << 16)
			if err := m.Write(line*64, uint64(c*64+i)|1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if p.lines == 0 || len(after) != len(before)+24*p.lines {
			t.Fatalf("commit %d: %d lines written back grew the image %d -> %d bytes, want 24 per line",
				c, p.lines, len(before), len(after))
		}
		if !bytes.Equal(after[:len(before)], before) {
			t.Fatalf("commit %d rewrote bytes below the image's pre-commit size", c)
		}
	}
}
