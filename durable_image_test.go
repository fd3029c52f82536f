package picl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// imageProbe is a storage.Wrapper that counts the lines a store's image
// is handed.
type imageProbe struct{ lines int }

func (p *imageProbe) WrapLog(l storage.LogStore) storage.LogStore { return l }
func (p *imageProbe) WrapImage(im storage.ImageStore) storage.ImageStore {
	return &probedImage{im, p}
}
func (p *imageProbe) WrapMarker(mk storage.MarkerStore) storage.MarkerStore { return mk }

type probedImage struct {
	storage.ImageStore
	p *imageProbe
}

func (im *probedImage) WriteLine(l mem.LineAddr, w mem.Word) error {
	im.p.lines++
	return im.ImageStore.WriteLine(l, w)
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

// snapshotStore recovers a copy of the live store in dir, the golden
// state of its last commit.
func snapshotStore(t *testing.T, dir string) (mem.EpochID, *mem.Image) {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "snap")
	copyStore(t, dir, snap)
	img, info, err := storage.RecoverDir(snap)
	if err != nil {
		t.Fatal(err)
	}
	return info.Marker, img
}

// recoverWithImage copies the store in src to dst with raw as its image
// and recovers it.
func recoverWithImage(t *testing.T, src, dst string, raw []byte) (*mem.Image, storage.RecoverInfo, error) {
	t.Helper()
	copyStore(t, src, dst)
	if err := os.WriteFile(filepath.Join(dst, storage.ImageFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return storage.RecoverDir(dst)
}

// TestOpenImageTornTailMatrix: a crash can cut a commit's append — its
// line records and the commit record that seals them — at any byte. For
// every such cut, Open drops the torn batch and recovers the previous
// commit bit-exactly: the undo entries synced ahead of the torn records
// roll their lines back. The whole append recovers the commit.
func TestOpenImageTornTailMatrix(t *testing.T) {
	root := t.TempDir()
	base := filepath.Join(root, "store")
	m, err := Open(base, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 24, 700)
	imgPath := filepath.Join(base, storage.ImageFileName)
	synced, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	marker, _ := snapshotStore(t, base)

	// The commit whose append the matrix cuts.
	for i := 0; i < 4; i++ {
		if err := m.Write(uint64(i)*64, 9000+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m.Close()
	full, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < len(synced)+3*24 || !bytes.Equal(full[:len(synced)], synced) {
		t.Fatalf("the commit appended %d bytes to %d, want two records and a commit record or more behind them",
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
		want := func(i int) uint64 { return 700 + uint64(i) }
		if off == len(full) {
			if eid <= uint64(marker) {
				t.Fatalf("whole append: recovered epoch %d, want past %d", eid, marker)
			}
			want = func(i int) uint64 { return map[bool]uint64{true: 9000 + uint64(i), false: 700 + uint64(i)}[i < 4] }
		} else if eid != uint64(marker) {
			t.Fatalf("cut at %d: recovered epoch %d, want the previous commit's %d", off, eid, marker)
		}
		for i := 0; i < 24; i++ {
			if got := img.Read(uint64(i) * 64); got != want(i) {
				t.Fatalf("cut at %d: line %d recovered as %d, want %d", off, i, got, want(i))
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

// TestOpenFinalRecordRot: after several commits and Close, a flipped
// bit anywhere in the image's final record reads as a torn batch, so
// recovery lands on the commit before it with that commit's image
// bit-exact — never on the last epoch with a line silently reverted.
func TestOpenFinalRecordRot(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	var epoch mem.EpochID
	var golden *mem.Image
	for c := 0; c < 5; c++ {
		for i := 0; i < 64; i++ {
			if err := m.Write(uint64((c*29+i*7)%300)*64, uint64(c*1000+i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		epoch, golden = snapshotStore(t, dir)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, storage.ImageFileName))
	if err != nil {
		t.Fatal(err)
	}
	rot := filepath.Join(root, "rot")
	for bit := 0; bit < 24*8; bit++ {
		bad := bytes.Clone(raw)
		bad[len(bad)-24+bit/8] ^= 1 << (bit % 8)
		img, info, err := recoverWithImage(t, dir, rot, bad)
		if err != nil || info.Marker != epoch {
			t.Fatalf("bit %d: recovered epoch %d err=%v, want the previous commit's %d", bit, info.Marker, err, epoch)
		}
		if !img.Equal(golden) {
			t.Fatalf("bit %d: recovered image differs from epoch %d: %v", bit, epoch, img.Diff(golden, 5))
		}
		if bit == 0 {
			re, err := Open(rot, WithSmallCaches())
			if err != nil {
				t.Fatal(err)
			}
			if _, eid := re.Recovered(); eid != uint64(epoch) {
				t.Fatalf("Open over the rotted final record recovered epoch %d, want %d", eid, epoch)
			}
			re.Close()
		}
	}
}

// TestOpenReorderedBatchMatrix: a page cache may write a commit's append
// back out of order. For a batch spanning a 4 KB boundary, every state
// where a later part of it reached the disk and an earlier part is
// zeros or garbage recovers the previous commit bit-exactly.
func TestOpenReorderedBatchMatrix(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 24, 700)
	imgPath := filepath.Join(dir, storage.ImageFileName)
	synced, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	epoch, golden := snapshotStore(t, dir)
	for i := 0; i < 200; i++ {
		if err := m.Write(uint64(i)*64, 5000+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m.Close()
	full, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	page := (len(synced)/4096 + 1) * 4096
	if page >= len(full) {
		t.Fatalf("the batch [%d, %d) does not span a 4 KB boundary", len(synced), len(full))
	}
	var splits []int // bytes of the batch that did not land as written
	for s := 1; s < len(full)-len(synced); s += 23 {
		splits = append(splits, s)
	}
	splits = append(splits, page-len(synced), page-len(synced)+1, page-len(synced)-1)
	dst := filepath.Join(root, "torn")
	for _, split := range splits {
		for _, garbage := range []bool{false, true} {
			bad := bytes.Clone(full)
			for i := len(synced); i < len(synced)+split; i++ {
				bad[i] = 0
				if garbage {
					bad[i] = full[i] ^ 0xA5
				}
			}
			if bytes.Equal(bad, full) {
				continue // the batch holds zeros there: the whole append landed
			}
			img, info, err := recoverWithImage(t, dir, dst, bad)
			if err != nil || info.Marker != epoch {
				t.Fatalf("split %d garbage=%v: recovered epoch %d err=%v, want the previous commit's %d",
					split, garbage, info.Marker, err, epoch)
			}
			if !img.Equal(golden) {
				t.Fatalf("split %d garbage=%v: %v", split, garbage, img.Diff(golden, 5))
			}
			if split == page-len(synced) {
				re, err := Open(dst, WithSmallCaches())
				if err != nil {
					t.Fatalf("split at the page boundary garbage=%v: Open: %v", garbage, err)
				}
				if _, eid := re.Recovered(); eid != uint64(epoch) {
					t.Fatalf("split at the page boundary garbage=%v: Open recovered epoch %d, want %d", garbage, eid, epoch)
				}
				re.Close()
			}
		}
	}
}

// TestOpenImageRotFails: a flipped bit in an image record with a
// sealed batch behind it — the compacted batch's commit record, or any
// bit of a commit's batch that later commits sealed over — fails Open
// with ErrBackend (not ErrTornLog) and leaves the image as it was —
// never a machine seeded with an older line.
func TestOpenImageRotFails(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 24, 100)
	path := filepath.Join(dir, storage.ImageFileName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := m.Write(uint64(i)*64, 500+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bits := []int{(8 + 5) * 8} // the compacted batch's commit record, behind the 8-byte header
	for bit := len(before) * 8; bit < (len(raw)-24)*8; bit++ {
		bits = append(bits, bit) // the last Sync's batch; Close's commit sealed over it
	}
	rot := filepath.Join(root, "rot")
	for _, bit := range bits {
		bad := bytes.Clone(raw)
		bad[bit/8] ^= 1 << (bit % 8)
		copyStore(t, dir, rot)
		rotPath := filepath.Join(rot, storage.ImageFileName)
		if err := os.WriteFile(rotPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(rot)
		if !errors.Is(err, ErrBackend) || !errors.Is(err, storage.ErrCorruptImage) || errors.Is(err, ErrTornLog) {
			t.Fatalf("bit %d: Open over a rotted image = %v, want ErrBackend wrapping ErrCorruptImage", bit, err)
		}
		if after, _ := os.ReadFile(rotPath); !bytes.Equal(after, bad) {
			t.Fatalf("bit %d: the failed Open modified the rotted image", bit)
		}
	}
}

// TestOpenLegacyImageFails: a store whose image has an older layout —
// the headerless one of bare 16-byte records, the version-2 header with
// line records and no commit records, or version 3, whose commit records
// name no log prefix — of any count, fails Open and keeps the image
// byte-identical, and the log beside a version-3 image too.
func TestOpenLegacyImageFails(t *testing.T) {
	v3 := filepath.Join(t.TempDir(), "v3")
	if err := os.MkdirAll(v3, 0o755); err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	img := []byte{'P', 'C', 'L', 'I', 3, 0, 0, 0}
	img = binary.LittleEndian.AppendUint64(img, 7) // line 7 holding 77
	img = binary.LittleEndian.AppendUint64(img, 77)
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img[8:24], castagnoli))
	img = binary.LittleEndian.AppendUint32(img, 0)
	img = binary.LittleEndian.AppendUint64(img, 5) // its version-3 commit record, epoch 5
	img = binary.LittleEndian.AppendUint32(img, 1)
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img[8:32], castagnoli))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img[32:48], castagnoli))
	img = binary.LittleEndian.AppendUint32(img, 0x4C414553)
	log := append(undolog.EncodeSuper(undolog.Super{Version: undolog.SuperVersion, RegionBytes: undolog.DefaultRegionBytes}),
		make([]byte, 100)...) // and a partial tail Open would otherwise drop
	files := map[string][]byte{storage.ImageFileName: img, storage.LogFileName: log}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(v3, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(v3); !errors.Is(err, ErrBackend) || !errors.Is(err, storage.ErrCorruptImage) {
		t.Fatalf("version-3 store: Open = %v, want ErrBackend wrapping ErrCorruptImage", err)
	}
	for name, raw := range files {
		if after, _ := os.ReadFile(filepath.Join(v3, name)); !bytes.Equal(after, raw) {
			t.Fatalf("version-3 store: the failed Open modified %s", name)
		}
	}

	for _, n := range []int{1, 2, 100, -1, -2, -100} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var raw []byte
		if n < 0 { // version 2: header, then 24-byte line records
			raw = []byte{'P', 'C', 'L', 'I', 2, 0, 0, 0}
		}
		for i := 0; i < max(n, -n); i++ {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(i))
			raw = binary.LittleEndian.AppendUint64(raw, uint64(50+i))
			if n < 0 {
				raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(raw[len(raw)-16:], crc32.MakeTable(crc32.Castagnoli)))
				raw = binary.LittleEndian.AppendUint32(raw, 0)
			}
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
// grows by one record per line written back plus the commit record.
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
		if p.lines == 0 || len(after) != len(before)+24*(p.lines+1) {
			t.Fatalf("commit %d: %d lines written back grew the image %d -> %d bytes, want 24 per line and 24 more",
				c, p.lines, len(before), len(after))
		}
		if !bytes.Equal(after[:len(before)], before) {
			t.Fatalf("commit %d rewrote bytes below the image's pre-commit size", c)
		}
	}
}

// TestOpenUnsyncedLogMatrix: undo blocks are appended unsynced, and a
// page cache may write them back in any shape and order. The store holds
// an ACS-gap commit whose batch carries evictions of a newer epoch, whose
// undo entries lie in the log prefix the commit names, then three blocks
// appended after that commit's log sync. The session overwrote a longer
// log of an earlier session in place, so a block that never reached the
// disk can leave the earlier session's block there: stale, whole and
// CRC-valid. Every combination of those blocks landing whole, stale, as
// zeros, as garbage or torn reopens to the commit's epoch bit-exactly; a
// bad block inside the named prefix fails Open with ErrTornLog.
func TestOpenUnsyncedLogMatrix(t *testing.T) {
	const lines = 1024
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	opts := []Option{WithSmallCaches(), WithConfig(Config{ACSGap: 1, BufferEntries: 4})}
	m, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ { // the earlier session
		for i := uint64(0); i < lines; i++ {
			if err := m.Write(i*64, e*10+i); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CommitEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, storage.LogFileName)
	old, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w := &fsyncLog{}
	m, err = Open(dir, append(opts, WithStoreWrapper(w))...)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 2; e++ {
		for i := uint64(0); i < lines; i++ {
			if err := m.Write(i*64, e*1000+i); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CommitEpoch(); err != nil { // the second commits epoch 1
			t.Fatal(err)
		}
	}
	// The session's blocks start at block 0, and the commit synced every
	// block appended so far.
	named := w.blocks
	prefix := undolog.SuperBytes + named*undolog.BlockBytes
	for i := uint64(0); w.blocks < named+3; i++ {
		if i == lines {
			t.Fatal("epoch 3 appended fewer than three undo blocks")
		}
		if err := m.Write(i*64, 3000+i); err != nil {
			t.Fatal(err)
		}
	}
	m.Crash()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) < prefix+3*undolog.BlockBytes || len(full) != len(old) {
		t.Fatalf("the earlier session's log holds %d bytes, this one %d over a %d-byte prefix: want the earlier one longer, overwritten in place",
			len(old), len(full), prefix)
	}
	check := func(what string, d string) {
		t.Helper()
		re, err := Open(d, WithSmallCaches())
		if err != nil {
			t.Fatalf("%s: Open: %v", what, err)
		}
		defer re.Close()
		img, eid := re.Recovered()
		if eid != 1 || img.Lines() != lines {
			t.Fatalf("%s: recovered epoch %d with %d lines, want epoch 1 with %d", what, eid, img.Lines(), lines)
		}
		for i := uint64(0); i < lines; i++ {
			if got := img.Read(i * 64); got != 1000+i {
				t.Fatalf("%s: line %d recovered as %d, want %d", what, i, got, 1000+i)
			}
		}
	}

	// The image alone is not epoch 1: the commit's batch carries
	// epoch-2 evictions that only the named prefix's undo entries roll
	// back.
	im, err := storage.OpenImage(filepath.Join(dir, storage.ImageFileName))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := im.Load()
	im.Close()
	if err != nil {
		t.Fatal(err)
	}
	newer := 0
	for i := 0; i < lines; i++ {
		if raw.Read(mem.LineAddr(i)) != mem.Word(1000+i) {
			newer++
		}
	}
	if newer == 0 {
		t.Fatal("the commit's batch holds no line newer than its epoch")
	}

	for b := 0; b < 3; b++ {
		at := prefix + b*undolog.BlockBytes
		stale := old[at : at+undolog.BlockBytes]
		if undolog.CheckBlock(stale) != nil || bytes.Equal(stale, full[at:at+undolog.BlockBytes]) {
			t.Fatalf("block %d past the prefix: the earlier session's is not a valid block other than this session's", named+b)
		}
	}
	dst := filepath.Join(root, "cut")
	outcomes := []string{"whole", "zeros", "garbage", "torn", "stale"}
	for combo := 0; combo < 125; combo++ {
		log := bytes.Clone(full[:prefix])
		var what []string
		for b, c := 0, combo; b < 3; b, c = b+1, c/5 {
			at := prefix + b*undolog.BlockBytes
			landed := bytes.Clone(full[at : at+undolog.BlockBytes])
			switch c % 5 {
			case 1:
				clear(landed)
			case 2:
				for i := range landed {
					landed[i] ^= 0xA5
				}
			case 3:
				clear(landed[700+b*300:])
				if b == 2 {
					landed = landed[:700+b*300] // the file ends mid-block
				}
			case 4:
				copy(landed, old[at:])
			}
			log = append(log, landed...)
			what = append(what, outcomes[c%5])
		}
		copyStore(t, dir, dst)
		if err := os.WriteFile(filepath.Join(dst, storage.LogFileName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		check(strings.Join(what, "/"), dst)
	}

	// Rot in the prefix, its final block included, is never taken for
	// an unsynced block.
	for b := named - 1; b >= 0; b -= 1 + b/4 {
		bad := bytes.Clone(full)
		bad[undolog.SuperBytes+b*undolog.BlockBytes+undolog.BlockBytes/2] ^= 0x10
		copyStore(t, dir, dst)
		if err := os.WriteFile(filepath.Join(dst, storage.LogFileName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dst, WithSmallCaches()); !errors.Is(err, ErrTornLog) {
			t.Fatalf("rot in block %d of the %d-block named prefix: Open = %v, want ErrTornLog", b, named, err)
		}
	}
}
