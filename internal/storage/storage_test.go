package storage

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// fixtureLog builds a deterministic log: `blocks` full blocks, block i
// carrying entries valid exactly for epoch i ([i, i+1)).
func fixtureLog(blocks int) *undolog.Log {
	l := undolog.NewLog(1 << 20)
	for b := 0; b < blocks; b++ {
		entries := make([]undolog.Entry, undolog.EntriesPerBlock)
		for i := range entries {
			entries[i] = undolog.Entry{
				Line:      mem.LineAddr(b*undolog.EntriesPerBlock + i),
				ValidFrom: mem.EpochID(b),
				ValidTill: mem.EpochID(b + 1),
				Old:       mem.PayloadFor(mem.LineAddr(i), mem.EpochID(b), uint64(b)),
			}
		}
		l.AppendBlock(entries)
	}
	return l
}

// goldenRegionSHA pins the simulated backend's durable byte
// representation (superblock + blocks for fixtureLog(4)). The format is
// load-bearing: real on-disk logs carry these bytes, so any change here
// must bump undolog.SuperVersion deliberately.
const goldenRegionSHA = "d473b861fe0fe70897c2963ec1648ba050b019a3af64ed15a115c1613b148fa8"

func TestGoldenRegionBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := fixtureLog(4).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != goldenRegionSHA {
		t.Fatalf("durable region digest %s, want committed %s (format change? bump SuperVersion)", got, goldenRegionSHA)
	}
}

// openBackends returns one of each Backend implementation, both empty
// with the same geometry.
func openBackends(t *testing.T, super undolog.Super) map[string]Backend {
	t.Helper()
	lf, err := OpenFile(filepath.Join(t.TempDir(), "undo.log"), super.RegionBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lf.Close() })
	return map[string]Backend{"mem": NewMem(super), "file": lf}
}

// TestBackendByteIdentity is the tentpole contract: dumping the same
// log through the simulated backend and the file backend yields bytes
// identical to each other and to Log.WriteTo — the in-image
// representation and the on-disk file are the same format.
func TestBackendByteIdentity(t *testing.T) {
	l := fixtureLog(5)
	var want bytes.Buffer
	if _, err := l.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	for name, b := range openBackends(t, l.Super()) {
		if err := DumpLog(l, b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := b.ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: backend bytes differ from WriteTo (%d vs %d bytes)", name, len(got), want.Len())
		}
		if b.Blocks() != l.Blocks() {
			t.Fatalf("%s: blocks = %d, want %d", name, b.Blocks(), l.Blocks())
		}
	}
}

// TestBackendContract exercises the shared Backend semantics on both
// implementations: append/read round trip, truncate, and size checks.
func TestBackendContract(t *testing.T) {
	l := fixtureLog(3)
	var raws [][]byte
	l.EachBlock(func(b undolog.Block) error {
		raw, err := undolog.EncodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
		return nil
	})
	for name, b := range openBackends(t, undolog.Super{RegionBytes: 1 << 20}) {
		if err := b.AppendBlock(make([]byte, 100)); err == nil {
			t.Fatalf("%s: undersized block accepted", name)
		}
		for _, raw := range raws {
			if err := b.AppendBlock(raw); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := b.Sync(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Truncate(5); err != nil {
			t.Fatalf("%s: truncate past end: %v", name, err)
		}
		if b.Blocks() != 3 {
			t.Fatalf("%s: truncate past end moved the watermark to %d", name, b.Blocks())
		}
		if err := b.Truncate(1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := b.ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != undolog.SuperBytes+undolog.BlockBytes {
			t.Fatalf("%s: %d bytes after truncate", name, len(got))
		}
		rl, read, err := undolog.ReadLog(bytes.NewReader(got), 0)
		if err != nil || read != 1 || rl.Blocks() != 1 {
			t.Fatalf("%s: re-read %d blocks err=%v", name, read, err)
		}
	}
}

// TestMemHonorsGCPrefix: a Mem created from a GC'd log's superblock
// numbers blocks from the start index, and refuses truncation below it.
func TestMemHonorsGCPrefix(t *testing.T) {
	m := NewMem(undolog.Super{RegionBytes: 1 << 20, Start: 7})
	if m.Blocks() != 7 {
		t.Fatalf("blocks = %d, want the GC'd prefix 7", m.Blocks())
	}
	if err := m.Truncate(3); err == nil {
		t.Fatal("truncate below GC'd prefix accepted")
	}
	raw, _ := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 1, ValidFrom: 8, ValidTill: 9, Old: 42}},
		MaxValidTill: 9,
	})
	if err := m.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	all, _ := m.ReadAll()
	rl, read, err := undolog.ReadLog(bytes.NewReader(all), 0)
	if err != nil || read != 1 || rl.Start() != 7 || rl.Blocks() != 8 {
		t.Fatalf("read=%d start=%d blocks=%d err=%v", read, rl.Start(), rl.Blocks(), err)
	}
}

// TestFileReopen: blocks survive close/reopen; the watermark and bytes
// are identical to what was written.
func TestFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "undo.log")
	l := fixtureLog(4)
	lf, err := OpenFile(path, l.Super().RegionBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := DumpLog(l, lf); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Blocks() != 4 || re.TornBytes() != 0 {
		t.Fatalf("reopen: blocks=%d torn=%d", re.Blocks(), re.TornBytes())
	}
	got, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	l.WriteTo(&want)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("reopened file bytes differ")
	}
}

// TestOpenFileRejectsCorruptSuper: garbage where the superblock belongs
// is a hard, identifiable error.
func TestOpenFileRejectsCorruptSuper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "undo.log")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 500), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 0); !errors.Is(err, undolog.ErrCorruptSuper) {
		t.Fatalf("err = %v, want ErrCorruptSuper", err)
	}
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 0); !errors.Is(err, undolog.ErrCorruptSuper) {
		t.Fatalf("short file err = %v, want ErrCorruptSuper", err)
	}
}

// TestMarker: a fresh marker reads epoch 0; each Set is read back by
// Get and by a second handle on the file; Set writes the same 8 KB file
// in place (one inode throughout); corruption of both slots is an error.
func TestMarker(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "marker")
	mk, err := OpenMarker(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mk.Close()
	if e, err := mk.Get(); err != nil || !e.AtMost(0) || mk.Torn() {
		t.Fatalf("fresh marker = %d torn=%v err=%v, want 0", e, mk.Torn(), err)
	}
	created, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	prev := mem.EpochID(0)
	for k, e := range []mem.EpochID{1, 2, 5, 9} {
		if err := mk.Set(e); err != nil {
			t.Fatal(err)
		}
		got, err := mk.Get()
		if err != nil || got != e || mk.Torn() {
			t.Fatalf("get after set(%d) = %d torn=%v err=%v", e, got, mk.Torn(), err)
		}
		// The other slot still holds the previous marker: Set never
		// overwrites the newest one.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		now, before := encodeMarker(e, uint64(k+1)), encodeMarker(prev, uint64(k))
		s0, s1 := raw[:markerRecBytes], raw[markerSlotStride:markerSlotStride+markerRecBytes]
		if !(bytes.Equal(s0, now[:]) && bytes.Equal(s1, before[:])) &&
			!(bytes.Equal(s1, now[:]) && bytes.Equal(s0, before[:])) {
			t.Fatalf("after set(%d) the slots are %x and %x, want set(%d) beside set(%d)", e, s0, s1, e, prev)
		}
		prev = e
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(created, fi) || fi.Size() != markerFileBytes {
		t.Fatalf("marker replaced or resized by Set: same=%v size=%d", os.SameFile(created, fi), fi.Size())
	}
	mk2, err := OpenMarker(path)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := mk2.Get(); err != nil || e != 9 {
		t.Fatalf("second handle reads %d err=%v, want 9", e, err)
	}
	mk2.Close()
	// Both slots corrupt is reported, never silently read.
	if err := os.WriteFile(path, bytes.Repeat([]byte{9}, markerFileBytes), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mk.Get(); err == nil {
		t.Fatal("corrupt marker read without error")
	}
}

// TestDirRecoverCycle drives the full durable protocol by hand — image
// writes, covering undo entries, marker — and checks recovery patches
// exactly the uncommitted suffix away.
func TestDirRecoverCycle(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1 state: lines 1..8 hold epoch-1 payloads, persisted.
	want := mem.NewImage()
	for i := 1; i <= 8; i++ {
		w := mem.PayloadFor(mem.LineAddr(i), 1, 0)
		if err := d.Img.WriteLine(mem.LineAddr(i), w); err != nil {
			t.Fatal(err)
		}
		want.Write(mem.LineAddr(i), w)
	}
	if err := d.PersistMarker(1); err != nil {
		t.Fatal(err)
	}

	// Epoch 2 in flight: lines 1..4 overwritten in place, covered by
	// durable undo entries valid for epoch 1 — then the crash.
	var entries []undolog.Entry
	for i := 1; i <= 4; i++ {
		entries = append(entries, undolog.Entry{
			Line: mem.LineAddr(i), ValidFrom: 1, ValidTill: 2,
			Old: want.Read(mem.LineAddr(i)),
		})
	}
	var maxTill mem.EpochID
	for _, e := range entries {
		if e.ValidTill.After(maxTill) {
			maxTill = e.ValidTill
		}
	}
	raw, err := undolog.EncodeBlock(undolog.Block{Entries: entries, MaxValidTill: maxTill})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Log.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	if err := d.Log.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := d.Img.WriteLine(mem.LineAddr(i), mem.PayloadFor(mem.LineAddr(i), 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	img, info, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Marker != 1 || info.BlocksRead != 1 || info.Applied != 4 {
		t.Fatalf("info = %+v", info)
	}
	if !img.Equal(want) {
		t.Fatalf("recovered image differs: %v", img.Diff(want, 5))
	}

	// Reset compacts to the recovered baseline: empty log, marker 0,
	// identical content.
	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Reset(img); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	img2, info2, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Marker.AtMost(0) || info2.BlocksRead != 0 {
		t.Fatalf("post-reset info = %+v", info2)
	}
	if !img2.Equal(want) {
		t.Fatalf("post-reset image differs: %v", img2.Diff(want, 5))
	}
}

// TestRecoverEmptyDir: a store that never existed recovers to the
// pristine empty state.
func TestRecoverEmptyDir(t *testing.T) {
	img, info, err := RecoverDir(filepath.Join(t.TempDir(), "fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if img.Len() != 0 || !info.Marker.AtMost(0) || info.BlocksRead != 0 {
		t.Fatalf("fresh store: lines=%d info=%+v", img.Len(), info)
	}
}

// TestFileErrorPaths: a File whose descriptor has died (the on-disk
// analog of a controller failure) reports errors from every dirtying
// operation instead of losing writes silently.
func TestFileErrorPaths(t *testing.T) {
	raw, err := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 1, ValidTill: 1, Old: 42}},
		MaxValidTill: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Dead descriptor with a dirty buffer: Sync, AppendBlock, and Close
	// must all fail — Close in particular must not report success while
	// the appended block was never fsynced.
	lf, err := OpenFile(filepath.Join(t.TempDir(), "undo.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	lf.f.Close() // kill the fd out from under the File
	if err := lf.Sync(); err == nil {
		t.Fatal("Sync on a dead descriptor reported success with dirty data")
	}
	if err := lf.AppendBlock(raw); err == nil {
		t.Fatal("AppendBlock on a dead descriptor reported success")
	}
	if err := lf.Close(); err == nil {
		t.Fatal("Close swallowed the failed final sync")
	}

	// Append after a clean Close: the file is gone, the append must say so.
	lf2, err := OpenFile(filepath.Join(t.TempDir(), "undo.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lf2.AppendBlock(raw); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after Close = %v, want ErrClosed", err)
	}

	// ReadAll over a region the filesystem no longer holds (out-of-band
	// truncation below the block watermark) is an error, never a short
	// or zero-padded result.
	path := filepath.Join(t.TempDir(), "undo.log")
	lf3, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf3.Close()
	for i := 0; i < 3; i++ {
		if err := lf3.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := lf3.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, undolog.SuperBytes+undolog.BlockBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := lf3.ReadAll(); err == nil {
		t.Fatal("ReadAll past the file's real size reported success")
	}
}

// TestRecoverSweepsStaleTmp: the crash-between-tmp-and-rename artifact
// of Reset's image compaction — a stale image.dat.tmp — is removed by
// Recover before the directory is reused. A torn marker Set leaves no
// file behind: Recover reads the other slot and reports the tear.
func TestRecoverSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PersistMarker(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Mk.(*Marker).TearSet(9, 12, false); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "image.dat.tmp")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, info, err := d.Recover(); err != nil {
		t.Fatal(err)
	} else if info.Marker != 3 || !info.MarkerTorn {
		t.Fatalf("recovered marker %d torn=%v, want 3 with the tear reported", info.Marker, info.MarkerTorn)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("tmp files survive Recover: %v", tmps)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// passWrapper is the identity Wrapper: it interposes nothing but tags
// the stores so the test can see Wrap routed every component through it.
type passWrapper struct{ logs, imgs, mks int }

func (p *passWrapper) WrapLog(l LogStore) LogStore           { p.logs++; return l }
func (p *passWrapper) WrapImage(im ImageStore) ImageStore    { p.imgs++; return im }
func (p *passWrapper) WrapMarker(mk MarkerStore) MarkerStore { p.mks++; return mk }

// TestDirWrapAndSync: Wrap interposes on all three components (and
// again on the fresh components a Reset opens); a staged line reaches
// the image file through PersistMarker; Path reports the directory.
func TestDirWrapAndSync(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Path() != dir {
		t.Fatalf("Path() = %q, want %q", d.Path(), dir)
	}
	w := &passWrapper{}
	d.Wrap(nil) // no-op, must not clear anything
	d.Wrap(w)
	if w.logs != 1 || w.imgs != 1 || w.mks != 1 {
		t.Fatalf("wrap counts = %+v, want 1 each", *w)
	}
	if err := d.Img.WriteLine(1, 42); err != nil {
		t.Fatal(err)
	}
	if err := d.PersistMarker(1); err != nil {
		t.Fatal(err)
	}
	if img, info, err := d.Recover(); err != nil || info.Marker != 1 || img.Read(1) != 42 {
		t.Fatalf("recovered marker %d line 1 = %d (err %v), want marker 1 and 42", info.Marker, img.Read(1), err)
	}
	if err := d.Reset(mem.NewImage()); err != nil {
		t.Fatal(err)
	}
	// Reset reopens the image and log (re-wrapped); the marker file is
	// never recreated, so the already-wrapped component persists.
	if w.logs != 2 || w.imgs != 2 || w.mks != 1 {
		t.Fatalf("Reset did not re-wrap: %+v", *w)
	}
}

// orderWrapper records, in order, the Reset steps that reach the
// components it wraps: a log (re)opened, a directory fsync, a marker Set.
type orderWrapper struct{ events []string }

func (w *orderWrapper) WrapLog(l LogStore) LogStore {
	w.events = append(w.events, "log")
	return l
}
func (w *orderWrapper) WrapImage(im ImageStore) ImageStore { return im }
func (w *orderWrapper) WrapMarker(mk MarkerStore) MarkerStore {
	return &orderMarker{mk, w}
}

type orderMarker struct {
	MarkerStore
	w *orderWrapper
}

func (mk *orderMarker) Set(e mem.EpochID) error {
	mk.w.events = append(mk.w.events, fmt.Sprintf("set %d", e))
	return mk.MarkerStore.Set(e)
}

func (mk *orderMarker) SyncDir() error {
	mk.w.events = append(mk.w.events, "syncdir")
	return mk.MarkerStore.SyncDir()
}

// TestResetOrder: Reset fsyncs the directory once after the image
// rename and once after recreating the log — before the marker enters
// the new numbering — and then writes epoch 0 into both marker slots.
func TestResetOrder(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := &orderWrapper{}
	d.Wrap(w)
	w.events = nil
	if err := d.Reset(mem.NewImage()); err != nil {
		t.Fatal(err)
	}
	want := []string{"syncdir", "log", "syncdir", "set 0", "set 0"}
	if fmt.Sprint(w.events) != fmt.Sprint(want) {
		t.Fatalf("Reset steps = %v, want %v", w.events, want)
	}
}

// TestMemClose: the simulated backend's Close is a successful no-op —
// the region lives in the NVM image, not behind a descriptor.
func TestMemClose(t *testing.T) {
	if err := NewMem(undolog.Super{RegionBytes: 1 << 20}).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileTearTail: a torn append leaves a partial tail block that does
// not advance the watermark, and the next open repairs it, reporting
// the torn byte count.
func TestFileTearTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "undo.log")
	lf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 1, ValidTill: 1, Old: 7}},
		MaxValidTill: 1,
	})
	if err := lf.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	if err := lf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := lf.TearTail(raw, 0); err == nil {
		t.Fatal("empty tear accepted")
	}
	if err := lf.TearTail(raw, len(raw)); err == nil {
		t.Fatal("full-block tear accepted (that is an append, not a tear)")
	}
	if err := lf.TearTail(raw, 100); err != nil {
		t.Fatal(err)
	}
	if lf.Blocks() != 1 {
		t.Fatalf("tear advanced the watermark to %d", lf.Blocks())
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Blocks() != 1 || re.TornBytes() != 100 {
		t.Fatalf("reopen after tear: blocks=%d torn=%d, want 1 and 100", re.Blocks(), re.TornBytes())
	}
}

// TestFileRotBit: a flipped bit in a stored block is out of TearTail's
// reach — ReadLog must reject the block as corrupt, and out-of-range
// rot targets are refused.
func TestFileRotBit(t *testing.T) {
	lf, err := OpenFile(filepath.Join(t.TempDir(), "undo.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	raw, _ := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 1, ValidTill: 1, Old: 7}},
		MaxValidTill: 1,
	})
	for i := 0; i < 2; i++ {
		if err := lf.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := lf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := lf.RotBit(2, 0); err == nil {
		t.Fatal("rot past the watermark accepted")
	}
	if err := lf.RotBit(0, 12345); err != nil {
		t.Fatal(err)
	}
	all, err := lf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := undolog.ReadLog(bytes.NewReader(all), 0); !errors.Is(err, undolog.ErrCorruptBlock) {
		t.Fatalf("rotted block read back as %v, want ErrCorruptBlock", err)
	}
}

// TestMarkerTearSet: TearSet leaves the slot holding the newest marker
// byte-identical, Get reports the tear and returns that marker, and the
// next Set overwrites the torn slot.
func TestMarkerTearSet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "marker")
	mk, err := OpenMarker(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mk.Close()
	if err := mk.Set(4); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, markerRecBytes} {
		if err := mk.TearSet(9, n, false); err == nil {
			t.Fatalf("TearSet accepted a %d-byte tear", n)
		}
	}
	if err := mk.TearSet(9, 10, true); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Set(4) went to slot 1 (the fresh layout's newest is slot 0).
	if !bytes.Equal(before[markerSlotStride:], after[markerSlotStride:]) {
		t.Fatal("TearSet touched the slot holding the newest marker")
	}
	if e, err := mk.Get(); err != nil || e != 4 || !mk.Torn() {
		t.Fatalf("marker after torn set = %d torn=%v err=%v, want 4 torn", e, mk.Torn(), err)
	}
	if err := mk.Set(5); err != nil {
		t.Fatal(err)
	}
	if e, err := mk.Get(); err != nil || e != 5 || mk.Torn() {
		t.Fatalf("marker after set over the tear = %d torn=%v err=%v, want 5", e, mk.Torn(), err)
	}
}
