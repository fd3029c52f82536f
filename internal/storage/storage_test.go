package storage

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
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

// TestMarker: a fresh store's marker reads epoch 0 and the store has no
// marker file; each Set appends its staged records and one commit record
// to the same image file, and is read back by Get and by a second
// handle on the store.
func TestMarker(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if e, err := d.Mk.Get(); err != nil || !e.AtMost(0) {
		t.Fatalf("fresh marker = %d err=%v, want 0", e, err)
	}
	path := filepath.Join(dir, ImageFileName)
	created, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range []mem.EpochID{1, 2, 5, 9} {
		for i := 0; i < k; i++ {
			if err := d.Img.WriteLine(mem.LineAddr(i), mem.Word(e)); err != nil {
				t.Fatal(err)
			}
		}
		size := int64(len(readSealed(t, path)))
		if err := d.Mk.Set(e); err != nil {
			t.Fatal(err)
		}
		if got, err := d.Mk.Get(); err != nil || got != e {
			t.Fatalf("get after set(%d) = %d err=%v", e, got, err)
		}
		sealed := int64(len(readSealed(t, path)))
		grew := sealed - size
		if size == 0 {
			grew -= imageHeaderBytes
		}
		if grew != int64(k+1)*imageRecBytes {
			t.Fatalf("set(%d) with %d records staged grew the image by %d bytes", e, k, grew)
		}
		_, info, err := RecoverDir(dir)
		if err != nil || info.Marker != e || info.MarkerAt != sealed-imageRecBytes {
			t.Fatalf("second handle reads %d at %d err=%v, want %d", info.Marker, info.MarkerAt, err, e)
		}
	}
	if fi, err := os.Stat(path); err != nil || !os.SameFile(created, fi) {
		t.Fatalf("image replaced by Set (err %v)", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("store holds %d files, want undo.log and image.dat only", len(ents))
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

	// Epoch 1 state: lines 1..8 hold epoch-1 payloads, persisted by an
	// ACS-gap commit whose batch also carries epoch-2 overwrites of lines
	// 1..4 (evicted early), covered by undo entries valid for epoch 1
	// that the commit's log sync made durable.
	want := mem.NewImage()
	for i := 1; i <= 8; i++ {
		w := mem.PayloadFor(mem.LineAddr(i), 1, 0)
		if err := d.Img.WriteLine(mem.LineAddr(i), w); err != nil {
			t.Fatal(err)
		}
		want.Write(mem.LineAddr(i), w)
	}
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
	for i := 1; i <= 4; i++ {
		if err := d.Img.WriteLine(mem.LineAddr(i), mem.PayloadFor(mem.LineAddr(i), 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PersistMarker(1); err != nil {
		t.Fatal(err)
	}

	// Epoch 2 goes on past the commit: a block appended after the log
	// sync, which no commit names, and a write staged — then the crash.
	if err := d.Log.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	if err := d.Img.WriteLine(5, mem.PayloadFor(5, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	img, info, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Marker != 1 || info.BlocksRead != 1 || info.Applied != 4 || info.TornBytes != undolog.BlockBytes {
		t.Fatalf("info = %+v", info)
	}
	if !img.Equal(want) {
		t.Fatalf("recovered image differs: %v", img.Diff(want, 5))
	}

	// Reset keeps the image — 12 line records and a commit record for 8
	// live lines — and appends the lines the scan changed, ascending,
	// sealed under epoch 1 and naming an empty log prefix, then epoch 0
	// twice. The log stays where it is, both its blocks now stale: the
	// recovery past the crash ignored the one no commit names and cut
	// nothing.
	imgPath, logPath := filepath.Join(dir, ImageFileName), filepath.Join(dir, LogFileName)
	before := readSealed(t, imgPath)
	logBefore, _ := os.ReadFile(logPath)
	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Reset(); err == nil {
		t.Fatal("Reset without a Recover succeeded")
	}
	if _, info, err := d2.Recover(); err != nil || info.Changed != 4 || info.Records != 13 {
		t.Fatalf("recover before reset: info %+v, err %v; want 4 lines changed of 13 records", info, err)
	}
	if err := d2.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	var diff []byte
	for i := 1; i <= 4; i++ {
		diff = appendImageRecord(diff, mem.LineAddr(i), want.Read(mem.LineAddr(i)))
	}
	tail := appendCommitRecord(bytes.Clone(diff), commitRec{epoch: 1, count: 4, sum: crc32.Checksum(diff, castagnoli)})
	tail = appendCommitRecord(appendCommitRecord(tail, commitRec{}), commitRec{})
	after := readSealed(t, imgPath)
	if !bytes.Equal(after, append(before, tail...)) {
		t.Fatalf("reset turned an image sealed to byte %d into one sealed to %d, want it followed by the 4-line diff and two epoch-0 seals", len(before), len(after))
	}
	if logAfter, _ := os.ReadFile(logPath); !bytes.Equal(logAfter, logBefore) {
		t.Fatal("reset rewrote the log")
	}
	img2, info2, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Marker.AtMost(0) || info2.BlocksRead != 0 || info2.Applied != 0 || info2.TornBytes != 2*undolog.BlockBytes {
		t.Fatalf("post-reset info = %+v, want epoch 0, nothing read and both stale blocks ignored", info2)
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
// Recover before the directory is reused. A torn commit leaves no file
// behind: the next open drops the torn batch and reports it.
func TestRecoverSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PersistMarker(3); err != nil {
		t.Fatal(err)
	}
	d.Img.WriteLine(1, 1)
	if _, _, err := d.mk.im.Cut(12, true, false, true); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "image.dat.tmp")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, info, err := RecoverDir(dir); err != nil {
		t.Fatal(err)
	} else if info.Marker != 3 || info.ImageTornBytes != 2*imageRecBytes {
		t.Fatalf("recovered marker %d torn=%d, want 3 with the torn batch reported", info.Marker, info.ImageTornBytes)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("tmp files survive Recover: %v", tmps)
	}
}

// passWrapper is the identity Wrapper: it interposes nothing but tags
// the stores so the test can see Wrap routed every component through it.
type passWrapper struct{ logs, imgs, mks int }

func (p *passWrapper) WrapLog(l LogStore) LogStore           { p.logs++; return l }
func (p *passWrapper) WrapImage(im ImageStore) ImageStore    { p.imgs++; return im }
func (p *passWrapper) WrapMarker(mk MarkerStore) MarkerStore { p.mks++; return mk }

// TestDirWrapAndSync: Wrap interposes on all three components (and
// again on the image a Reset's compaction opens); a staged line reaches
// the image file sealed by PersistMarker's commit; Path reports the
// directory.
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
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	// One line record and a commit record for one live line: Reset keeps
	// the image and the log, and re-wraps neither.
	if w.logs != 1 || w.imgs != 1 || w.mks != 1 {
		t.Fatalf("Reset of a compact store re-wrapped: %+v", *w)
	}
	// Five more records of the line pass two per live line: Reset
	// compacts the image (re-wrapped) and still keeps the log; the marker
	// keeps its handle and follows the compacted image.
	for range 5 {
		if err := d.Img.WriteLine(1, 43); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PersistMarker(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.logs != 1 || w.imgs != 2 || w.mks != 1 {
		t.Fatalf("Reset's compaction did not re-wrap the image alone: %+v", *w)
	}
}

// orderWrapper records, in order, the Reset steps that reach the
// components it wraps: a directory fsync, a marker Set, an image
// reopened, a log rewind.
type orderWrapper struct{ events []string }

func (w *orderWrapper) WrapLog(l LogStore) LogStore { return &orderLog{l, w} }
func (w *orderWrapper) WrapImage(im ImageStore) ImageStore {
	w.events = append(w.events, "image")
	return im
}
func (w *orderWrapper) WrapMarker(mk MarkerStore) MarkerStore {
	return &orderMarker{mk, w}
}

type orderLog struct {
	LogStore
	w *orderWrapper
}

func (l *orderLog) Rewind(n uint64) error {
	l.w.events = append(l.w.events, fmt.Sprintf("rewind %d", n))
	return l.LogStore.Rewind(n)
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

// TestResetOrder: Reset of a compact store seals the lines recovery
// changed under the recovered epoch (if any), then epoch 0 twice, and
// only then rewinds the log; over the bound it compacts the image, the
// epoch-0 seals inside it (rename, then the directory fsync), before
// the rewind. No step reopens the log or touches the directory
// otherwise.
func TestResetOrder(t *testing.T) {
	steps := func(dir string) string {
		t.Helper()
		d, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, _, err := d.Recover(); err != nil {
			t.Fatal(err)
		}
		w := &orderWrapper{}
		d.Wrap(w)
		w.events = nil
		if err := d.Reset(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(w.events)
	}
	dir := t.TempDir()
	if got, want := steps(dir), "[set 0 set 0 rewind 0]"; got != want {
		t.Fatalf("Reset of an empty store: %s, want %s", got, want)
	}

	// Epoch 2 sealed with an eviction of epoch 3 that the synced log
	// rolls back: recovery changes one line of five, and the image holds
	// nine records, the two epoch-0 seals included.
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for l := mem.LineAddr(1); l <= 5; l++ {
		d.Img.WriteLine(l, mem.Word(10*l))
	}
	raw, _ := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 2, ValidFrom: 2, ValidTill: 3, Old: 20}},
		MaxValidTill: 3,
	})
	if err := d.Log.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	d.Img.WriteLine(2, 30)
	if err := d.PersistMarker(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := steps(dir), "[set 2 set 0 set 0 rewind 0]"; got != want {
		t.Fatalf("Reset with a one-line diff: %s, want %s", got, want)
	}
	// Seven line records, one of them the diff's, and six commit records
	// for five live lines: over the bound, Reset compacts.
	if got, want := steps(dir), "[syncdir image rewind 0]"; got != want {
		t.Fatalf("Reset past the compaction bound: %s, want %s", got, want)
	}
	// The compaction left eight records for five lines.
	if got, want := steps(dir), "[set 0 set 0 rewind 0]"; got != want {
		t.Fatalf("Reset after the compaction: %s, want %s", got, want)
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

// TestFileLandUnsynced: a cut lands the blocks past the durable count
// as given — whole, absent (zeros behind a later block), or torn — and
// the count falls back to it; the next open sees the whole blocks the
// file holds and drops the partial tail.
func TestFileLandUnsynced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "undo.log")
	lf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 1, ValidTill: 1, Old: 7}},
		MaxValidTill: 1,
	})
	for range 4 {
		if err := lf.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := lf.LandUnsynced(1, [][]byte{nil, raw, raw[:100]}); err != nil {
		t.Fatal(err)
	}
	if lf.Blocks() != 1 {
		t.Fatalf("count after the cut = %d, want 1", lf.Blocks())
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(undolog.EncodeSuper(lf.Super()), raw...)
	want = append(append(append(want, make([]byte, len(raw))...), raw...), raw[:100]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("the cut left %d bytes, want %d: the durable block, zeros, the block, a 100-byte tear", len(got), len(want))
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Blocks() != 3 || re.TornBytes() != 100 {
		t.Fatalf("reopen: blocks=%d torn=%d, want 3 and 100", re.Blocks(), re.TornBytes())
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

// TestFileRewind: a rewind moves the append point back with no I/O; the
// blocks past it stay stored and readable, the next append overwrites
// the first of them in place, and a reopen sees every stored block.
func TestFileRewind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "undo.log")
	lf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	block := func(v mem.Word) []byte {
		raw, _ := undolog.EncodeBlock(undolog.Block{Entries: []undolog.Entry{{Line: 1, ValidTill: 1, Old: v}}, MaxValidTill: 1})
		return raw
	}
	for v := range mem.Word(4) {
		if err := lf.AppendBlock(block(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lf.Rewind(5); err == nil {
		t.Fatal("rewind past the append point accepted")
	}
	if err := lf.Rewind(1); err != nil || lf.Blocks() != 1 {
		t.Fatalf("rewind to 1: blocks %d, err %v", lf.Blocks(), err)
	}
	got := make([]byte, undolog.BlockBytes)
	if err := lf.ReadBlocks(2, got); err != nil || !bytes.Equal(got, block(2)) {
		t.Fatalf("stale block 2 after the rewind: err %v", err)
	}
	if err := lf.AppendBlock(block(9)); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(undolog.EncodeSuper(lf.Super()), block(0)...)
	want = append(append(append(want, block(9)...), block(2)...), block(3)...)
	if !bytes.Equal(raw, want) {
		t.Fatalf("the log holds %d bytes, want blocks 0, 9, 2, 3 in place", len(raw))
	}
	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Blocks() != 4 {
		t.Fatalf("reopen sees %d blocks, want the 4 stored", re.Blocks())
	}
}

// TestPersistBulkRewinds: the bulk commit rewinds the log to the prefix
// it names, so the blocks appended since the last sync are overwritten
// by the next ones, and the commit after them still recovers.
func TestPersistBulkRewinds(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := undolog.EncodeBlock(undolog.Block{Entries: []undolog.Entry{{Line: 1, ValidTill: 1, Old: 7}}, MaxValidTill: 1})
	if err := d.Log.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	if err := d.PersistMarker(1); err != nil { // names block 0
		t.Fatal(err)
	}
	for range 3 {
		if err := d.Log.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
	}
	d.Img.WriteLine(1, 5)
	if err := d.PersistBulk(2); err != nil {
		t.Fatal(err)
	}
	if d.Log.Blocks() != 1 {
		t.Fatalf("after the bulk commit the log appends at block %d, want 1", d.Log.Blocks())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	img, info, err := RecoverDir(dir)
	if err != nil || info.Marker != 2 || info.BlocksRead != 1 || info.TornBytes != 3*undolog.BlockBytes || img.Read(1) != 5 {
		t.Fatalf("recovered %+v, line 1 = %d, err %v; want epoch 2 over one block with three stale blocks dropped", info, img.Read(1), err)
	}
}
