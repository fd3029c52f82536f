package picl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// writeWorkload drives a recognizable workload: lines 0..n-1 get
// value base+i, committed across a few epochs and forced durable.
func writeWorkload(t *testing.T, m *Machine, n int, base uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Write(uint64(i)*64, base+uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDurableRoundTrip is the headline durability property: values
// written before Close are recovered by the next Open of the same
// directory — across machine instances, via real files only.
func TestOpenDurableRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")

	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	if img, eid := m.Recovered(); img.Lines() != 0 || eid != 0 {
		t.Fatalf("fresh store recovered lines=%d eid=%d", img.Lines(), eid)
	}
	if m.DurablePath() != dir {
		t.Fatalf("DurablePath = %q", m.DurablePath())
	}
	writeWorkload(t, m, 40, 1000)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	img, _ := re.Recovered()
	for i := 0; i < 40; i++ {
		if got := img.Read(uint64(i) * 64); got != 1000+uint64(i) {
			t.Fatalf("line %d recovered as %d, want %d", i, got, 1000+uint64(i))
		}
	}
	// The baseline is live machine state too: reads hit the seeded image.
	if got, err := re.Read(0); err != nil || got != 1000 {
		t.Fatalf("Read after reopen = %d, %v", got, err)
	}
	// And the machine keeps working: new writes over the recovered base.
	writeWorkload(t, re, 10, 2000)
}

// TestRecoveredIsLiveBaseline pins Recovered's contract: its image is
// the machine's live NVM baseline, not a snapshot. After Open recovers
// 7 at line 0, Write(0, 9) and Sync make both the image held since Open
// and a fresh Recovered() read 9, while a Clone taken at Open keeps 7.
func TestRecoveredIsLiveBaseline(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	held, _ := re.Recovered()
	snap := held.Clone()
	if held.Read(0) != 7 || snap.Read(0) != 7 {
		t.Fatalf("recovered %d, clone %d; want 7", held.Read(0), snap.Read(0))
	}
	if err := re.Write(0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	fresh, _ := re.Recovered()
	if held.Read(0) != 9 || fresh.Read(0) != 9 {
		t.Fatalf("after Write(0, 9) and Sync: held image %d, fresh Recovered() %d; want 9 (the live baseline)",
			held.Read(0), fresh.Read(0))
	}
	if snap.Read(0) != 7 {
		t.Fatalf("clone taken at Open reads %d, want 7", snap.Read(0))
	}
}

// TestOpenAfterCrash: a simulated power cut does not touch the disk
// mirror — reopening the directory still recovers everything the store
// had durably persisted.
func TestOpenAfterCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 24, 500)
	m.Crash()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	img, _ := re.Recovered()
	for i := 0; i < 24; i++ {
		if got := img.Read(uint64(i) * 64); got != 500+uint64(i) {
			t.Fatalf("line %d recovered as %d after crash", i, got)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "s"), WithScheme("frm")); !errors.Is(err, ErrBackend) {
		t.Fatalf("non-picl scheme: err = %v, want ErrBackend", err)
	}

	// A corrupt log superblock is ErrTornLog.
	dir := filepath.Join(t.TempDir(), "torn")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storage.LogFileName), []byte("not a log at all, definitely not 64 aligned bytes of super"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrTornLog) {
		t.Fatalf("corrupt super: err = %v, want ErrTornLog", err)
	}
	// ErrTornLog is itself a backendish failure, but the two are distinct
	// sentinels: a caller can branch on "unusable log" specifically.
	if _, err := Open(dir); errors.Is(err, ErrBackend) {
		t.Fatalf("corrupt super wrongly matches ErrBackend: %v", err)
	}

	// A store of the previous format — a version-2 image of bare line
	// records beside a two-slot marker file — is refused with ErrBackend,
	// and neither file is touched.
	legacy := filepath.Join(t.TempDir(), "legacy")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 24) // line 7 holding 7, its CRC32C, 4 zero bytes
	binary.LittleEndian.PutUint64(rec[0:8], 7)
	binary.LittleEndian.PutUint64(rec[8:16], 7)
	binary.LittleEndian.PutUint32(rec[16:20], crc32.Checksum(rec[0:16], crc32.MakeTable(crc32.Castagnoli)))
	files := map[string][]byte{
		storage.ImageFileName: append([]byte{'P', 'C', 'L', 'I', 2, 0, 0, 0}, rec...),
		"marker":              make([]byte, 8192),
	}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(legacy, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(legacy); !errors.Is(err, ErrBackend) {
		t.Fatalf("version-2 store: err = %v, want ErrBackend", err)
	}
	for name, raw := range files {
		if after, _ := os.ReadFile(filepath.Join(legacy, name)); !bytes.Equal(after, raw) {
			t.Fatalf("version-2 store: Open modified %s", name)
		}
	}
}

func TestUseAfterClose(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "store"), WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if err := m.Write(0, 1); !errors.Is(err, ErrBackend) {
		t.Fatalf("Write after Close: err = %v, want ErrBackend", err)
	}
	if err := m.CommitEpoch(); !errors.Is(err, ErrBackend) {
		t.Fatalf("CommitEpoch after Close: err = %v, want ErrBackend", err)
	}
}

// TestNonDurableMachineFacade: the durable accessors degrade cleanly on
// a machine built with New — empty recovered image, no store path, and
// Close still renders it unusable.
func TestNonDurableMachineFacade(t *testing.T) {
	m, err := New(WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	img, epoch := m.Recovered()
	if img.Lines() != 0 || epoch != 0 {
		t.Fatalf("New machine Recovered() = %d lines, epoch %d; want empty", img.Lines(), epoch)
	}
	if p := m.DurablePath(); p != "" {
		t.Fatalf("DurablePath = %q, want empty", p)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, 1); !errors.Is(err, ErrBackend) {
		t.Fatalf("write after Close: err = %v, want ErrBackend", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestOpenStoreIsFile: handing Open a path occupied by a regular file is
// a backend failure, not a torn log — the sentinels stay distinct in
// both directions.
func TestOpenStoreIsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(path, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if !errors.Is(err, ErrBackend) {
		t.Fatalf("err = %v, want ErrBackend", err)
	}
	if errors.Is(err, ErrTornLog) {
		t.Fatalf("plain I/O failure wrongly matches ErrTornLog: %v", err)
	}
}

// TestOpenReleasesStoreOnNewError: when machine construction fails,
// Open leaves the directory free — a follow-up Open with good options
// succeeds immediately.
func TestOpenReleasesStoreOnNewError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := Open(dir, WithCores(0)); !errors.Is(err, ErrNeedCore) {
		t.Fatalf("err = %v, want ErrNeedCore", err)
	}
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatalf("store left unusable by failed Open: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsOptionsUntouched: Open checks its options before it
// touches the store. A bad core count, a geometry no cache can build
// and a scheme other than "picl" each fail Open, leave every file of an
// existing store byte for byte as it was, and create no missing
// directory.
func TestOpenRejectsOptionsUntouched(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string][]byte {
		files := map[string][]byte{}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[ent.Name()] = raw
		}
		return files
	}
	before := snapshot()
	llc := LevelGeometry{SizeBytes: 3000, Ways: 8, LatencyCycles: 30} // 5 sets
	wide := LevelGeometry{SizeBytes: 64 << 10, Ways: 32, LatencyCycles: 30}
	small := LevelGeometry{SizeBytes: 1 << 10, Ways: 4, LatencyCycles: 1}
	for _, c := range []struct {
		name string
		opt  Option
		want error
	}{
		{"no core", WithCores(0), ErrNeedCore},
		{"5-set LLC", WithHierarchy(small, small, llc), ErrBadHierarchy},
		{"32-way LLC", WithHierarchy(small, small, wide), ErrBadHierarchy},
		{"journal scheme", WithScheme("journal"), ErrBackend},
	} {
		if _, err := Open(dir, c.opt); !errors.Is(err, c.want) {
			t.Fatalf("%s: Open = %v, want %v", c.name, err, c.want)
		}
		after := snapshot()
		if len(after) != len(before) {
			t.Fatalf("%s: the rejected Open left %d files, want %d", c.name, len(after), len(before))
		}
		for name, raw := range before {
			if !bytes.Equal(after[name], raw) {
				t.Fatalf("%s: the rejected Open changed %s (%d -> %d bytes)", c.name, name, len(raw), len(after[name]))
			}
		}
		missing := filepath.Join(root, "missing", "store")
		if _, err := Open(missing, c.opt); !errors.Is(err, c.want) {
			t.Fatalf("%s: Open of a missing directory = %v, want %v", c.name, err, c.want)
		}
		if _, err := os.Stat(filepath.Join(root, "missing")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: the rejected Open created a directory (stat: %v)", c.name, err)
		}
	}
}

// markerCounter is a storage.Wrapper that counts the marker operations
// and image syncs of a picl.Open store.
type markerCounter struct{ sets, syncDirs, imgSyncs int }

func (w *markerCounter) WrapLog(l storage.LogStore) storage.LogStore { return l }
func (w *markerCounter) WrapImage(im storage.ImageStore) storage.ImageStore {
	return &countedImage{im, w}
}
func (w *markerCounter) WrapMarker(mk storage.MarkerStore) storage.MarkerStore {
	return &countedMarker{mk, w}
}

type countedImage struct {
	storage.ImageStore
	w *markerCounter
}

func (im *countedImage) Sync() error {
	im.w.imgSyncs++
	return im.ImageStore.Sync()
}

type countedMarker struct {
	storage.MarkerStore
	w *markerCounter
}

func (mk *countedMarker) Set(e mem.EpochID) error {
	mk.w.sets++
	return mk.MarkerStore.Set(e)
}

func (mk *countedMarker) SyncDir() error {
	mk.w.syncDirs++
	return mk.MarkerStore.SyncDir()
}

// TestDurableCommitMarkerInPlace: a durable commit (64 writes, Sync)
// advances the marker with exactly one Set — the image append that
// seals the commit — and no image Sync or directory fsync; the image
// keeps its inode across commits, and the store has no marker file.
func TestDurableCommitMarkerInPlace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w := &markerCounter{}
	m, err := Open(dir, WithStoreWrapper(w))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	path := filepath.Join(dir, storage.ImageFileName)
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	line := uint64(1)
	for c := 0; c < 8; c++ {
		*w = markerCounter{}
		for i := 0; i < 64; i++ {
			line = line * 6364136223846793005 % (1 << 16)
			if err := m.Write(line*64, uint64(c*64+i)|1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if w.sets != 1 || w.syncDirs != 0 || w.imgSyncs != 0 {
			t.Fatalf("commit %d: %d marker Sets, %d directory fsyncs, %d image Syncs; want 1, 0, 0",
				c, w.sets, w.syncDirs, w.imgSyncs)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, fi) {
			t.Fatalf("commit %d: the image file was replaced", c)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "marker")); !os.IsNotExist(err) {
		t.Fatalf("the store has a marker file (stat: %v)", err)
	}
}

// fsyncLog is a storage.Wrapper that records, in order, the fsyncs of
// a picl.Open store: "log" for a log Sync with blocks appended since the
// previous one (a Sync with none writes nothing), "commit" for a marker
// Set, the image append and its fsync. It also counts the log blocks
// appended.
type fsyncLog struct {
	ops     []string
	pending bool // blocks appended since the last log sync
	blocks  int
}

func (w *fsyncLog) WrapLog(l storage.LogStore) storage.LogStore        { return &fsyncedLog{l, w} }
func (w *fsyncLog) WrapImage(im storage.ImageStore) storage.ImageStore { return im }
func (w *fsyncLog) WrapMarker(mk storage.MarkerStore) storage.MarkerStore {
	return &fsyncedMarker{mk, w}
}

type fsyncedLog struct {
	storage.LogStore
	w *fsyncLog
}

func (l *fsyncedLog) AppendBlock(raw []byte) error {
	l.w.pending = true
	l.w.blocks++
	return l.LogStore.AppendBlock(raw)
}

func (l *fsyncedLog) Sync() error {
	if l.w.pending {
		l.w.ops = append(l.w.ops, "log")
		l.w.pending = false
	}
	return l.LogStore.Sync()
}

type fsyncedMarker struct {
	storage.MarkerStore
	w *fsyncLog
}

func (mk *fsyncedMarker) Set(e mem.EpochID) error {
	mk.w.ops = append(mk.w.ops, "commit")
	return mk.MarkerStore.Set(e)
}

// TestDurableCommitFsyncSchedule pins where a durable commit fsyncs. The
// 64 writes of a commit fsync nothing: their undo blocks are appended
// unsynced. Sync fsyncs once, its commit: the bulk ACS leaves nothing
// for recovery to undo, so the log is not synced. A commit the ACS-gap
// scan makes at CommitEpoch fsyncs the log, then its commit. The bytes
// each commit writes to undo.log and seals in image.dat are the ones
// the protocol that fsynced every undo block wrote; only the flushes
// changed, the log blocks a Sync leaves dead are overwritten in place
// by the next commit's, and the image's batches overwrite its zero
// padding.
func TestDurableCommitFsyncSchedule(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w := &fsyncLog{}
	m, err := Open(dir, WithStoreWrapper(w))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sealed := func() int64 {
		_, end := readImage(t, filepath.Join(dir, storage.ImageFileName))
		return int64(end)
	}
	wantLog := []int64{6144, 6144, 6144, 6144, 6144, 6144, 6144, 6144, 4096, 4096, 4096, 8192, 6144, 6144, 6144, 6144}
	wantImg := []int64{1560, 1560, 1560, 1560, 1560, 1560, 1560, 1560, 0, 0, 0, 1560, 1560, 1560, 1560, 1560}
	line := uint64(1)
	for c := range wantLog {
		i0 := sealed()
		w.ops, w.blocks = nil, 0
		for i := 0; i < 64; i++ {
			line = line * 6364136223846793005 % (1 << 16)
			if err := m.Write(line*64, uint64(c*64+i)|1); err != nil {
				t.Fatal(err)
			}
		}
		if len(w.ops) != 0 {
			t.Fatalf("commit %d: the writes fsynced %v, want nothing", c, w.ops)
		}
		var want []string
		if c < 8 {
			if _, err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			want = []string{"commit"}
		} else {
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
			if c >= 8+DefaultConfig().ACSGap { // the scan trails the last Sync by the gap
				want = []string{"log", "commit"}
			}
		}
		if !slices.Equal(w.ops, want) {
			t.Fatalf("commit %d: fsynced %v, want %v", c, w.ops, want)
		}
		if dl, di := int64(w.blocks)*undolog.BlockBytes, sealed()-i0; dl != wantLog[c] || di != wantImg[c] {
			t.Fatalf("commit %d wrote %d log and sealed %d image bytes, want %d and %d", c, dl, di, wantLog[c], wantImg[c])
		}
	}
}

// TestReopenMarkerRot: Open seals epoch 0 twice, so rot in the final
// commit record before the new machine commits anything recovers epoch
// 0 with the recovered image — never the previous machine's marker,
// whose log prefix the new session overwrites in place. Rot in the
// commit record before it, which has a sealed batch behind it, is an
// error.
func TestReopenMarkerRot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 56, 300)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, e := m2.Recovered(); e < 7 {
		t.Fatalf("first machine's marker recovered as %d, want >= 7", e)
	}
	m2.Crash() // no commit in the new numbering
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storage.ImageFileName)
	raw, end := readImage(t, path)
	final := end - 24
	for bit := 0; bit < 2*24*8; bit++ {
		rot := bytes.Clone(raw)
		rot[final-24+bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, rot, 0o644); err != nil {
			t.Fatal(err)
		}
		img, info, err := storage.RecoverDir(dir)
		if bit < 24*8 {
			if !errors.Is(err, storage.ErrCorruptImage) {
				t.Fatalf("rot in the first epoch-0 commit, bit %d: marker %d err=%v, want ErrCorruptImage", bit, info.Marker, err)
			}
			continue
		}
		if err != nil || !info.Marker.AtMost(0) || info.ImageTornBytes != 24 {
			t.Fatalf("rot in the final commit, bit %d: marker %d torn=%d err=%v, want 0 with it dropped",
				bit-24*8, info.Marker, info.ImageTornBytes, err)
		}
		for i := 0; i < 56; i++ {
			if got := img.Read(mem.LineAddr(i)); got != mem.Word(300+i) {
				t.Fatalf("rot in the final commit, bit %d: line %d = %d, want %d", bit-24*8, i, got, 300+i)
			}
		}
	}
}
