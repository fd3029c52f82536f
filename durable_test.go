package picl

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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

	// A 16-byte marker of the older rename-replaced format is not read
	// as epoch 0: Open refuses the store with ErrBackend.
	legacy := filepath.Join(t.TempDir(), "legacy")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 16) // epoch 7, its CRC32C, padding
	binary.LittleEndian.PutUint64(rec[0:8], 7)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.Checksum(rec[0:8], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(legacy, storage.MarkerFileName), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(legacy); !errors.Is(err, ErrBackend) {
		t.Fatalf("legacy marker: err = %v, want ErrBackend", err)
	}

	// WithBackend cannot combine with Open.
	if _, err := Open(filepath.Join(t.TempDir(), "s2"), WithBackend(&countingBackend{})); !errors.Is(err, ErrBackend) {
		t.Fatalf("Open+WithBackend: err = %v, want ErrBackend", err)
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

// countingBackend is a minimal user-supplied Backend: it records
// appended blocks and how often Sync ran.
type countingBackend struct {
	blocks [][]byte
	syncs  int
	synced int // blocks durable as of the last Sync
}

func (c *countingBackend) AppendBlock(raw []byte) error {
	cp := append([]byte(nil), raw...)
	c.blocks = append(c.blocks, cp)
	return nil
}
func (c *countingBackend) Sync() error              { c.syncs++; c.synced = len(c.blocks); return nil }
func (c *countingBackend) Blocks() uint64           { return uint64(len(c.blocks)) }
func (c *countingBackend) ReadAll() ([]byte, error) { return nil, nil }
func (c *countingBackend) Truncate(n uint64) error  { return nil }
func (c *countingBackend) Close() error             { return nil }

// TestWithBackendMirrorsBlocks: a custom Backend receives every flushed
// undo block, synced immediately (the write-ahead contract), and each
// block decodes as a valid log block.
func TestWithBackendMirrorsBlocks(t *testing.T) {
	cb := &countingBackend{}
	m, err := New(WithSmallCaches(), WithBackend(cb),
		WithConfig(Config{ACSGap: 1, BufferEntries: 4}))
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 64, 1)
	if len(cb.blocks) == 0 {
		t.Fatal("no blocks mirrored")
	}
	if cb.synced != len(cb.blocks) {
		t.Fatalf("mirror not synced: %d/%d durable", cb.synced, len(cb.blocks))
	}
	for i, raw := range cb.blocks {
		b, err := undolog.DecodeBlock(raw)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(b.Entries) == 0 {
			t.Fatalf("block %d carries no entries", i)
		}
	}
}

// TestWithBackendRequiresPiCL: baselines cannot drive a backend.
func TestWithBackendRequiresPiCL(t *testing.T) {
	if _, err := New(WithScheme("frm"), WithBackend(&countingBackend{})); !errors.Is(err, ErrBackend) {
		t.Fatalf("err = %v, want ErrBackend", err)
	}
}

// TestOpenLogBackend: the public file-backed Backend round-trips blocks
// through a real file and repairs a torn tail.
func TestOpenLogBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "undo.log")
	b, err := OpenLogBackend(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(WithSmallCaches(), WithBackend(b),
		WithConfig(Config{ACSGap: 1, BufferEntries: 4}))
	if err != nil {
		t.Fatal(err)
	}
	writeWorkload(t, m, 64, 7)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLogBackend(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Blocks() == 0 {
		t.Fatal("file backend lost its blocks")
	}
	raw, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: the next open repairs to whole blocks.
	if err := os.WriteFile(path, raw[:len(raw)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := OpenLogBackend(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	if torn.Blocks() != re.Blocks()-1 {
		t.Fatalf("torn reopen: %d blocks, want %d", torn.Blocks(), re.Blocks()-1)
	}

	// And garbage where the superblock belongs is ErrTornLog.
	bad := filepath.Join(t.TempDir(), "bad.log")
	if err := os.WriteFile(bad, make([]byte, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogBackend(bad, 0); !errors.Is(err, ErrTornLog) {
		t.Fatalf("err = %v, want ErrTornLog", err)
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

// TestOpenReleasesStoreOnNewError: when machine construction fails after
// the store was opened and recovered, Open releases the directory — a
// follow-up Open with good options succeeds immediately.
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

// markerCounter is a storage.Wrapper that counts the marker operations
// of a picl.Open store.
type markerCounter struct{ sets, syncDirs int }

func (w *markerCounter) WrapLog(l storage.LogStore) storage.LogStore        { return l }
func (w *markerCounter) WrapImage(im storage.ImageStore) storage.ImageStore { return im }
func (w *markerCounter) WrapMarker(mk storage.MarkerStore) storage.MarkerStore {
	return &countedMarker{mk, w}
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
// advances the marker with exactly one Set and no directory fsync, and
// the marker file keeps its inode across commits — nothing renames it.
func TestDurableCommitMarkerInPlace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w := &markerCounter{}
	m, err := Open(dir, WithStoreWrapper(w))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	path := filepath.Join(dir, storage.MarkerFileName)
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	line := uint64(1)
	for c := 0; c < 8; c++ {
		w.sets, w.syncDirs = 0, 0
		for i := 0; i < 64; i++ {
			line = line * 6364136223846793005 % (1 << 16)
			if err := m.Write(line*64, uint64(c*64+i)|1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if w.sets != 1 || w.syncDirs != 0 {
			t.Fatalf("commit %d: %d marker Sets and %d directory fsyncs, want 1 and 0", c, w.sets, w.syncDirs)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, fi) {
			t.Fatalf("commit %d: the marker file was replaced", c)
		}
	}
}

// TestReopenMarkerRot: the compaction on Open leaves epoch 0 in both
// marker slots, so rot in either slot before the new machine commits
// anything recovers epoch 0 — never the previous machine's marker,
// whose log the compaction deleted.
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
	path := filepath.Join(dir, storage.MarkerFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		rot := append([]byte(nil), raw...)
		rot[slot*4096+3] ^= 0x10 // slots sit at offsets 0 and 4096
		if err := os.WriteFile(path, rot, 0o644); err != nil {
			t.Fatal(err)
		}
		img, info, err := storage.RecoverDir(dir)
		if err != nil || !info.Marker.AtMost(0) || !info.MarkerTorn {
			t.Fatalf("rot in slot %d: marker %d torn=%v err=%v, want 0 torn", slot, info.Marker, info.MarkerTorn, err)
		}
		for i := 0; i < 56; i++ {
			if got := img.Read(mem.LineAddr(i)); got != mem.Word(300+i) {
				t.Fatalf("rot in slot %d: line %d = %d, want %d", slot, i, got, 300+i)
			}
		}
	}
}
