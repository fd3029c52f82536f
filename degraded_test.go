package picl

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"picl/internal/mem"
	"picl/internal/storage"
)

// brokenSyncLog passes everything through except Sync, which fails
// permanently with cause — the minimal model of a durable device whose
// flush path died mid-run.
type brokenSyncLog struct {
	storage.LogStore
	cause error
}

func (b *brokenSyncLog) Sync() error { return b.cause }

// brokenSyncWrapper wraps only the log store; image and marker stay
// untouched.
type brokenSyncWrapper struct{ cause error }

func (w *brokenSyncWrapper) WrapLog(l storage.LogStore) storage.LogStore {
	return &brokenSyncLog{LogStore: l, cause: w.cause}
}
func (w *brokenSyncWrapper) WrapImage(i storage.ImageStore) storage.ImageStore    { return i }
func (w *brokenSyncWrapper) WrapMarker(m storage.MarkerStore) storage.MarkerStore { return m }

// TestDegradedModeReadOnly is the graceful-degradation acceptance
// property: a permanent durable-sync failure no longer bricks the
// machine. Writes degrade to ErrBackend, but reads, Stats, and the
// degraded diagnosis stay live — and the on-disk store is frozen at a
// state the next Open still recovers.
func TestDegradedModeReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cause := errors.New("injected permanent sync failure")
	m, err := Open(dir, WithSmallCaches(),
		WithConfig(Config{ACSGap: 1, BufferEntries: 4}),
		WithStoreWrapper(&brokenSyncWrapper{cause: cause}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded() {
		t.Fatal("machine degraded before any operation")
	}

	// Drive writes and commits until the first ACS-gap commit hits the
	// broken log sync and the sticky error surfaces at a subsequent
	// operation.
	written := map[uint64]uint64{}
	var writeErr error
	for i := 0; i < 256; i++ {
		addr, val := uint64(i)*64, 1000+uint64(i)
		if err := m.Write(addr, val); err != nil {
			writeErr = err
			break
		}
		written[addr] = val
		if err := m.CommitEpoch(); err != nil {
			writeErr = err
			break
		}
	}
	if writeErr == nil {
		t.Fatal("writes kept succeeding past a permanently failing sync")
	}
	if !errors.Is(writeErr, ErrBackend) || !errors.Is(writeErr, cause) {
		t.Fatalf("write error = %v, want ErrBackend wrapping the injected cause", writeErr)
	}
	if !strings.Contains(writeErr.Error(), "read-only") {
		t.Fatalf("write error %q does not name the degraded read-only mode", writeErr)
	}

	// Degraded diagnosis.
	if !m.Degraded() {
		t.Fatal("Degraded() = false after a sticky mirror failure")
	}
	if got := m.DegradedCause(); !errors.Is(got, ErrBackend) || !errors.Is(got, cause) {
		t.Fatalf("DegradedCause = %v, want ErrBackend wrapping the injected cause", got)
	}

	// Reads keep serving the machine's coherent cached state.
	for addr, val := range written {
		got, err := m.Read(addr)
		if err != nil {
			t.Fatalf("read %#x in degraded mode: %v", addr, err)
		}
		if got != val {
			t.Fatalf("read %#x = %d in degraded mode, want %d", addr, got, val)
		}
	}

	// Stats stay live; mutating operations all report ErrBackend.
	if s := m.Stats(); s.Scheme != "picl" {
		t.Fatalf("Stats() in degraded mode: %+v", s)
	}
	if err := m.CommitEpoch(); !errors.Is(err, ErrBackend) {
		t.Fatalf("CommitEpoch in degraded mode = %v, want ErrBackend", err)
	}
	if _, err := m.Sync(); !errors.Is(err, ErrBackend) {
		t.Fatalf("Sync in degraded mode = %v, want ErrBackend", err)
	}
	if err := m.QueueIO("io-1"); !errors.Is(err, ErrBackend) {
		t.Fatalf("QueueIO in degraded mode = %v, want ErrBackend", err)
	}

	// Close surfaces the backend failure but still releases the store.
	if err := m.Close(); !errors.Is(err, ErrBackend) {
		t.Fatalf("Close of a degraded machine = %v, want ErrBackend", err)
	}

	// The frozen directory is still a consistent store: the next Open
	// (without the broken wrapper) recovers it cleanly.
	m2, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatalf("reopen after degraded shutdown: %v", err)
	}
	defer m2.Close()
	if m2.Degraded() {
		t.Fatal("healthy reopen reports degraded")
	}
}

// failingSet fails every marker Set while *fail is true: the commit's
// write or fsync died.
type failingSet struct {
	storage.MarkerStore
	fail *bool
}

func (f failingSet) Set(e mem.EpochID) error {
	if *f.fail {
		return errors.New("injected commit failure")
	}
	return f.MarkerStore.Set(e)
}

// failSetWrapper wraps only the marker.
type failSetWrapper struct{ fail *bool }

func (w failSetWrapper) WrapLog(l storage.LogStore) storage.LogStore       { return l }
func (w failSetWrapper) WrapImage(i storage.ImageStore) storage.ImageStore { return i }
func (w failSetWrapper) WrapMarker(m storage.MarkerStore) storage.MarkerStore {
	return failingSet{m, w.fail}
}

// TestSyncReportsFailedCommit: a Sync whose durable commit fails
// returns ErrBackend — its epoch is not durable — and ReleaseIO holds
// back the I/O queued before it (paper §IV-C), before Close and after
// it, while a Sync that commits releases its I/O. The reopened store
// recovers the last Sync that returned nil.
func TestSyncReportsFailedCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	fail := false
	m, err := Open(dir, WithSmallCaches(), WithStoreWrapper(failSetWrapper{&fail}))
	if err != nil {
		t.Fatal(err)
	}
	sync := func(v uint64, tag string) error {
		if err := m.Write(0, v); err != nil {
			t.Fatal(err)
		}
		if err := m.QueueIO(tag); err != nil {
			t.Fatal(err)
		}
		_, err := m.Sync()
		return err
	}
	if err := sync(7, "first"); err != nil {
		t.Fatalf("healthy Sync: %v", err)
	}
	if got := m.ReleaseIO(); len(got) != 1 || got[0] != "first" {
		t.Fatalf("after a committed Sync ReleaseIO = %q, want [first]", got)
	}
	fail = true
	if err := sync(9, "second"); !errors.Is(err, ErrBackend) || !m.Degraded() {
		t.Fatalf("Sync over a failing commit = %v (degraded %v), want ErrBackend", err, m.Degraded())
	}
	if got := m.ReleaseIO(); len(got) != 0 {
		t.Fatalf("ReleaseIO after a failed commit released %q", got)
	}
	if err := m.Close(); !errors.Is(err, ErrBackend) {
		t.Fatalf("Close of the degraded machine = %v, want ErrBackend", err)
	}
	if got := m.ReleaseIO(); len(got) != 0 {
		t.Fatalf("ReleaseIO after Close released %q", got)
	}

	m2, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	img, epoch := m2.Recovered()
	if epoch != 1 || img.Read(0) != 7 {
		t.Fatalf("reopened at epoch %d with line 0 = %d, want the first Sync's epoch 1 holding 7", epoch, img.Read(0))
	}
}
