package picl

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

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
