package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"picl/internal/mem"
	"picl/internal/obs"
	"picl/internal/storage"
)

// fakeLog wraps a store's undo log: it counts block appends and log
// syncs, and fails appends with appendErr, or the first failN syncs
// with syncErr.
type fakeLog struct {
	storage.LogStore
	appends, syncs int
	appendErr      error
	failN          int
	syncErr        error
}

func (f *fakeLog) AppendBlock(raw []byte) error {
	if f.appendErr != nil {
		return f.appendErr
	}
	f.appends++
	return f.LogStore.AppendBlock(raw)
}

func (f *fakeLog) Sync() error {
	f.syncs++
	if f.syncs <= f.failN {
		return f.syncErr
	}
	return f.LogStore.Sync()
}

// fakeWrapper interposes f on a store's log only.
type fakeWrapper struct{ f *fakeLog }

func (w fakeWrapper) WrapLog(l storage.LogStore) storage.LogStore {
	w.f.LogStore = l
	return w.f
}
func (w fakeWrapper) WrapImage(im storage.ImageStore) storage.ImageStore   { return im }
func (w fakeWrapper) WrapMarker(m storage.MarkerStore) storage.MarkerStore { return m }

// fakeRig attaches a real on-disk store whose log runs through f.
func fakeRig(t *testing.T, cfg Config, f *fakeLog) *rig {
	t.Helper()
	r := newRig(t, cfg)
	d, err := storage.OpenDir(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	d.Wrap(fakeWrapper{f})
	r.p.SetDurable(d)
	return r
}

// workload drives enough stores through the rig to flush several undo
// blocks and seal a few epochs.
func workload(r *rig) {
	for e := 1; e <= 3; e++ {
		for i := 0; i < 10; i++ {
			r.store(mem.LineAddr(i), mem.Word(e*100+i))
		}
		r.boundary()
	}
}

// TestLogSinkMirror: every flushed undo block reaches the store's log
// unsynced — the log syncs once per ACS-gap commit, not once per block
// — and detaching the store stops the mirroring.
func TestLogSinkMirror(t *testing.T) {
	s := &fakeLog{}
	r := fakeRig(t, Config{BufferEntries: 4}, s)
	workload(r)
	if s.appends == 0 || s.syncs != 3 || s.appends <= s.syncs {
		t.Fatalf("appends=%d syncs=%d, want one sync per commit (3) and more blocks than syncs", s.appends, s.syncs)
	}
	if err := r.p.DurableErr(); err != nil {
		t.Fatal(err)
	}
	before := s.appends
	r.p.SetDurable(nil)
	workload(r)
	if s.appends != before {
		t.Fatal("blocks mirrored after the store was detached")
	}
}

// TestLogSinkErrSticky: the first mirror failure is surfaced by
// DurableErr and held across later successes and later failures.
func TestLogSinkErrSticky(t *testing.T) {
	first := errors.New("mirror device gone")
	s := &fakeLog{appendErr: first}
	r := fakeRig(t, Config{BufferEntries: 4}, s)
	workload(r)
	if got := r.p.DurableErr(); !errors.Is(got, first) {
		t.Fatalf("DurableErr = %v, want the injected failure", got)
	}
	s.appendErr = nil // device "recovers" — the sticky error must not clear
	workload(r)
	if got := r.p.DurableErr(); !errors.Is(got, first) {
		t.Fatalf("DurableErr = %v after recovery, want the first failure held", got)
	}
}

// TestSetDurableNilDetaches: clearing the durable store detaches both
// mirrors — subsequent epochs leave the directory untouched.
func TestSetDurableNilDetaches(t *testing.T) {
	r, d := durableRig(t, Config{ACSGap: 1, BufferEntries: 4})
	if r.p.Durable() != d {
		t.Fatal("Durable() does not return the attached store")
	}
	r.p.SetDurable(nil)
	if r.p.Durable() != nil {
		t.Fatal("Durable() non-nil after detach")
	}
	workload(r)
	path := d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, info, err := storage.RecoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Marker != 0 || info.BlocksRead != 0 || info.Lines != 0 {
		t.Fatalf("detached store advanced: %+v", info)
	}
}

func countKind(events []obs.Event, k obs.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestSyncRetryTransient: a sync failure that clears within the retry
// budget is absorbed — the machine stays healthy, and each retry is
// visible in the event stream.
func TestSyncRetryTransient(t *testing.T) {
	s := &fakeLog{failN: SyncRetries, syncErr: errors.New("transient sync hiccup")}
	r := fakeRig(t, Config{BufferEntries: 4}, s)
	ring := obs.NewRing(1 << 12)
	r.p.SetTracer(ring)
	workload(r)
	if err := r.p.DurableErr(); err != nil {
		t.Fatalf("DurableErr = %v, want transient failure absorbed by retry", err)
	}
	if s.appends == 0 || s.syncs != 3+SyncRetries {
		t.Fatalf("appends=%d syncs=%d, want one sync per commit (3) + %d retries", s.appends, s.syncs, SyncRetries)
	}
	ev := ring.Events()
	if got := countKind(ev, obs.KindMirrorRetry); got != SyncRetries {
		t.Fatalf("mirror_retry events = %d, want %d", got, SyncRetries)
	}
	if got := countKind(ev, obs.KindDegraded); got != 0 {
		t.Fatalf("degraded events = %d on a healthy machine", got)
	}
}

// TestSyncRetryExhausted: a sync failure outlasting the retry budget
// goes sticky after exactly 1+SyncRetries attempts at the first commit,
// emits one degraded event, and silences every later mirror call — the
// store freezes.
func TestSyncRetryExhausted(t *testing.T) {
	cause := errors.New("device unplugged")
	s := &fakeLog{failN: 1 << 30, syncErr: cause}
	r := fakeRig(t, Config{BufferEntries: 4}, s)
	ring := obs.NewRing(1 << 12)
	r.p.SetTracer(ring)
	for i := 0; i < 10; i++ {
		r.store(mem.LineAddr(i), mem.Word(100+i))
	}
	appended := s.appends
	r.boundary()
	if got := r.p.DurableErr(); !errors.Is(got, cause) {
		t.Fatalf("DurableErr = %v, want the injected failure", got)
	}
	if appended == 0 || s.syncs != 1+SyncRetries {
		t.Fatalf("appends=%d syncs=%d, want blocks appended before the commit and its %d sync attempts",
			appended, s.syncs, 1+SyncRetries)
	}
	ev := ring.Events()
	if got := countKind(ev, obs.KindDegraded); got != 1 {
		t.Fatalf("degraded events = %d, want exactly 1", got)
	}
	frozen := s.appends
	workload(r) // still frozen on later epochs
	if s.appends != frozen || s.syncs != 1+SyncRetries {
		t.Fatal("mirror resumed after sticky failure")
	}
}

// TestPowerLossNotRetried: simulated power loss must not be retried —
// there is no device behind it anymore.
func TestPowerLossNotRetried(t *testing.T) {
	s := &fakeLog{failN: 1 << 30, syncErr: fmt.Errorf("%w: op 7", storage.ErrPowerLost)}
	r := fakeRig(t, Config{BufferEntries: 4}, s)
	ring := obs.NewRing(1 << 12)
	r.p.SetTracer(ring)
	workload(r)
	if got := r.p.DurableErr(); !errors.Is(got, storage.ErrPowerLost) {
		t.Fatalf("DurableErr = %v, want ErrPowerLost", got)
	}
	if s.syncs != 1 {
		t.Fatalf("syncs=%d, want 1 (power loss never retried)", s.syncs)
	}
	if got := countKind(ring.Events(), obs.KindMirrorRetry); got != 0 {
		t.Fatalf("mirror_retry events = %d for power loss", got)
	}
}
