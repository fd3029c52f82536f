package serve

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picl/internal/storage"
	"picl/internal/storage/fault"
)

func TestDigestOfStable(t *testing.T) {
	a := DigestOf("picl-runkey-v1|x")
	b := DigestOf("picl-runkey-v1|x")
	if a != b {
		t.Fatal("DigestOf not a pure function")
	}
	if a == DigestOf("picl-runkey-v1|y") {
		t.Fatal("distinct keys collided")
	}
	if n := testing.AllocsPerRun(10, func() { DigestOf("picl-runkey-v1|x") }); n != 0 {
		t.Fatalf("DigestOf allocates %v times per call", n)
	}
}

func TestSourceString(t *testing.T) {
	want := map[Source]string{
		SourceHit: "hit", SourceComputed: "computed",
		SourceWaited: "waited", SourcePeer: "peer", Source(0): "unknown",
	}
	for src, s := range want {
		if src.String() != s {
			t.Fatalf("Source(%d).String() = %q, want %q", src, src.String(), s)
		}
	}
}

func TestStoreClaimLifecycle(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := DigestOf("cell-1")
	state, err := st.TryClaim(d)
	if err != nil || state != ClaimAcquired {
		t.Fatalf("first claim = %v, %v; want acquired", state, err)
	}
	state, err = st.TryClaim(d)
	if err != nil || state != ClaimHeld {
		t.Fatalf("contended claim = %v, %v; want held", state, err)
	}
	st.Release(d)
	state, err = st.TryClaim(d)
	if err != nil || state != ClaimAcquired {
		t.Fatalf("reclaim after release = %v, %v; want acquired", state, err)
	}
	st.Release(d)
}

// TestStoreCrossProcess shares one directory between two Store mounts
// (two daemon processes): a Put on one side becomes visible on the
// other after Refresh, and survives a fresh mount.
func TestStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	d := DigestOf("shared-cell")
	if err := a.Put(d, []byte(`{"cycles":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(d); ok {
		t.Fatal("foreign append visible without Refresh")
	}
	if n, err := b.Refresh(); err != nil || n != 1 {
		t.Fatalf("Refresh = %d, %v; want 1 new record", n, err)
	}
	if got, ok := b.Get(d); !ok || string(got) != `{"cycles":1}` {
		t.Fatalf("cross-store Get = %q, %v", got, ok)
	}
	a.Close()

	c, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 1 {
		t.Fatalf("fresh mount Len = %d, want 1", c.Len())
	}
}

// TestStoreDuplicatePutCoalesced: the append lock's dup check keeps a
// waiter's losing compute from re-appending identical bytes.
func TestStoreDuplicatePutCoalesced(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := DigestOf("dup")
	if err := st.Put(d, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	before := st.Blocks()
	if err := st.Put(d, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if st.Blocks() != before {
		t.Fatal("duplicate Put appended a second record")
	}
}

// TestStoreDegradedReadOnly: a permanently failing log sync flips the
// store read-only exactly once; warm results keep serving and further
// Puts become silent no-ops.
func TestStoreDegradedReadOnly(t *testing.T) {
	dir := t.TempDir()
	// Warm the store through a healthy mount first.
	h, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := DigestOf("warm")
	if err := h.Put(warm, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	h.Close()

	// Remount with a permanently dying device underneath.
	inj := fault.New(7, fault.Profile{PermanentSyncFrom: 1})
	st, err := OpenStore(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fired := 0
	st.OnDegrade = func(error) { fired++ }
	if deg, _ := st.Degraded(); deg {
		t.Fatal("store degraded before any failure")
	}
	if err := st.Put(DigestOf("doomed"), []byte("never lands")); err == nil {
		t.Fatal("Put over a dead device reported success")
	}
	if deg, derr := st.Degraded(); !deg || derr == nil {
		t.Fatal("store not degraded after sync failure")
	}
	if fired != 1 {
		t.Fatalf("OnDegrade fired %d times, want 1", fired)
	}
	// Degraded semantics: warm reads fine, writes/claims are no-ops.
	if _, ok := st.Get(warm); !ok {
		t.Fatal("warm result lost in degraded mode")
	}
	if err := st.Put(DigestOf("late"), []byte("x")); err != nil {
		t.Fatalf("degraded Put should be a silent no-op, got %v", err)
	}
	if state, err := st.TryClaim(DigestOf("late")); err != nil || state != ClaimAcquired {
		t.Fatalf("degraded TryClaim = %v, %v; want uncontended acquire", state, err)
	}
	if fired != 1 {
		t.Fatalf("OnDegrade re-fired: %d", fired)
	}
}

func mountStore(t *testing.T, dir string, wrap storage.Wrapper) *Store {
	t.Helper()
	st, err := OpenStore(dir, wrap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// stallWrap sleeps for pause before its mount's second block append,
// between the first two blocks of the mount's first record, closing
// paused as the sleep starts; it sets synced once the mount's Sync has
// returned.
type stallWrap struct {
	pause  time.Duration
	paused chan struct{}
	synced atomic.Bool
}

type stallLog struct {
	storage.LogStore
	w       *stallWrap
	appends int
}

func (w *stallWrap) WrapLog(l storage.LogStore) storage.LogStore           { return &stallLog{LogStore: l, w: w} }
func (w *stallWrap) WrapImage(im storage.ImageStore) storage.ImageStore    { return im }
func (w *stallWrap) WrapMarker(mk storage.MarkerStore) storage.MarkerStore { return mk }

func (l *stallLog) AppendBlock(raw []byte) error {
	if l.appends++; l.appends == 2 {
		close(l.w.paused)
		time.Sleep(l.w.pause)
	}
	return l.LogStore.AppendBlock(raw)
}

func (l *stallLog) Sync() error {
	err := l.LogStore.Sync()
	l.w.synced.Store(true)
	return err
}

// threeBlocks is a payload whose record spans three 2 KB blocks.
var threeBlocks = bytes.Repeat([]byte("x"), 5000)

// wantRecords reopens dir and checks that it holds each payload.
func wantRecords(t *testing.T, dir string, want map[[32]byte][]byte) {
	t.Helper()
	st := mountStore(t, dir, nil)
	lost := 0
	for d, p := range want {
		if got, ok := st.Get(d); !ok || !bytes.Equal(got, p) {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("reopened store lost %d of %d acknowledged records", lost, len(want))
	}
}

// TestStorePutWaitsForStalledAppender: an appender that stalls mid-record
// for longer than any lease keeps the append lock; a second mount's Put
// waits for it rather than appending over its blocks.
func TestStorePutWaitsForStalledAppender(t *testing.T) {
	if testing.Short() {
		t.Skip("stalls an append for 6 s")
	}
	dir := t.TempDir()
	w := &stallWrap{pause: 6 * time.Second, paused: make(chan struct{})}
	a, b := mountStore(t, dir, w), mountStore(t, dir, nil)
	da, db := DigestOf("stalled"), DigestOf("behind")
	aerr := make(chan error, 1)
	go func() { aerr <- a.Put(da, threeBlocks) }()
	<-w.paused
	if err := b.Put(db, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if !w.synced.Load() {
		t.Error("Put returned while another mount's append was still in flight")
	}
	if err := <-aerr; err != nil {
		t.Fatal(err)
	}
	wantRecords(t, dir, map[[32]byte][]byte{da: threeBlocks, db: []byte("b")})
}

// TestStoreOpenWaitsForAppendInFlight: a mount opened while another's
// append is in flight must not cut that append as a torn tail.
func TestStoreOpenWaitsForAppendInFlight(t *testing.T) {
	dir := t.TempDir()
	w := &stallWrap{pause: 300 * time.Millisecond, paused: make(chan struct{})}
	a := mountStore(t, dir, w)
	da, dc := DigestOf("in flight"), DigestOf("after boot")
	aerr := make(chan error, 1)
	go func() { aerr <- a.Put(da, threeBlocks) }()
	<-w.paused
	c := mountStore(t, dir, nil)
	if err := <-aerr; err != nil {
		t.Fatal(err)
	}
	if err := c.Put(dc, []byte("c")); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, dir, map[[32]byte][]byte{da: threeBlocks, dc: []byte("c")})
}

// TestStoreDeadHolderLosesClaim: a claim lives as long as its holder's
// process. Killed, the holder's lock goes with it, and the next TryClaim
// wins at once.
func TestStoreDeadHolderLosesClaim(t *testing.T) {
	d := DigestOf("dead holder")
	if dir := os.Getenv("PICL_SERVE_CLAIM_HOLDER"); dir != "" {
		st, err := OpenStore(dir, nil)
		if err == nil {
			if state, _ := st.TryClaim(d); state == ClaimAcquired {
				os.Stdout.WriteString("claimed\n")
			}
		}
		time.Sleep(time.Minute) // until killed
		return
	}
	dir := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^TestStoreDeadHolderLosesClaim$")
	child.Env = append(os.Environ(), "PICL_SERVE_CLAIM_HOLDER="+dir)
	out, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Wait()
	defer child.Process.Kill()
	if line, _ := bufio.NewReader(out).ReadString('\n'); line != "claimed\n" {
		t.Fatalf("holder process did not take the claim: %q", line)
	}
	st := mountStore(t, dir, nil)
	if state, err := st.TryClaim(d); err != nil || state != ClaimHeld {
		t.Fatalf("claim of a live holder = %v, %v; want held", state, err)
	}
	child.Process.Kill()
	child.Wait()
	if state, err := st.TryClaim(d); err != nil || state != ClaimAcquired {
		t.Fatalf("claim after the holder died = %v, %v; want acquired", state, err)
	}
	st.Release(d)
}

// TestStoreReleaseOnlyByHolder: Release from a mount that never took the
// claim leaves the holder's claim in force.
func TestStoreReleaseOnlyByHolder(t *testing.T) {
	dir := t.TempDir()
	a, b := mountStore(t, dir, nil), mountStore(t, dir, nil)
	d := DigestOf("held")
	if state, err := a.TryClaim(d); err != nil || state != ClaimAcquired {
		t.Fatalf("claim = %v, %v", state, err)
	}
	b.Release(d)
	if state, err := b.TryClaim(d); err != nil || state != ClaimHeld {
		t.Fatalf("claim after a non-holder's Release = %v, %v; want held", state, err)
	}
	a.Release(d)
	if state, err := b.TryClaim(d); err != nil || state != ClaimAcquired {
		t.Fatalf("claim after the holder's Release = %v, %v; want acquired", state, err)
	}
	b.Release(d)
}

// TestStoreClaimExclusiveUnderChurn: mounts racing TryClaim against
// Release — whose remove-then-unlock lets a loser lock a file that has
// left its path — never hold one claim twice at once. Each mount runs
// its 2,000 cycles from two goroutines, as a daemon's requests share it.
func TestStoreClaimExclusiveUnderChurn(t *testing.T) {
	dir := t.TempDir()
	d := DigestOf("churn")
	var holders, overlaps, wins atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		st := mountStore(t, dir, nil)
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 1000 {
					state, err := st.TryClaim(d)
					if err != nil {
						t.Error(err)
						return
					}
					if state != ClaimAcquired {
						continue
					}
					wins.Add(1)
					if holders.Add(1) > 1 {
						overlaps.Add(1)
					}
					runtime.Gosched()
					holders.Add(-1)
					st.Release(d)
				}
			}()
		}
	}
	wg.Wait()
	if overlaps.Load() > 0 || wins.Load() == 0 {
		t.Fatalf("%d overlapping holds in %d acquisitions", overlaps.Load(), wins.Load())
	}
}
