package serve

import (
	"os"
	"path/filepath"
	"testing"
	"time"

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

func TestStoreStealStaleLease(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Lease = 50 * time.Millisecond
	d := DigestOf("orphaned")
	if state, _ := st.TryClaim(d); state != ClaimAcquired {
		t.Fatal("setup claim failed")
	}
	// Age the claim past the lease: the holder "crashed".
	old := time.Now().Add(-time.Second)
	if err := os.Chtimes(st.claimPath(d), old, old); err != nil {
		t.Fatal(err)
	}
	state, err := st.TryClaim(d)
	if err != nil || state != ClaimStolen {
		t.Fatalf("stale claim = %v, %v; want stolen", state, err)
	}
	state, err = st.TryClaim(d)
	if err != nil || state != ClaimAcquired {
		t.Fatalf("re-contend after steal = %v, %v; want acquired", state, err)
	}
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

func TestAcquireLockFileStealsStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.lock")
	if err := acquireLockFile(path, 40*time.Millisecond, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Second acquire must wait out the TTL, then steal.
	start := time.Now()
	if err := acquireLockFile(path, 40*time.Millisecond, time.Millisecond); err != nil {
		t.Fatalf("steal failed: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("steal took implausibly long")
	}
	os.Remove(path)
}
