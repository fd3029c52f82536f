package cache

import (
	"math/rand"
	"testing"

	"picl/internal/mem"
)

// flatBackend is a plain memory image with fixed latency and a record of
// every dirty eviction it receives.
type flatBackend struct {
	img       *mem.Image
	fills     int
	evictions []DirtyLine
}

func newFlatBackend() *flatBackend { return &flatBackend{img: mem.NewImage()} }

func (b *flatBackend) Fill(now uint64, l mem.LineAddr) (mem.Word, uint64) {
	b.fills++
	return b.img.Read(l), now + 256
}

func (b *flatBackend) EvictDirty(now uint64, l mem.LineAddr, data mem.Word, eid mem.EpochID) uint64 {
	b.img.Write(l, data)
	b.evictions = append(b.evictions, DirtyLine{Addr: l, Data: data, EID: eid})
	return now
}

// epochObserver tags stores with a fixed current epoch and records the
// pre-store images it saw.
type epochObserver struct {
	system mem.EpochID
	seen   []DirtyLine
	mods   []bool
}

func (o *epochObserver) OnStore(now uint64, l mem.LineAddr, old mem.Word, oldEID mem.EpochID, wasModified bool) (mem.EpochID, uint64) {
	o.seen = append(o.seen, DirtyLine{Addr: l, Data: old, EID: oldEID})
	o.mods = append(o.mods, wasModified)
	return o.system, now
}

func tinyHierarchy(cores int) (*Hierarchy, *flatBackend, *epochObserver) {
	b := newFlatBackend()
	o := &epochObserver{system: 1}
	cfg := HierarchyConfig{
		Cores: cores,
		L1:    Config{Name: "l1", Size: 512, Ways: 2, Latency: 1},
		L2:    Config{Name: "l2", Size: 1024, Ways: 2, Latency: 4},
		LLC:   Config{Name: "llc", Size: 4096, Ways: 4, Latency: 30},
	}
	return NewHierarchy(cfg, b, o), b, o
}

func TestLoadMissFillsAllLevels(t *testing.T) {
	h, b, _ := tinyHierarchy(1)
	b.img.Write(7, 77)
	data, done := h.Load(0, 0, 7)
	if data != 77 {
		t.Fatalf("load = %v, want 77", data)
	}
	if done < 256 {
		t.Fatalf("miss latency = %d, want >= memory fill 256", done)
	}
	for _, c := range []*Cache{h.L1(0), h.L2(0)} {
		if !c.Lookup(7, false).Ok() {
			t.Fatalf("%s missing line after fill", c.Config().Name)
		}
	}
	// The line's one record, in its LLC way.
	if ln := h.LLC().Lookup(7, false); !ln.Ok() || ln.Data() != 77 || ln.Dirty() || ln.EID() != mem.NoEpoch {
		t.Fatalf("LLC record after fill = %+v, want clean data 77 with NoEpoch", ln.Snapshot())
	}
	// Second load is an L1 hit: 1 cycle.
	_, done2 := h.Load(1000, 0, 7)
	if done2 != 1001 {
		t.Fatalf("L1 hit latency = %d, want 1", done2-1000)
	}
	if b.fills != 1 {
		t.Fatalf("fills = %d, want 1", b.fills)
	}
}

func TestHitLatenciesByLevel(t *testing.T) {
	h, _, _ := tinyHierarchy(1)
	h.Load(0, 0, 3) // install everywhere
	// Evict from L1 only, by filling its set.
	h.L1(0).Invalidate(3)
	_, done := h.Load(100, 0, 3)
	if want := uint64(100 + 1 + 4); done != want {
		t.Fatalf("L2 hit completes at %d, want %d", done, want)
	}
	h.L1(0).Invalidate(3)
	h.L2(0).Invalidate(3)
	_, done = h.Load(200, 0, 3)
	if want := uint64(200 + 1 + 4 + 30); done != want {
		t.Fatalf("LLC hit completes at %d, want %d", done, want)
	}
}

func TestStoreObservationAndEIDForwarding(t *testing.T) {
	h, b, o := tinyHierarchy(1)
	b.img.Write(9, 90)
	h.Store(0, 0, 9, 91)
	if len(o.seen) != 1 {
		t.Fatalf("observer saw %d stores, want 1", len(o.seen))
	}
	if o.seen[0].Data != 90 || o.seen[0].EID != mem.NoEpoch {
		t.Fatalf("pre-store observation = %+v", o.seen[0])
	}
	if o.mods[0] {
		t.Fatal("first store to a clean line reported wasModified")
	}
	if !h.L1(0).Lookup(9, false).Ok() {
		t.Fatal("the store did not bring line 9 into L1")
	}
	lln := h.LLC().Lookup(9, false)
	if !lln.Ok() || !lln.Dirty() || lln.EID() != 1 || lln.Data() != 91 {
		t.Fatalf("LLC record after store = %+v (EID forwarding broken)", lln.Snapshot())
	}

	// Same-epoch second store: observer still sees it, wasModified true.
	h.Store(0, 0, 9, 92)
	if !o.mods[1] {
		t.Fatal("second store did not report wasModified")
	}
	if o.seen[1].Data != 91 || o.seen[1].EID != 1 {
		t.Fatalf("second pre-store observation = %+v", o.seen[1])
	}
}

func TestCrossEpochStoreSeesOldEID(t *testing.T) {
	h, _, o := tinyHierarchy(1)
	h.Store(0, 0, 5, 50) // epoch 1
	o.system = 2
	h.Store(0, 0, 5, 51) // epoch 2: pre-store EID must be 1
	last := o.seen[len(o.seen)-1]
	if last.EID != 1 || last.Data != 50 {
		t.Fatalf("cross-epoch observation = %+v", last)
	}
	if got := h.LLC().Lookup(5, false).EID(); got != 2 {
		t.Fatalf("LLC EID = %v, want 2", got)
	}
}

func TestDirtyEvictionReachesBackendWithFreshData(t *testing.T) {
	h, b, _ := tinyHierarchy(1)
	// Dirty a line, then force it out of the LLC by filling its set.
	h.Store(0, 0, 0, 1000)
	// LLC: 4096 B / 64 / 4 ways = 16 sets; lines 0,16,32,... share set 0.
	for i := 1; i <= 4; i++ {
		h.Load(uint64(i*1000), 0, mem.LineAddr(i*16))
	}
	if b.img.Read(0) != 1000 {
		t.Fatalf("memory image = %v, want 1000 (dirty eviction lost)", b.img.Read(0))
	}
	found := false
	for _, ev := range b.evictions {
		if ev.Addr == 0 && ev.Data == 1000 && ev.EID == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("eviction record missing: %+v", b.evictions)
	}
	// Private copies must be back-invalidated (inclusion).
	if h.L1(0).Lookup(0, false).Ok() || h.L2(0).Lookup(0, false).Ok() {
		t.Fatal("LLC eviction left private copies behind")
	}
}

// TestFlushDirtySnoopsPrivateData: a flush returns the data of a store
// made through the L1, cleans the line and leaves every copy valid.
// The record in the LLC way holds that data, so nothing is snooped.
func TestFlushDirtySnoopsPrivateData(t *testing.T) {
	h, _, _ := tinyHierarchy(1)
	h.Store(0, 0, 3, 33)
	flushed := h.FlushDirty(nil)
	if len(flushed) != 1 || flushed[0].Addr != 3 || flushed[0].Data != 33 || flushed[0].EID != 1 {
		t.Fatalf("flushed = %+v", flushed)
	}
	// All copies clean but still valid.
	if h.DirtyCount() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
	if !h.L1(0).Lookup(3, false).Ok() || !h.L2(0).Lookup(3, false).Ok() {
		t.Fatal("flush invalidated the line; it must only clean it")
	}
	if ln := h.LLC().Lookup(3, false); !ln.Ok() || ln.Dirty() || ln.Data() != 33 {
		t.Fatalf("LLC record after flush = %+v, want clean data 33", ln.Snapshot())
	}
	// Second flush is empty.
	if again := h.FlushDirty(nil); len(again) != 0 {
		t.Fatalf("second flush returned %+v", again)
	}
}

func TestFlushDirtyPredicate(t *testing.T) {
	h, _, o := tinyHierarchy(1)
	h.Store(0, 0, 1, 11) // epoch 1
	o.system = 2
	h.Store(0, 0, 2, 22) // epoch 2
	flushed := h.FlushDirty(func(l mem.LineAddr, e mem.EpochID) bool { return e <= 1 })
	if len(flushed) != 1 || flushed[0].Addr != 1 {
		t.Fatalf("predicate flush = %+v", flushed)
	}
	if h.DirtyCount() != 1 {
		t.Fatalf("dirty count = %d, want 1 (epoch-2 line remains)", h.DirtyCount())
	}
}

func TestInclusionInvariantUnderRandomTraffic(t *testing.T) {
	h, b, o := tinyHierarchy(2)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		core := r.Intn(2)
		l := mem.LineAddr(core*100000 + r.Intn(300))
		if r.Intn(3) == 0 {
			h.Store(uint64(i), core, l, mem.Word(i))
		} else {
			h.Load(uint64(i), core, l)
		}
		if i%4000 == 0 {
			if err := checkInvariants(h); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			o.system++
		}
	}
	if err := checkInvariants(h); err != nil {
		t.Fatal(err)
	}
	_ = b
}

// checkInvariants runs the hierarchy's invariant checks: inclusion,
// ownership and the dirty-set summary.
func checkInvariants(h *Hierarchy) error {
	if err := h.CheckInclusion(); err != nil {
		return err
	}
	if err := h.CheckOwnership(); err != nil {
		return err
	}
	return h.CheckDirtySummary()
}

// TestCheckOwnershipCatchesStaleOwner: an L1/L2 line whose LLC copy is
// unowned or owned by another core fails the check; fetch's LLC-first
// probe would skip the scans that find it.
func TestCheckOwnershipCatchesStaleOwner(t *testing.T) {
	h, _, _ := tinyHierarchy(2)
	h.Load(0, 1, 7)
	if err := h.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
	for _, own := range []int{-1, 0} {
		h.LLC().Lookup(7, false).SetOwner(own)
		if err := h.CheckOwnership(); err == nil {
			t.Fatalf("core 1 holds line 7 privately, its LLC copy is owned by %d, and CheckOwnership passed", own)
		}
	}
	h.LLC().Lookup(7, false).SetOwner(1)
	h.LLC().Invalidate(7)
	if err := h.CheckOwnership(); err == nil {
		t.Fatal("core 1 holds line 7 privately with no LLC copy, and CheckOwnership passed")
	}
}

// TestCheckInclusionCatchesStaleIdx: a private line whose idx names an
// LLC way holding another line, or whose LLC copy is gone, fails the
// check. idx is how a private hit reaches the line's record, so it must
// be exact.
func TestCheckInclusionCatchesStaleIdx(t *testing.T) {
	h, _, _ := tinyHierarchy(1)
	h.Load(0, 0, 7)
	h.Load(1, 0, 8)
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	l2 := h.L2(0)
	i7 := l2.find(7)
	good := l2.idx[i7]
	l2.idx[i7] = l2.idx[l2.find(8)]
	if err := h.CheckInclusion(); err == nil {
		t.Fatal("L2's idx for line 7 names line 8's LLC way, and CheckInclusion passed")
	}
	l2.idx[i7] = good
	h.LLC().Invalidate(7)
	if err := h.CheckInclusion(); err == nil {
		t.Fatal("core 0 holds line 7 privately with no LLC copy, and CheckInclusion passed")
	}
}

func TestFunctionalCoherence(t *testing.T) {
	// The hierarchy must behave as a memory: loads return the last value
	// stored, across arbitrary evictions.
	h, _, o := tinyHierarchy(1)
	r := rand.New(rand.NewSource(7))
	ref := make(map[mem.LineAddr]mem.Word)
	for i := 0; i < 50000; i++ {
		l := mem.LineAddr(r.Intn(500))
		if r.Intn(2) == 0 {
			w := mem.Word(i + 1)
			h.Store(uint64(i), 0, l, w)
			ref[l] = w
		} else {
			got, _ := h.Load(uint64(i), 0, l)
			if got != ref[l] {
				t.Fatalf("iteration %d: load(%v) = %v, want %v", i, l, got, ref[l])
			}
		}
		if i%10000 == 0 {
			o.system++
		}
	}
}

func TestCrossCoreMigration(t *testing.T) {
	// Core 0 writes, core 1 reads: the hierarchy must migrate the dirty
	// data (multiprogrammed workloads never do this, but the model stays
	// functionally correct if it happens).
	h, _, _ := tinyHierarchy(2)
	h.Store(0, 0, 8, 88)
	got, _ := h.Load(100, 1, 8)
	if got != 88 {
		t.Fatalf("cross-core load = %v, want 88", got)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushPropagatesFreshDataToAllLevels(t *testing.T) {
	// Regression: after a flush cleans a line stored through the L1, a
	// re-fetch through the L2 must see the fresh data — a model with a
	// copy per level once exposed the L2's stale fill data here (found
	// by the PiCL randomized crash-recovery property test). With one
	// record per line, every level reaches the same data.
	h, _, o := tinyHierarchy(1)
	h.Load(0, 0, 6)       // line cached everywhere with fill data 0
	h.Store(10, 0, 6, 66) // stored through the L1
	h.FlushDirty(nil)
	for _, c := range []*Cache{h.L1(0), h.L2(0)} {
		if !c.Lookup(6, false).Ok() {
			t.Fatalf("%s lost line 6 in a flush", c.Config().Name)
		}
	}
	if ln := h.LLC().Lookup(6, false); !ln.Ok() || ln.Data() != 66 || ln.Dirty() {
		t.Fatalf("LLC record after flush = %+v, want clean data 66", ln.Snapshot())
	}
	// Drop the (clean) L1 copy and re-fetch through the L2: the load and
	// the observer of the next store must both see 66.
	h.L1(0).Invalidate(6)
	if got, _ := h.Load(15, 0, 6); got != 66 {
		t.Fatalf("re-fetch after flush = %v, want 66", got)
	}
	h.L1(0).Invalidate(6)
	o.seen = nil
	h.Store(20, 0, 6, 67)
	if len(o.seen) != 1 || o.seen[0].Data != 66 {
		t.Fatalf("pre-store observation after flush = %+v, want old data 66", o.seen)
	}
}

func TestDefaultHierarchyConfig(t *testing.T) {
	cfg := DefaultHierarchyConfig(8)
	if cfg.LLC.Size != 8*(2<<20) {
		t.Fatalf("LLC size = %d, want 16 MiB", cfg.LLC.Size)
	}
	if cfg.Cores != 8 || cfg.L1.Size != 32<<10 || cfg.L2.Size != 256<<10 {
		t.Fatalf("config = %+v", cfg)
	}
	// Table IV latencies.
	if cfg.L1.Latency != 1 || cfg.L2.Latency != 4 || cfg.LLC.Latency != 30 {
		t.Fatalf("latencies = %+v", cfg)
	}
}

func TestHierarchyAccessorsAndReset(t *testing.T) {
	h, _, _ := tinyHierarchy(1)
	if h.Config().Cores != 1 {
		t.Fatalf("Config = %+v", h.Config())
	}
	if got := h.L1(0).Config().Name; got != "l1.0" {
		t.Fatalf("L1 name = %q", got)
	}
	h.Store(0, 0, 5, 55)
	h.Reset()
	if h.DirtyCount() != 0 || h.LLC().Lookup(5, false).Ok() {
		t.Fatal("Reset left state")
	}
	h.Store(10, 0, 6, 66)
	if got, _ := h.Load(20, 0, 6); got != 66 {
		t.Fatalf("post-reset load = %v", got)
	}
}
