package core

import (
	"bytes"
	"math/rand"
	"testing"

	"picl/internal/cache"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/undolog"
)

// rig wires PiCL to a tiny hierarchy and keeps a golden reference of
// end-of-epoch memory states for recovery checking.
type rig struct {
	t      *testing.T
	p      *PiCL
	h      *cache.Hierarchy
	ctl    *nvm.Controller
	now    uint64
	ref    *mem.Image
	golden []*mem.Image
	seq    uint64
}

func newRig(t *testing.T, cfg Config) *rig {
	ctl := nvm.NewController(nvm.DefaultConfig())
	p := New(cfg, ctl, true)
	hcfg := cache.HierarchyConfig{
		Cores: 1,
		L1:    cache.Config{Name: "l1", Size: 512, Ways: 2, Latency: 1},
		L2:    cache.Config{Name: "l2", Size: 1024, Ways: 2, Latency: 4},
		LLC:   cache.Config{Name: "llc", Size: 4096, Ways: 4, Latency: 30},
	}
	h := cache.NewHierarchy(hcfg, p, p)
	p.Attach(h)
	r := &rig{t: t, p: p, h: h, ctl: ctl, ref: mem.NewImage()}
	r.golden = append(r.golden, r.ref.Clone()) // epoch 0 = initial state
	return r
}

func (r *rig) store(l mem.LineAddr, w mem.Word) {
	r.now += 10
	stall := r.h.Store(r.now, 0, l, w)
	if stall > r.now {
		r.now = stall
	}
	r.ref.Write(l, w)
	r.seq++
}

func (r *rig) load(l mem.LineAddr) mem.Word {
	r.now += 10
	data, done := r.h.Load(r.now, 0, l)
	r.now = done
	return data
}

func (r *rig) boundary() {
	r.now += 100
	r.golden = append(r.golden, r.ref.Clone())
	resume := r.p.EpochBoundary(r.now)
	if resume > r.now {
		r.now = resume
	}
}

// settleAll advances time past every queued NVM write.
func (r *rig) settleAll() {
	r.now = r.ctl.Drain() + 1
	r.p.Tick(r.now)
}

// checkRecovery crashes at time t and verifies the recovered image is
// exactly the golden state of the reported epoch.
func (r *rig) checkRecovery(t uint64) {
	r.p.CrashAt(t)
	img, eid, err := r.p.Recover()
	if err != nil {
		r.t.Fatal(err)
	}
	if int(eid) >= len(r.golden) {
		r.t.Fatalf("recovered to epoch %d but only %d epochs committed", eid, len(r.golden)-1)
	}
	want := r.golden[eid]
	if !img.Equal(want) {
		r.t.Fatalf("recovery to epoch %d mismatch: diff=%v (of %d lines)",
			eid, img.Diff(want, 5), want.Len())
	}
}

func TestEpochNumberingStartsAtOne(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if r.p.SystemEID() != 1 || r.p.PersistedEID() != 0 {
		t.Fatalf("initial EIDs: system=%d persisted=%d", r.p.SystemEID(), r.p.PersistedEID())
	}
}

func TestPersistTrailsByACSGap(t *testing.T) {
	r := newRig(t, Config{ACSGap: 3})
	for e := 1; e <= 6; e++ {
		for i := 0; i < 5; i++ {
			r.store(mem.LineAddr(i), mem.Word(e*100+i))
		}
		r.boundary()
	}
	r.settleAll()
	// 6 commits, gap 3: epochs 1..3 persisted.
	if got := r.p.PersistedEID(); got != 3 {
		t.Fatalf("PersistedEID = %d, want 3", got)
	}
	if got := r.p.SystemEID(); got != 7 {
		t.Fatalf("SystemEID = %d, want 7", got)
	}
	if got := r.p.Commits(); got != 6 {
		t.Fatalf("Commits = %d, want 6", got)
	}
}

func TestACSGapZeroPersistsImmediately(t *testing.T) {
	r := newRig(t, Config{ACSGap: 0})
	r.store(1, 11)
	r.boundary()
	r.settleAll()
	if got := r.p.PersistedEID(); got != 1 {
		t.Fatalf("PersistedEID = %d, want 1", got)
	}
}

func TestACSWritesBackOnlyTargetEpochs(t *testing.T) {
	r := newRig(t, Config{ACSGap: 1})
	r.store(1, 100) // epoch 1
	r.boundary()
	r.store(2, 200) // epoch 2
	r.boundary()    // commits 2, ACS target 1: flushes line 1 only
	llc := r.h.LLC()
	ln1 := llc.Lookup(1, false)
	if !ln1.Ok() || ln1.Dirty() {
		t.Fatalf("epoch-1 line not cleaned by ACS: %+v", ln1.Snapshot())
	}
	ln2 := llc.Lookup(2, false)
	if !ln2.Ok() || !ln2.Dirty() {
		t.Fatalf("epoch-2 line wrongly flushed: %+v", ln2.Snapshot())
	}
	r.settleAll()
	if r.p.Cur.Read(1) != 100 {
		t.Fatal("ACS write-back did not reach NVM")
	}
}

func TestRecoveryAfterCleanShutdown(t *testing.T) {
	r := newRig(t, Config{ACSGap: 2})
	for e := 1; e <= 5; e++ {
		for i := 0; i < 8; i++ {
			r.store(mem.LineAddr(i%5), mem.Word(e*1000+i))
		}
		r.boundary()
	}
	r.settleAll()
	r.checkRecovery(r.now)
	// With gap 2 and all writes drained, recovery lands on epoch 3.
	if got := r.p.DurableMarker(); got != 3 {
		t.Fatalf("durable marker = %d, want 3", got)
	}
}

func TestRecoveryMidEpochCrash(t *testing.T) {
	r := newRig(t, Config{ACSGap: 1})
	for e := 1; e <= 4; e++ {
		for i := 0; i < 10; i++ {
			r.store(mem.LineAddr(i), mem.Word(e*100+i))
		}
		r.boundary()
	}
	// Crash immediately: many writes still in flight.
	r.checkRecovery(r.now)
}

func TestRandomizedCrashRecovery(t *testing.T) {
	// The central ACID property: for random traces, random configs and a
	// random crash instant, recovery reproduces exactly the golden image
	// of the epoch the durable marker names.
	rnd := rand.New(rand.NewSource(2018))
	for trial := 0; trial < 40; trial++ {
		cfg := Config{
			ACSGap:        rnd.Intn(4),
			BufferEntries: []int{4, 8, undolog28()}[rnd.Intn(3)],
		}
		r := newRig(t, cfg)
		nEpochs := rnd.Intn(6) + 1
		for e := 0; e < nEpochs; e++ {
			for i := 0; i < rnd.Intn(60); i++ {
				l := mem.LineAddr(rnd.Intn(40))
				if rnd.Intn(4) == 0 {
					r.load(l)
				} else {
					r.store(l, mem.Word(rnd.Uint64()|1))
				}
			}
			r.boundary()
		}
		// Crash at a random instant between "now" and full drain.
		crash := r.now
		if extra := r.ctl.Drain(); extra > crash && rnd.Intn(2) == 0 {
			crash += uint64(rnd.Int63n(int64(extra - crash + 1)))
		}
		r.checkRecovery(crash)
	}
}

// undolog28 avoids importing undolog in the test just for the constant.
func undolog28() int { return 28 }

func TestBloomDependencyForcesBufferFlush(t *testing.T) {
	// Store to a line (creating a buffered undo entry), then force that
	// line's eviction by filling its LLC set: the eviction must flush the
	// undo buffer first (write-ahead ordering).
	r := newRig(t, Config{ACSGap: 3, BufferEntries: 1000}) // buffer never fills on its own
	r.store(0, 42)
	// LLC has 16 sets; lines 0,16,32,64,... map to set 0. 4 ways.
	for i := 1; i <= 4; i++ {
		r.store(mem.LineAddr(i*16), mem.Word(i))
	}
	if got := r.p.Counters().Get("dependency_flushes"); got == 0 {
		t.Fatal("eviction of a bloom-matched line did not flush the undo buffer")
	}
	// And recovery still works.
	r.checkRecovery(r.now)
}

func TestBufferFlushIsSequentialWrite(t *testing.T) {
	r := newRig(t, Config{ACSGap: 3, BufferEntries: 4})
	for i := 0; i < 8; i++ {
		r.store(mem.LineAddr(i), mem.Word(i))
	}
	s := r.ctl.Stats()
	if got := s.Count[nvm.OpSeqBlockWrite]; got != 2 {
		t.Fatalf("sequential block writes = %d, want 2 (8 entries / 4 per buffer)", got)
	}
	if got := r.p.Counters().Get("buffer_flushes"); got != 2 {
		t.Fatalf("buffer_flushes = %d, want 2", got)
	}
}

func TestSameEpochRestoreCreatesOneUndo(t *testing.T) {
	r := newRig(t, DefaultConfig())
	for i := 0; i < 10; i++ {
		r.store(7, mem.Word(i+1)) // ten stores, same line, same epoch
	}
	if got := r.p.Counters().Get("undo_entries"); got != 1 {
		t.Fatalf("undo_entries = %d, want 1 (transient stores log nothing)", got)
	}
	r.boundary()
	r.store(7, 999) // cross-epoch store: second entry
	if got := r.p.Counters().Get("undo_entries"); got != 2 {
		t.Fatalf("undo_entries = %d, want 2 after cross-epoch store", got)
	}
}

func TestTagSpaceInvariant(t *testing.T) {
	r := newRig(t, Config{ACSGap: 3})
	for e := 0; e < 40; e++ {
		r.store(mem.LineAddr(e%7), mem.Word(e))
		r.boundary()
		if gap := r.p.SystemEID() - r.p.PersistedEID(); gap >= mem.TagMask {
			t.Fatalf("tag-space invariant violated after epoch %d: gap=%d", e, gap)
		}
	}
}

func TestLogGCReclaims(t *testing.T) {
	r := newRig(t, Config{ACSGap: 1, BufferEntries: 2})
	for e := 0; e < 10; e++ {
		for i := 0; i < 20; i++ {
			r.store(mem.LineAddr(i), mem.Word(e*100+i))
		}
		r.boundary()
		r.settleAll()
	}
	if r.p.Log().Reclaimed() == 0 {
		t.Fatal("garbage collection never reclaimed expired blocks")
	}
	if err := r.p.Log().CheckOrdered(); err != nil {
		t.Fatal(err)
	}
	// GC must not break recovery.
	r.checkRecovery(r.now)
}

func TestRecoveryRequiresFunctional(t *testing.T) {
	p := New(DefaultConfig(), nvm.NewController(nvm.DefaultConfig()), false)
	if _, _, err := p.Recover(); err == nil {
		t.Fatal("timing-only PiCL must refuse Recover")
	}
}

func TestRecoveryEstimateGrowsWithLog(t *testing.T) {
	r := newRig(t, Config{ACSGap: 3, BufferEntries: 2})
	base := r.p.RecoveryEstimate()
	for i := 0; i < 100; i++ {
		r.store(mem.LineAddr(i), 1)
	}
	if got := r.p.RecoveryEstimate(); got <= base {
		t.Fatalf("recovery estimate did not grow: %d -> %d", base, got)
	}
}

func TestForcePersistBulkACS(t *testing.T) {
	r := newRig(t, Config{ACSGap: 3})
	for e := 0; e < 2; e++ {
		for i := 0; i < 20; i++ {
			r.store(mem.LineAddr(i), mem.Word(e*100+i))
		}
		r.boundary()
	}
	if r.p.PersistedEID() != 0 {
		t.Fatalf("persisted = %d before force, want 0", r.p.PersistedEID())
	}
	// ForcePersist ends epoch 3 and makes epochs 1..3 durable in one
	// bulk ACS pass.
	r.golden = append(r.golden, r.ref.Clone())
	resume := r.p.ForcePersist(r.now)
	if r.p.PersistedEID() != 3 || r.p.SystemEID() != 4 {
		t.Fatalf("after force: persisted=%d system=%d", r.p.PersistedEID(), r.p.SystemEID())
	}
	if resume < r.now {
		t.Fatal("force persist resumed in the past")
	}
	if r.p.Counters().Get("bulk_acs") != 1 {
		t.Fatal("bulk_acs not counted")
	}
	r.now = resume + 1
	r.checkRecovery(r.now)
	// The recovery must land exactly on the forced epoch.
	if got := r.p.DurableMarker(); got != 3 {
		t.Fatalf("durable marker = %d, want 3", got)
	}
}

func TestRecoverToEveryRetainedEpoch(t *testing.T) {
	r := newRig(t, Config{ACSGap: 1, BufferEntries: 4, RetainEpochs: 100})
	const epochs = 8
	for e := 1; e <= epochs; e++ {
		for i := 0; i < 15; i++ {
			r.store(mem.LineAddr(i%9), mem.Word(e*1000+i))
		}
		r.boundary()
		r.settleAll()
	}
	marker := r.p.DurableMarker()
	if marker == 0 {
		t.Fatal("nothing persisted")
	}
	// Point-in-time recovery to every epoch from 0 to the marker must
	// reproduce the golden snapshot of that epoch exactly.
	for e := mem.EpochID(0); e <= marker; e++ {
		img, err := r.p.RecoverTo(e)
		if err != nil {
			t.Fatalf("RecoverTo(%d): %v", e, err)
		}
		if !img.Equal(r.golden[e]) {
			t.Fatalf("RecoverTo(%d) mismatch: %v", e, img.Diff(r.golden[e], 4))
		}
	}
	// Beyond the marker: refused.
	if _, err := r.p.RecoverTo(marker + 1); err == nil {
		t.Fatal("recovered to an unpersisted epoch")
	}
}

func TestRecoverToRespectsGCFloor(t *testing.T) {
	r := newRig(t, Config{ACSGap: 1, BufferEntries: 2, RetainEpochs: 0})
	for e := 1; e <= 10; e++ {
		for i := 0; i < 20; i++ {
			r.store(mem.LineAddr(i), mem.Word(e*100+i))
		}
		r.boundary()
		r.settleAll()
	}
	if r.p.Log().Reclaimed() == 0 {
		t.Skip("no GC at this scale; floor untestable")
	}
	marker := r.p.DurableMarker()
	// The marker epoch itself always recovers.
	if _, err := r.p.RecoverTo(marker); err != nil {
		t.Fatal(err)
	}
	// Epoch 0 is long since collected with zero retention.
	if _, err := r.p.RecoverTo(0); err == nil {
		t.Fatal("GC'd epoch recovered without error")
	}
}

func TestRecoveryFromSerializedLogBytes(t *testing.T) {
	// The OS recovery path in hardware reads raw NVM bytes: serialize
	// the durable log to its byte representation, parse it back, and
	// verify recovery through the reconstructed log matches.
	r := newRig(t, Config{ACSGap: 2, BufferEntries: 4})
	for e := 0; e < 5; e++ {
		for i := 0; i < 25; i++ {
			r.store(mem.LineAddr(i%12), mem.Word(e*100+i))
		}
		r.boundary()
	}
	r.p.CrashAt(r.now)
	var buf bytes.Buffer
	if _, err := r.p.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, _, err := undolog.ReadLog(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	marker := r.p.DurableMarker()
	direct, _, err := r.p.Recover()
	if err != nil {
		t.Fatal(err)
	}
	viaBytes := r.p.Cur.Clone()
	reloaded.ApplyTo(viaBytes, marker)
	if !direct.Equal(viaBytes) {
		t.Fatalf("byte-level recovery diverges: %v", direct.Diff(viaBytes, 5))
	}
	if !direct.Equal(r.golden[marker]) {
		t.Fatalf("recovery wrong vs golden: %v", direct.Diff(r.golden[marker], 5))
	}
}

func TestFillCountsDemandRead(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.load(12345)
	if got := r.ctl.Stats().Count[nvm.OpDemandRead]; got != 1 {
		t.Fatalf("demand reads = %d, want 1", got)
	}
}
