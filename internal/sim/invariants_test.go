package sim

import (
	"testing"

	"picl/internal/cache"
	"picl/internal/core"
	"picl/internal/mem"
	"picl/internal/trace"
)

// TestEIDTagRangeInvariant checks the hardware-feasibility invariant from
// paper §IV-A: every live EID tag in the cache hierarchy stays within
// [PersistedEID, SystemEID], and that window stays narrower than the
// 4-bit tag space, so ResolveTag always reconstructs the right epoch.
func TestEIDTagRangeInvariant(t *testing.T) {
	for _, gap := range []int{0, 2, 3} {
		cfg := tinyConfig("picl", 2, false)
		cfg.PiCL = core.Config{ACSGap: gap}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checks := 0
		m.RunUntil(func(_ uint64, instr uint64) bool {
			if instr%25_000 != 0 {
				return false
			}
			checks++
			sys := m.Scheme().SystemEID()
			persisted := m.Scheme().PersistedEID()
			if sys-persisted >= mem.TagMask {
				t.Fatalf("gap=%d: live window %d..%d exceeds 4-bit tag space", gap, persisted, sys)
			}
			m.Hierarchy().LLC().Scan(func(ref cache.LineRef) bool {
				ln := ref.Snapshot()
				if ln.EID == mem.NoEpoch {
					return true
				}
				if ln.EID > sys {
					t.Fatalf("gap=%d: line %v tagged with future epoch %d (system %d)", gap, ln.Addr, ln.EID, sys)
				}
				if ln.Dirty {
					if ln.EID+mem.TagMask < sys {
						t.Fatalf("gap=%d: dirty line %v EID %d undecodable at system %d", gap, ln.Addr, ln.EID, sys)
					}
					if got := mem.ResolveTag(ln.EID.Tag(), sys); got != ln.EID {
						t.Fatalf("gap=%d: tag of %d resolves to %d at system %d", gap, ln.EID, got, sys)
					}
				}
				return true
			})
			return false
		})
		if checks == 0 {
			t.Fatal("invariant never checked")
		}
	}
}

// TestRecoveryIsIdempotent checks that running the recovery procedure
// twice (a crash during recovery, then recovering again) yields the same
// image: recovery only reads durable state and patches a copy.
func TestRecoveryIsIdempotent(t *testing.T) {
	cfg := tinyConfig("picl", 1, true)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	m.Scheme().CrashAt(m.Now())
	img1, eid1, err := m.Scheme().Recover()
	if err != nil {
		t.Fatal(err)
	}
	img2, eid2, err := m.Scheme().Recover()
	if err != nil {
		t.Fatal(err)
	}
	if eid1 != eid2 || !img1.Equal(img2) {
		t.Fatalf("recovery not idempotent: epochs %d/%d, equal=%v", eid1, eid2, img1.Equal(img2))
	}
}

// TestUndoLogStaysOrdered verifies the nondecreasing block-expiration
// invariant survives a realistic PiCL run with GC active.
func TestUndoLogStaysOrdered(t *testing.T) {
	cfg := tinyConfig("picl", 1, false)
	cfg.PiCL = core.Config{ACSGap: 1, BufferEntries: 4}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	p := m.Scheme().(*core.PiCL)
	if err := p.Log().CheckOrdered(); err != nil {
		t.Fatal(err)
	}
	if p.Log().Reclaimed() == 0 {
		t.Fatal("GC never ran during a full run")
	}
}

// TestMulticoreFairness checks no core is starved: with identical
// workloads per core, per-core completion times stay within 2x.
func TestMulticoreFairness(t *testing.T) {
	var gens []trace.Generator
	for i := 0; i < 4; i++ {
		gens = append(gens, trace.NewUniform("u", mem.LineAddr(i)<<24, 1500, 0.3, 4, 99))
	}
	cfg := tinyConfig("picl", 1, false)
	cfg.Workloads = gens
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run()
	perCore := float64(r.Instructions) / 4
	if perCore < float64(cfg.InstrPerCore) {
		t.Fatalf("cores starved: %.0f instructions per core, want >= %d", perCore, cfg.InstrPerCore)
	}
}

// TestSchemesDrainEventually ensures no scheme leaves the persisted
// horizon forever behind after the run ends and the queue drains.
func TestSchemesDrainEventually(t *testing.T) {
	for _, scheme := range SchemeNames() {
		if scheme == "ideal" {
			continue
		}
		m, err := New(tinyConfig(scheme, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		m.Scheme().Tick(m.Controller().Drain() + 1)
		sys := m.Scheme().SystemEID()
		persisted := m.Scheme().PersistedEID()
		maxLag := mem.EpochID(4) // PiCL's default ACS-gap + 1
		if persisted+maxLag < sys {
			t.Fatalf("%s: persisted %d lags system %d beyond the ACS gap after drain", scheme, persisted, sys)
		}
	}
}

// TestSharedMemoryCrashRecovery runs a true multi-threaded workload
// (cores contending on one shared region) under PiCL and verifies crash
// recovery stays bit-exact — the §IV-C claim that shared structures are
// protected by the system-wide epoch.
func TestSharedMemoryCrashRecovery(t *testing.T) {
	sg := trace.NewSharedGroup(1<<30, 200)
	var gens []trace.Generator
	for i := 0; i < 4; i++ {
		private := trace.NewUniform("p", mem.LineAddr(i)<<20, 800, 0.4, 3, uint64(i)+5)
		gens = append(gens, sg.Wrap(private, 0.3, uint64(i)*31+7))
	}
	cfg := tinyConfig("picl", 1, true)
	cfg.Workloads = gens
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if _, err := m.CrashAndRecover(m.Now()); err != nil {
		t.Fatal(err)
	}
	if err := m.Hierarchy().CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	if err := m.Hierarchy().CheckOwnership(); err != nil {
		t.Fatal(err)
	}
	if err := m.Hierarchy().CheckDirtySummary(); err != nil {
		t.Fatal(err)
	}
}

// TestOSHandlerStoresHappen checks the §V-A epoch-boundary handler: each
// commit spills per-core architectural state with cacheable stores, which
// become cross-epoch stores (fresh undo entries) every single epoch.
func TestOSHandlerStoresHappen(t *testing.T) {
	cfg := tinyConfig("picl", 2, true)
	cfg.OSHandlerLines = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run()
	// The save area must hold state for both cores.
	for core := 0; core < 2; core++ {
		l := osSaveArea + mem.LineAddr(core*64)
		if m.Reference().Read(l) == 0 {
			t.Fatalf("core %d OS save area never written", core)
		}
	}
	if r.Commits == 0 {
		t.Fatal("no commits")
	}
	// Crash-recovery still exact with handler traffic in the mix.
	if _, err := m.CrashAndRecover(m.Now()); err != nil {
		t.Fatal(err)
	}
	// Disabled handler writes nothing.
	cfg2 := tinyConfig("picl", 1, true)
	cfg2.OSHandlerLines = -1
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	m2.Run()
	if m2.Reference().Read(osSaveArea) != 0 {
		t.Fatal("disabled OS handler still wrote")
	}
}

// TestTimelineSampling checks the per-epoch timeline: samples cover the
// run, and a stop-the-world scheme shows its boundary stalls in them.
func TestTimelineSampling(t *testing.T) {
	cfg := tinyConfig("frm", 1, false)
	cfg.Timeline = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run()
	if len(r.Timeline) == 0 {
		t.Fatal("no timeline samples")
	}
	var stall, cyc uint64
	for _, e := range r.Timeline {
		stall += e.StallCycles
		cyc += e.Cycles
	}
	if stall == 0 {
		t.Fatal("frm timeline shows no boundary stalls")
	}
	if stall != r.BoundaryStallCycles {
		t.Fatalf("timeline stall %d != total %d", stall, r.BoundaryStallCycles)
	}
	if cyc > r.Cycles {
		t.Fatalf("timeline cycles %d exceed run %d", cyc, r.Cycles)
	}
	// Without the flag, no samples.
	m2, _ := New(tinyConfig("frm", 1, false))
	if got := m2.Run().Timeline; len(got) != 0 {
		t.Fatalf("timeline recorded without flag: %d", len(got))
	}
}
