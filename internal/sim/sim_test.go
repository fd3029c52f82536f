package sim

import (
	"math/rand"
	"testing"

	"picl/internal/baselines"
	"picl/internal/cache"
	"picl/internal/core"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/trace"
)

func tinyConfig(scheme string, cores int, functional bool) Config {
	var gens []trace.Generator
	for i := 0; i < cores; i++ {
		gens = append(gens, trace.NewUniform(
			"u", mem.LineAddr(i)<<20, 2000, 0.3, 4, uint64(i)+1))
	}
	// A proportionally shrunken Table IV hierarchy so the 2000-line
	// (128 KiB) footprint produces realistic eviction traffic.
	h := cache.HierarchyConfig{
		Cores: cores,
		L1:    cache.Config{Name: "l1", Size: 1 << 10, Ways: 4, Latency: 1},
		L2:    cache.Config{Name: "l2", Size: 8 << 10, Ways: 8, Latency: 4},
		LLC:   cache.Config{Name: "llc", Size: cores * (32 << 10), Ways: 8, Latency: 30},
	}
	return Config{
		Scheme:       scheme,
		Workloads:    gens,
		Hierarchy:    &h,
		EpochInstr:   50_000,
		InstrPerCore: 200_000,
		Functional:   functional,
		KeepGolden:   functional,
	}
}

func TestRunCompletesBudget(t *testing.T) {
	for _, scheme := range SchemeNames() {
		m, err := New(tinyConfig(scheme, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		r := m.Run()
		if r.Instructions < 200_000 {
			t.Fatalf("%s: ran %d instructions, want >= 200000", scheme, r.Instructions)
		}
		if r.Cycles == 0 {
			t.Fatalf("%s: zero cycles", scheme)
		}
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	cfg := tinyConfig("bogus", 1, false)
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	cfg.Workloads = nil
	cfg.Scheme = "picl"
	if _, err := New(cfg); err == nil {
		t.Fatal("empty workload list accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		m, err := New(tinyConfig("picl", 2, false))
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.NVM.Count != b.NVM.Count {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

// TestDeterminismMatrix: across schemes and PiCL's ACS gaps, a traced
// 4-core run over the shared LLC and NVM controller is a pure function
// of its configuration — two runs export the same metrics and record
// the same event stream.
func TestDeterminismMatrix(t *testing.T) {
	for _, scheme := range SchemeNames() {
		for _, gap := range []int{1, 2, 4} {
			if scheme != "picl" && gap != 1 {
				continue // the gap only parameterizes PiCL
			}
			run := func() *Result {
				cfg := tinyConfig(scheme, 4, false)
				cfg.PiCL = core.DefaultConfig()
				cfg.PiCL.ACSGap = gap
				cfg.TraceCap = 1 << 12
				return runConfig(t, cfg)
			}
			a, b := run(), run()
			if promDigest(a) != promDigest(b) {
				t.Fatalf("%s gap=%d: metrics differ between runs:\n%s\nvs\n%s",
					scheme, gap, a.PromText(), b.PromText())
			}
			if eventsDigest(a.Events) != eventsDigest(b.Events) {
				t.Fatalf("%s gap=%d: event streams differ between runs", scheme, gap)
			}
			if a.Cores != 4 || a.Instructions < 4*200_000 || len(a.Events) == 0 {
				t.Fatalf("%s gap=%d: incomplete run: cores=%d instr=%d events=%d",
					scheme, gap, a.Cores, a.Instructions, len(a.Events))
			}
		}
	}
}

func TestCommitCountsAtNominalRate(t *testing.T) {
	// PiCL commits exactly once per epoch interval (Fig. 11's point);
	// with 100k instructions and 20k epochs that is 5 commits.
	m, _ := New(tinyConfig("picl", 1, false))
	r := m.Run()
	if r.Commits != 4 {
		t.Fatalf("picl commits = %d, want 4", r.Commits)
	}
	// Ideal never commits.
	m2, _ := New(tinyConfig("ideal", 1, false))
	if r2 := m2.Run(); r2.Commits != 0 {
		t.Fatalf("ideal commits = %d, want 0", r2.Commits)
	}
}

func TestStopTheWorldSchemesStall(t *testing.T) {
	mIdeal, _ := New(tinyConfig("ideal", 1, false))
	rIdeal := mIdeal.Run()
	mFRM, _ := New(tinyConfig("frm", 1, false))
	rFRM := mFRM.Run()
	if rFRM.BoundaryStallCycles == 0 {
		t.Fatal("FRM reported no boundary stalls")
	}
	if rFRM.Cycles <= rIdeal.Cycles {
		t.Fatalf("FRM (%d cycles) not slower than ideal (%d)", rFRM.Cycles, rIdeal.Cycles)
	}
}

func TestPiCLOverheadIsLow(t *testing.T) {
	// The headline claim at miniature scale: PiCL within a few percent of
	// ideal while FRM pays a visible penalty.
	cycles := func(scheme string) uint64 {
		m, _ := New(tinyConfig(scheme, 1, false))
		return m.Run().Cycles
	}
	ideal := cycles("ideal")
	picl := cycles("picl")
	frm := cycles("frm")
	piclOv := float64(picl)/float64(ideal) - 1
	frmOv := float64(frm)/float64(ideal) - 1
	if piclOv > 0.10 {
		t.Fatalf("PiCL overhead %.3f exceeds 10%% at miniature scale", piclOv)
	}
	if frmOv < 2*piclOv {
		t.Fatalf("FRM overhead %.3f not clearly above PiCL %.3f", frmOv, piclOv)
	}
}

func TestEndToEndCrashRecoveryAllSchemes(t *testing.T) {
	for _, scheme := range SchemeNames() {
		if scheme == "ideal" {
			continue
		}
		t.Run(scheme, func(t *testing.T) {
			cfg := tinyConfig(scheme, 1, true)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			if _, err := m.CrashAndRecover(m.Now()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEndToEndCrashRecoveryMultiCore(t *testing.T) {
	cfg := tinyConfig("picl", 4, true)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	eid, err := m.CrashAndRecover(m.Now())
	if err != nil {
		t.Fatal(err)
	}
	if eid == 0 {
		t.Fatal("nothing persisted in a full multicore run")
	}
}

func TestRandomCrashPointsPiCL(t *testing.T) {
	// Crash at random instruction counts mid-run; recovery must always
	// land on a consistent epoch image.
	rnd := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		cfg := tinyConfig("picl", 2, true)
		cfg.PiCL = core.Config{ACSGap: rnd.Intn(4), BufferEntries: 8}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stopAt := uint64(rnd.Intn(150_000) + 20_000)
		m.RunUntil(func(_ uint64, instr uint64) bool { return instr >= stopAt })
		crash := m.Now()
		if d := m.Controller().Drain(); d > crash && rnd.Intn(2) == 0 {
			crash += uint64(rnd.Int63n(int64(d - crash + 1)))
		}
		if _, err := m.CrashAndRecover(crash); err != nil {
			t.Fatalf("trial %d (stop %d): %v", trial, stopAt, err)
		}
	}
}

func TestNormalizedIOPS(t *testing.T) {
	mi, _ := New(tinyConfig("ideal", 1, false))
	ri := mi.Run()
	base := ri.NVM.Ops(nvm.CatWriteback)
	if base == 0 {
		t.Fatal("ideal produced no write-backs")
	}
	mf, _ := New(tinyConfig("frm", 1, false))
	rf := mf.Run()
	if rf.NormalizedIOPS(nvm.CatRandom, base) <= 0.5 {
		t.Fatalf("FRM random IOPS ratio %.2f implausibly low", rf.NormalizedIOPS(nvm.CatRandom, base))
	}
	mp, _ := New(tinyConfig("picl", 1, false))
	rp := mp.Run()
	if rp.NormalizedIOPS(nvm.CatRandom, base) >= rf.NormalizedIOPS(nvm.CatRandom, base) {
		t.Fatal("PiCL random IOPS should be far below FRM")
	}
	if rp.NormalizedIOPS(nvm.CatSequential, base) == 0 {
		t.Fatal("PiCL produced no sequential log writes")
	}
	if r := (&Result{}).NormalizedIOPS(nvm.CatRandom, 0); r != 0 {
		t.Fatal("zero base must normalize to 0")
	}
}

func TestPiCLLogFootprintReported(t *testing.T) {
	m, _ := New(tinyConfig("picl", 1, false))
	r := m.Run()
	if r.LogTotalBytes == 0 || r.LogPeakBytes == 0 {
		t.Fatalf("log footprint not reported: %+v", r)
	}
}

func TestForcedCommitsReported(t *testing.T) {
	// A write-heavy footprint much larger than the journal table forces
	// early commits.
	gens := []trace.Generator{trace.NewUniform("w", 0, 60_000, 0.8, 1, 9)}
	m, _ := New(Config{
		Scheme: "journal", Workloads: gens,
		EpochInstr: 200_000, InstrPerCore: 400_000,
	})
	r := m.Run()
	if r.ForcedCommit == 0 {
		t.Fatal("journal reported no forced commits under table pressure")
	}
	if r.Commits <= 2 {
		t.Fatalf("journal commits = %d, want far more than nominal 2", r.Commits)
	}
}

func TestGoldenAccessors(t *testing.T) {
	m, _ := New(tinyConfig("picl", 1, true))
	m.Run()
	if _, ok := m.Golden(0); !ok {
		t.Fatal("golden epoch 0 missing")
	}
	if _, ok := m.Golden(10_000); ok {
		t.Fatal("absurd epoch reported present")
	}
	if m.Reference() == nil {
		t.Fatal("reference image missing in functional mode")
	}
	if _, err := (&Machine{cfg: Config{}}).CrashAndRecover(0); err == nil {
		t.Fatal("crash injection must require functional mode")
	}
}

func TestFunctionalRejectsReorderingControllers(t *testing.T) {
	cfg := tinyConfig("picl", 1, true)
	dev := nvm.DefaultConfig()
	dev.Banks = 8
	cfg.NVM = &dev
	if _, err := New(cfg); err == nil {
		t.Fatal("functional mode accepted a reordering controller")
	}
	// Timing-only mode accepts it.
	cfg2 := tinyConfig("picl", 1, false)
	cfg2.NVM = &dev
	if _, err := New(cfg2); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryUnderForcedCommits(t *testing.T) {
	// Regression for the straddling-eviction bug (found by picl-recover):
	// a dirty line evicted while its scheme's translation table is full
	// forces a commit — and the evicted line has already left the LLC, so
	// it must ride in that commit's flush set or the committed epoch
	// silently loses its newest value. Tiny tables make forced commits
	// constant; recovery must stay bit-exact for every redo scheme.
	for _, scheme := range []string{"journal", "shadow", "thynvm"} {
		t.Run(scheme, func(t *testing.T) {
			cfg := tinyConfig(scheme, 1, true)
			cfg.Baseline = baselines.Params{
				TableEntries: 26, TableWays: 13,
				BlockEntries: 26, PageEntries: 26,
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Run()
			if r.ForcedCommit == 0 {
				t.Fatalf("no forced commits; regression scenario not exercised (commits=%d)", r.Commits)
			}
			if _, err := m.CrashAndRecover(m.Now()); err != nil {
				t.Fatal(err)
			}
			// And with an in-flight crash window.
			m2, _ := New(cfg)
			m2.RunUntil(func(_ uint64, instr uint64) bool { return instr >= 120_000 })
			crash := (m2.Now() + m2.Controller().Drain()) / 2
			if crash < m2.Now() {
				crash = m2.Now()
			}
			if _, err := m2.CrashAndRecover(crash); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResultCountersFrozen: a Result keeps the scheme counters of the
// moment its RunUntil call returned, as it keeps Cycles and NVM, while
// the machine runs on and the scheme's own counters move.
func TestResultCountersFrozen(t *testing.T) {
	m, err := New(tinyConfig("picl", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	early := m.RunUntil(func(_ uint64, instr uint64) bool { return instr >= 100_000 })
	prom, acs := early.PromText(), early.Counters.Get("acs_writebacks")
	late := m.Run()
	if late.Counters.Get("acs_writebacks") == acs {
		t.Fatalf("acs_writebacks stayed at %d from 100k to %d instructions; the test needs counters that move", acs, late.Instructions)
	}
	if got := early.Counters.Get("acs_writebacks"); got != acs {
		t.Fatalf("the early Result's acs_writebacks moved from %d to %d when the machine ran on", acs, got)
	}
	if early.PromText() != prom {
		t.Fatal("the early Result's PromText changed when the machine ran on")
	}
}
