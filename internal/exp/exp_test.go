package exp

import (
	"math"
	"strings"
	"testing"

	"picl/internal/nvm"
	"picl/internal/obs"
)

// testScale is small enough for unit tests: miniature hierarchy, two
// short epochs.
func testScale() Scale {
	return Scale{
		Name:            "test-1/256",
		Factor:          1.0 / 256,
		EpochInstr:      60_000,
		Epochs:          2,
		MulticoreEpochs: 1,
	}
}

var testBenches = []string{"gcc", "lbm"}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(testScale())
	a := r.MustRun("picl", []string{"gcc"})
	b := r.MustRun("picl", []string{"gcc"})
	if a != b {
		t.Fatal("identical runs not memoized")
	}
	if len(r.SortedKeys()) != 1 {
		t.Fatalf("memo has %d entries, want 1", len(r.SortedKeys()))
	}
	c := r.MustRun("picl", []string{"gcc"}, WithEpochs(3))
	if c == a {
		t.Fatal("different epoch count should be a distinct run")
	}
}

func TestRunnerUnknownBench(t *testing.T) {
	r := NewRunner(testScale())
	if _, err := r.Run("picl", []string{"nonesuch"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestHierarchyScaling(t *testing.T) {
	h := Scaled().Hierarchy(8)
	if h.LLC.Size != 8*(2<<20)/64 {
		t.Fatalf("scaled LLC = %d", h.LLC.Size)
	}
	// Floors hold at extreme scales.
	tiny := Scale{Factor: 1e-9}.Hierarchy(1)
	if tiny.L1.Size < 512 || tiny.L2.Size < 2048 || tiny.LLC.Size < 16<<10 {
		t.Fatalf("scaling floors violated: %+v", tiny)
	}
}

// TestScaleOf: the flag-driven scale matches the miniature scale at
// factor 64 (but for its name and multicore length), and every value
// that would hang a run or print NaN is refused.
func TestScaleOf(t *testing.T) {
	s, err := ScaleOf(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := Scaled()
	want.Name, want.MulticoreEpochs = "1/64", 8
	if s != want {
		t.Fatalf("ScaleOf(64, 8) = %+v, want %+v", s, want)
	}
	if s, err := ScaleOf(1024, 2); err != nil || s.EpochInstr != 29296 || s.Name != "1/1024" {
		t.Fatalf("ScaleOf(1024, 2) = %+v, %v", s, err)
	}
	for _, c := range []struct {
		factor float64
		epochs int
	}{
		{0, 8}, {-4, 8}, {math.NaN(), 8}, {math.Inf(1), 8}, {math.Inf(-1), 8}, {3e7 + 1, 8},
		{64, 0}, {64, -1},
	} {
		if s, err := ScaleOf(c.factor, c.epochs); err == nil {
			t.Errorf("ScaleOf(%g, %d) = %+v, want an error", c.factor, c.epochs, s)
		}
	}
}

func TestParamsScaling(t *testing.T) {
	p := Scaled().Params()
	if p.TableEntries != 26 {
		t.Fatalf("scaled table entries = %d, want 1664/64 = 26", p.TableEntries)
	}
	d := Full().Params()
	if d.TableEntries != 1664 {
		t.Fatalf("full-scale entries = %d", d.TableEntries)
	}
}

func TestFig9Shape(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.Fig9(testBenches)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != len(testBenches)+1 { // + GMean
		t.Fatalf("rows = %d", tb.Rows())
	}
	// PiCL must be the cheapest consistency scheme on GMean and near 1.
	label, vals := tb.Row(tb.Rows() - 1)
	if label != "GMean" {
		t.Fatalf("last row = %q", label)
	}
	picl := vals[len(vals)-1]
	if picl > 1.20 {
		t.Fatalf("PiCL GMean %.3f too high at test scale", picl)
	}
	for i, v := range vals[:len(vals)-1] {
		if v < picl-0.02 {
			t.Fatalf("scheme %s (%.3f) beat PiCL (%.3f)", tb.Columns[i], v, picl)
		}
	}
}

func TestFig11PiCLNominal(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.Fig11(testBenches)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.Rows()-1; i++ {
		label, vals := tb.Row(i)
		picl := vals[2]
		if picl < 0.99 || picl > 1.01 {
			t.Fatalf("%s: PiCL commit rate %.3f, want exactly nominal", label, picl)
		}
		if vals[0] < picl-0.01 {
			t.Fatalf("%s: journaling commit rate %.3f below PiCL", label, vals[0])
		}
	}
}

func TestFig12Categories(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.Fig12([]string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 6 {
		t.Fatalf("rows = %d, want 6 schemes", tb.Rows())
	}
	byName := map[string][]float64{}
	for i := 0; i < tb.Rows(); i++ {
		label, vals := tb.Row(i)
		byName[label] = vals
	}
	ideal := byName["gcc/Ideal"]
	if ideal[0] != 0 || ideal[1] != 0 || ideal[2] != 1 {
		t.Fatalf("ideal row = %v, want pure unit write-backs", ideal)
	}
	frm, picl := byName["gcc/FRM"], byName["gcc/PiCL"]
	if frm[1] <= picl[1] {
		t.Fatalf("FRM random (%.2f) must exceed PiCL random (%.2f)", frm[1], picl[1])
	}
	if picl[0] == 0 {
		t.Fatal("PiCL sequential category empty")
	}
}

func TestFig13LogSizes(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.Fig13(testBenches)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.Rows()-1; i++ {
		label, vals := tb.Row(i)
		if vals[0] <= 0 {
			t.Fatalf("%s: zero log footprint", label)
		}
		if vals[1] <= vals[0] {
			t.Fatalf("%s: full-scale equivalent must exceed scaled value", label)
		}
	}
}

func TestFig14PiCLReachesTarget(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.Fig14([]string{"lbm"})
	if err != nil {
		t.Fatal(err)
	}
	_, vals := tb.Row(0)
	if vals[2] < vals[0] {
		t.Fatalf("PiCL epoch length %.1f below Journaling %.1f", vals[2], vals[0])
	}
}

func TestTables(t *testing.T) {
	tb := Table3(Scaled().Hierarchy(8))
	s := tb.String()
	if !strings.Contains(s, "LLC") || !strings.Contains(s, "Undo buffer") {
		t.Fatalf("Table3 output incomplete:\n%s", s)
	}
	// EID overhead per 64B line: 4 bits over ~556 -> under 1%.
	for i := 0; i < tb.Rows(); i++ {
		label, vals := tb.Row(i)
		if strings.Contains(label, "EID/line") && vals[2] > 1.0 {
			t.Fatalf("%s overhead %.2f%% implausibly high", label, vals[2])
		}
	}

	r := NewRunner(testScale())
	t4 := r.Table4()
	for _, want := range []string{"L1", "NVM timing", "row write"} {
		if !strings.Contains(t4, want) {
			t.Fatalf("Table4 missing %q:\n%s", want, t4)
		}
	}
	t5 := Table5()
	if !strings.Contains(t5, "W7") {
		t.Fatalf("Table5 missing mixes:\n%s", t5)
	}
}

func TestFig10Multicore(t *testing.T) {
	if testing.Short() {
		t.Skip("8-core matrix is slow in -short mode")
	}
	r := NewRunner(testScale())
	tb, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 9 { // W0..W7 + GMean
		t.Fatalf("rows = %d, want 9", tb.Rows())
	}
	label, vals := tb.Row(8)
	if label != "GMean" {
		t.Fatalf("last row %q", label)
	}
	picl := vals[len(vals)-1]
	if picl > 1.3 {
		t.Fatalf("multicore PiCL GMean %.3f too high at test scale", picl)
	}
	for i, v := range vals {
		if v < 0.95 {
			t.Fatalf("scheme %s normalized %.3f below ideal", tb.Columns[i], v)
		}
	}
}

func TestFig15CacheSweep(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.Fig15([]string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 5 {
		t.Fatalf("rows = %d, want 5 LLC sizes", tb.Rows())
	}
	// PiCL stays within a tight band across cache sizes (the paper's
	// claim: no dependence on flush volume).
	col := tb.Column("PiCL")
	lo, hi := col[0], col[0]
	for _, v := range col {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 0.30 {
		t.Fatalf("PiCL varies %.3f..%.3f across LLC sizes; expected flat", lo, hi)
	}
}

func TestFig16LatencySweep(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.Fig16([]string{"lbm"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Fatalf("rows = %d, want 4 latency points", tb.Rows())
	}
	// Baseline overhead grows (or at least does not collapse) with write
	// latency; PiCL stays low everywhere.
	for i := 0; i < tb.Rows(); i++ {
		_, vals := tb.Row(i)
		picl := vals[len(vals)-1]
		if picl > 1.35 {
			t.Fatalf("row %d: PiCL %.3f too high", i, picl)
		}
	}
}

func TestAblations(t *testing.T) {
	r := NewRunner(testScale())
	a1, err := r.AblationACSGap([]string{"gcc"})
	if err != nil || a1.Rows() != 6 {
		t.Fatalf("acs-gap ablation: %v rows=%d", err, a1.Rows())
	}
	a2, err := r.AblationUndoBuffer([]string{"gcc"})
	if err != nil || a2.Rows() != 6 {
		t.Fatalf("buffer ablation: %v rows=%d", err, a2.Rows())
	}
	// Larger buffers never increase the sequential-write count.
	prev := -1.0
	for i := 0; i < a2.Rows(); i++ {
		_, vals := a2.Row(i)
		if prev >= 0 && vals[1] > prev*1.05 {
			t.Fatalf("sequential writes grew with buffer size: %v -> %v", prev, vals[1])
		}
		prev = vals[1]
	}
	a3, err := r.AblationEpochLength([]string{"gcc"})
	if err != nil || a3.Rows() != 5 {
		t.Fatalf("epoch ablation: %v rows=%d", err, a3.Rows())
	}
}

func TestAblationDRAMCache(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.AblationDRAMCache([]string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	_, noCache := tb.Row(0)
	_, biggest := tb.Row(3)
	if noCache[2] != 0 {
		t.Fatalf("hit rate without cache = %v", noCache[2])
	}
	if biggest[2] <= 0 {
		t.Fatal("largest cache shows no hits")
	}
	// PiCL stays near ideal with or without the DRAM layer.
	if biggest[1] > 1.25 {
		t.Fatalf("PiCL normalized time %.3f with DRAM cache too high", biggest[1])
	}
}

func TestRecoveryLatencyTable(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.RecoveryLatency([]string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	_, vals := tb.Row(0)
	if vals[1] < 0 {
		t.Fatal("negative recovery latency")
	}
}

func TestAblationController(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.AblationController([]string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// PiCL stays near ideal under every controller design.
	for i := 0; i < tb.Rows(); i++ {
		label, vals := tb.Row(i)
		if picl := vals[2]; picl > 1.30 {
			t.Fatalf("%s: PiCL %.3f too high", label, picl)
		}
	}
}

func TestAvailabilityArithmetic(t *testing.T) {
	// Paper footnote: 99.999% at one-day MTBF needs recovery within 864 ms.
	if got := RecoveryBudget(0.99999, 86400); got < 0.863 || got > 0.865 {
		t.Fatalf("RecoveryBudget = %v, want 0.864", got)
	}
	if got := Availability(0.864, 86400); got < 0.99998 || got > 0.999991 {
		t.Fatalf("Availability = %v", got)
	}
	if Availability(1, 0) != 0 || Availability(2*86400, 86400) != 0 {
		t.Fatal("degenerate availability not clamped")
	}
	// 25% overhead: the machine loses a fifth of the day's work
	// (86400 - 86400/1.25 = 17280 s).
	if got := OverheadSecondsPerDay(1.25); got < 17279 || got > 17281 {
		t.Fatalf("OverheadSecondsPerDay(1.25) = %v, want 17280", got)
	}
	if OverheadSecondsPerDay(0.9) != 0 {
		t.Fatal("sub-unity factor should cost nothing")
	}
}

func TestAvailabilityReport(t *testing.T) {
	r := NewRunner(testScale())
	tb, err := r.AvailabilityReport([]string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != len(Schemes) {
		t.Fatalf("rows = %d", tb.Rows())
	}
	byName := map[string][]float64{}
	for i := 0; i < tb.Rows(); i++ {
		label, vals := tb.Row(i)
		byName[label] = vals
	}
	picl, frm := byName["PiCL"], byName["FRM"]
	// The paper's trade: PiCL's daily compute loss is far below FRM's,
	// and both availabilities stay near one.
	if picl[1] >= frm[1] {
		t.Fatalf("PiCL daily loss %.1f not below FRM %.1f", picl[1], frm[1])
	}
	if picl[3] < 0.99 || frm[3] < 0.99 {
		t.Fatalf("implausible availability: picl=%v frm=%v", picl[3], frm[3])
	}
}

func TestWorkloadCalibrationClasses(t *testing.T) {
	// The substitution argument (DESIGN.md §3) rests on the synthetic
	// profiles reproducing SPEC2006's behavior classes. Verify the
	// classes are ordered correctly on the scaled Table IV system:
	// memory-bound codes run at far higher CPI than compute-bound ones,
	// and streaming writers generate far more write-back traffic.
	r := NewRunner(testScale())
	cpi := func(b string) float64 {
		res := r.MustRun("ideal", []string{b})
		return float64(res.Cycles) / float64(res.Instructions)
	}
	wbPerKInstr := func(b string) float64 {
		res := r.MustRun("ideal", []string{b})
		return 1000 * float64(res.NVM.Count[nvm.OpWriteback]) / float64(res.Instructions)
	}
	memBound := []string{"mcf", "lbm", "libquantum"}
	computeBound := []string{"gamess", "povray", "namd"}
	for _, m := range memBound {
		for _, c := range computeBound {
			if cpi(m) < 3*cpi(c) {
				t.Errorf("CPI(%s)=%.1f not >> CPI(%s)=%.1f", m, cpi(m), c, cpi(c))
			}
		}
	}
	if wbPerKInstr("lbm") < 4*wbPerKInstr("povray") {
		t.Errorf("lbm write traffic %.2f/kinstr not >> povray %.2f/kinstr",
			wbPerKInstr("lbm"), wbPerKInstr("povray"))
	}
}

// TestEpochLatencyTable: the commit-to-persist table has one ordered row
// per benchmark, and traced cells memoize separately from untraced ones
// (an untraced MustRun of the same cell must not inherit the events).
func TestEpochLatencyTable(t *testing.T) {
	// The default 2-epoch test scale ends before any epoch persists (the
	// ACS lag spans the whole run); use enough epochs to observe gaps.
	s := testScale()
	s.Epochs = 8
	r := NewRunner(s)
	tb, err := r.EpochLatency([]string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 1 {
		t.Fatalf("rows = %d, want 1", tb.Rows())
	}
	label, vals := tb.Row(0)
	if label != "gcc" || len(vals) != 6 {
		t.Fatalf("row = %q %v", label, vals)
	}
	epochs, min, p50, p90, max, mean := vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
	if epochs < 1 {
		t.Fatalf("no commit-to-persist gaps recovered from the trace")
	}
	if !(min > 0 && min <= p50 && p50 <= p90 && p90 <= max) {
		t.Fatalf("quantiles out of order: %v", vals)
	}
	if mean < min || mean > max {
		t.Fatalf("mean %v outside [min,max]", mean)
	}
	plain := r.MustRun("picl", []string{"gcc"})
	if len(plain.Events) != 0 {
		t.Fatalf("untraced run returned %d events; RunKey must separate traced cells", len(plain.Events))
	}
}

// TestWithTraceCapEvents: a traced run carries an event stream in the
// result, and the stream is identical between two independent runners
// (events carry simulated time only — no wall-clock contamination).
func TestWithTraceCapEvents(t *testing.T) {
	run := func() []obs.Event {
		r := NewRunner(testScale())
		res := r.MustRun("picl", []string{"gcc"}, WithTraceCap(1<<16))
		if len(res.Events) == 0 {
			t.Fatal("traced run returned no events")
		}
		if res.EventsDropped != 0 {
			t.Fatalf("ring dropped %d events at cap 1<<16", res.EventsDropped)
		}
		return res.Events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	var commits int
	for _, ev := range a {
		if ev.Kind == obs.KindEpochCommit {
			commits++
		}
	}
	if commits == 0 {
		t.Fatal("trace has no epoch_commit events")
	}
}
