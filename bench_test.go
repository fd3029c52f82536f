// Benchmark harness: one testing.B entry per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index), plus
// microbenchmarks of the substrate hot paths.
//
// The figure benchmarks run the scaled (1/64) experiments on a
// representative benchmark subset and print the resulting table once, so
// `go test -bench=. -benchmem | tee bench_output.txt` captures the
// reproduced artifacts. Set PICL_BENCH_ALL=1 to use the full 29-benchmark
// SPEC set and all 8 mixes (minutes of CPU; used for EXPERIMENTS.md), or
// use cmd/picl-bench directly.
package picl

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"picl/internal/exp"
	"picl/internal/mem"
	"picl/internal/perf"
	"picl/internal/stats"
	"picl/internal/trace"
	"picl/internal/undolog"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *exp.Runner
)

func runner() *exp.Runner {
	benchRunnerOnce.Do(func() { benchRunner = exp.NewRunner(exp.Scaled()) })
	return benchRunner
}

func fullSet() bool { return os.Getenv("PICL_BENCH_ALL") != "" }

// benchSubset is the default single-core benchmark subset: two streaming
// writers, two large-footprint random, two compute-bound, two mixed.
func benchSubset() []string {
	if fullSet() {
		return trace.Benchmarks()
	}
	return []string{"gcc", "bzip2", "mcf", "astar", "lbm", "libquantum", "gamess", "povray"}
}

var printedTables sync.Map

// reportTable prints a reproduced table exactly once per process.
func reportTable(name string, t fmt.Stringer) {
	if _, loaded := printedTables.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", t)
	}
}

func BenchmarkTable3HardwareOverhead(b *testing.B) {
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = exp.Table3(exp.Full().Hierarchy(8))
	}
	reportTable("t3", t)
	_, vals := t.Row(1) // LLC EID/line row
	b.ReportMetric(vals[2], "llc_overhead_%")
}

func BenchmarkTable4Config(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = runner().Table4()
	}
	reportTable("t4", stringer(s))
}

func BenchmarkTable5Mixes(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = exp.Table5()
	}
	reportTable("t5", stringer(s))
}

type stringer string

func (s stringer) String() string { return string(s) }

func BenchmarkFig9SingleCore(b *testing.B) {
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig9(benchSubset())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f9", t)
	_, vals := t.Row(t.Rows() - 1) // GMean
	b.ReportMetric(vals[len(vals)-1], "picl_gmean_normtime")
	b.ReportMetric(vals[0], "journal_gmean_normtime")
}

func BenchmarkFig10Multicore(b *testing.B) {
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f10", t)
	_, vals := t.Row(t.Rows() - 1)
	b.ReportMetric(vals[len(vals)-1], "picl_gmean_normtime")
}

func BenchmarkFig11CommitFrequency(b *testing.B) {
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig11(benchSubset())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f11", t)
	_, vals := t.Row(t.Rows() - 1)
	b.ReportMetric(vals[0], "journal_gmean_commit_x")
	b.ReportMetric(vals[2], "picl_gmean_commit_x")
}

func BenchmarkFig12IOPS(b *testing.B) {
	set := []string{"gcc", "mcf", "lbm", "libquantum"}
	if fullSet() {
		set = trace.Fig12Benchmarks()
	}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig12(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f12", t)
}

func BenchmarkFig13LogSize(b *testing.B) {
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig13(benchSubset())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f13", t)
	_, vals := t.Row(t.Rows() - 1) // AMean
	b.ReportMetric(vals[1], "amean_fullscale_MB")
}

func BenchmarkFig14LongEpochs(b *testing.B) {
	set := []string{"gcc", "mcf", "lbm", "gamess"}
	if fullSet() {
		set = trace.Benchmarks()
	}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig14(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f14", t)
}

func BenchmarkFig15CacheSensitivity(b *testing.B) {
	set := []string{"gcc", "lbm", "mcf"}
	if fullSet() {
		set = exp.SensitivityBenches()
	}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig15(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f15", t)
}

func BenchmarkFig16NVMLatency(b *testing.B) {
	set := []string{"gcc", "lbm", "mcf"}
	if fullSet() {
		set = exp.SensitivityBenches()
	}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().Fig16(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("f16", t)
}

func BenchmarkAblationACSGap(b *testing.B) {
	set := []string{"gcc", "lbm"}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().AblationACSGap(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("a1", t)
}

func BenchmarkAblationUndoBuffer(b *testing.B) {
	set := []string{"gcc", "lbm"}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().AblationUndoBuffer(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("a2", t)
}

func BenchmarkAblationEpochLength(b *testing.B) {
	set := []string{"gcc", "lbm"}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().AblationEpochLength(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("a3", t)
}

func BenchmarkAblationDRAMCache(b *testing.B) {
	set := []string{"gcc", "mcf"}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().AblationDRAMCache(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("a4", t)
}

func BenchmarkAblationController(b *testing.B) {
	set := []string{"gcc", "mcf"}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().AblationController(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("a5", t)
}

func BenchmarkRecoveryLatency(b *testing.B) {
	set := []string{"gcc", "lbm"}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().RecoveryLatency(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("r2", t)
}

func BenchmarkAvailabilityReport(b *testing.B) {
	set := []string{"gcc", "lbm"}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = runner().AvailabilityReport(set)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable("r3", t)
}

// --- substrate microbenchmarks ---------------------------------------------
//
// The bodies live in internal/perf, shared with cmd/picl-perf so the
// BENCH_PR9.json comparator gates on exactly what these wrappers run.

func BenchmarkCacheLookupHit(b *testing.B)     { perf.CacheLookupHit(b) }
func BenchmarkCacheInsertEvict(b *testing.B)   { perf.CacheInsertEvict(b) }
func BenchmarkHierarchyStore(b *testing.B)     { perf.HierarchyStore(b) }
func BenchmarkNVMSubmit(b *testing.B)          { perf.NVMSubmit(b) }
func BenchmarkBloomInsertProbe(b *testing.B)   { perf.BloomInsertProbe(b) }
func BenchmarkUndoLogAppendGC(b *testing.B)    { perf.UndoLogAppendGC(b) }
func BenchmarkImageSnapshotCOW(b *testing.B)   { perf.ImageSnapshotCOW(b) }
func BenchmarkImageSnapshotClone(b *testing.B) { perf.ImageSnapshotClone(b) }
func BenchmarkSimThroughputPiCL(b *testing.B)  { perf.SimThroughputPiCL(b) }

func BenchmarkRecoveryScan(b *testing.B) {
	// Recovery speed over a populated log.
	l := undolog.NewLog(0)
	for blk := 0; blk < 512; blk++ {
		entries := make([]undolog.Entry, undolog.EntriesPerBlock)
		for j := range entries {
			entries[j] = undolog.Entry{
				Line:      mem.LineAddr(blk*31 + j),
				ValidFrom: mem.EpochID(blk / 64),
				ValidTill: mem.EpochID(blk/64 + 1),
				Old:       mem.Word(j),
			}
		}
		l.AppendBlock(entries)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := mem.NewImage()
		l.ApplyTo(img, 4)
	}
}

// --- durable store benchmarks -----------------------------------------------

// durableLines is the footprint of the durable benchmarks: 2^16 lines,
// larger than the simulated caches; at 24 bytes a record its image
// file is 1.5 MB.
const durableLines = 1 << 16

// BenchmarkDurableCommit times one durable commit on a picl.Open store:
// 64 writes spread over the footprint, then Sync — its undo blocks
// appended unsynced, then one commit written over the image's zero
// padding and its fsync.
func BenchmarkDurableCommit(b *testing.B) {
	m, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	line := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			line = (line*6364136223846793005 + 1442695040888963407) % durableLines
			if err := m.Write(line*mem.LineSize, uint64(i)|1); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableOpen times picl.Open of a store holding every line of
// the footprint, then Close: recovery (the image load) and the
// compaction into a fresh baseline. Each Open finds the compacted store
// the previous iteration's Close left, whose log is empty, so this is
// the image's cost; the benchmark/ durable-commit workload's setup_s
// times an Open with a populated log.
func BenchmarkDurableOpen(b *testing.B) {
	dir := b.TempDir()
	m, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for l := uint64(0); l < durableLines; l++ {
		if err := m.Write(l*mem.LineSize, l|1); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
