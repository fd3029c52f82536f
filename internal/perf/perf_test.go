package perf

import (
	"flag"
	"fmt"
	"testing"
)

func BenchmarkCacheLookupHit(b *testing.B)     { CacheLookupHit(b) }
func BenchmarkCacheInsertEvict(b *testing.B)   { CacheInsertEvict(b) }
func BenchmarkHierarchyStore(b *testing.B)     { HierarchyStore(b) }
func BenchmarkNVMSubmit(b *testing.B)          { NVMSubmit(b) }
func BenchmarkBloomInsertProbe(b *testing.B)   { BloomInsertProbe(b) }
func BenchmarkUndoLogAppendGC(b *testing.B)    { UndoLogAppendGC(b) }
func BenchmarkImageSnapshotCOW(b *testing.B)   { ImageSnapshotCOW(b) }
func BenchmarkImageSnapshotClone(b *testing.B) { ImageSnapshotClone(b) }
func BenchmarkSimThroughputPiCL(b *testing.B)  { SimThroughputPiCL(b) }

// allocRates is each body's allocations per 1,000 operations, counted
// over a fixed n operations, as measured when this gate was written.
// The cache and bloom paths allocate nothing; NVMSubmit allocates once
// in a million submissions. HierarchyStore,
// UndoLogAppendGC and SimThroughputPiCL allocate well below one per
// operation, almost all in undolog.(*Log).AppendBlock when its free
// list is empty, so an allocs/op figure reads 0 for them; the image
// snapshot bodies allocate a few pages per epoch.
var allocRates = []struct {
	name string
	body func(*testing.B)
	n    int
	perK float64
}{
	{"CacheLookupHit", CacheLookupHit, 1_000_000, 0},
	{"CacheInsertEvict", CacheInsertEvict, 500_000, 0},
	{"HierarchyStore", HierarchyStore, 200_000, 35.88},
	{"NVMSubmit", NVMSubmit, 1_000_000, 0.001},
	{"BloomInsertProbe", BloomInsertProbe, 1_000_000, 0},
	{"UndoLogAppendGC", UndoLogAppendGC, 200_000, 0.415},
	{"ImageSnapshotCOW", ImageSnapshotCOW, 500, 6062},
	{"ImageSnapshotClone", ImageSnapshotClone, 100, 6000},
	{"SimThroughputPiCL", SimThroughputPiCL, 1_000_000, 2.026},
}

// allocNoise is the allocations a measurement may see that are not the
// body's: the process allocates a few objects outside the benchmark
// goroutine now and then (up to 6 over one body's run, seen plain,
// under -race and under -covermode=atomic).
const allocNoise = 8

// TestAllocsPerOp runs every body for exactly its n operations and
// fails when its allocations per 1,000 operations grew: a zero stays
// zero (one new allocation on a hot path is exactly the regression to
// catch), and a non-zero rate may grow by at most a quarter, both up to
// allocNoise allocations. Counting over a fixed n keeps rates below
// one per operation visible, and allocation counts do not depend on
// the host's speed, so the gate holds on any machine.
func TestAllocsPerOp(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	saved := bt.Value.String()
	t.Cleanup(func() { bt.Value.Set(saved) })
	for _, c := range allocRates {
		if err := bt.Value.Set(fmt.Sprintf("%dx", c.n)); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(c.body)
		if r.N != c.n {
			t.Errorf("%s ran %d ops, want %d", c.name, r.N, c.n)
			continue
		}
		perK := float64(r.MemAllocs) * 1000 / float64(r.N)
		limit := c.perK*1.25*float64(c.n)/1000 + allocNoise
		t.Logf("%-18s %d allocs over %d ops: %.3f per 1000", c.name, r.MemAllocs, r.N, perK)
		if float64(r.MemAllocs) > limit {
			t.Errorf("%s: %d allocs over %d ops (%.3f per 1000), want at most %.0f (recorded %.3f per 1000)",
				c.name, r.MemAllocs, r.N, perK, limit, c.perK)
		}
	}
}
