package perf

import (
	"flag"
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

// allocsPerOp is each body's allocations per operation as measured when
// this gate was written. The steady-state simulation paths allocate
// nothing and must stay that way; the image snapshot bodies allocate a
// few pages per epoch.
var allocsPerOp = []struct {
	name   string
	body   func(*testing.B)
	allocs int64
}{
	{"CacheLookupHit", CacheLookupHit, 0},
	{"CacheInsertEvict", CacheInsertEvict, 0},
	{"HierarchyStore", HierarchyStore, 0},
	{"NVMSubmit", NVMSubmit, 0},
	{"BloomInsertProbe", BloomInsertProbe, 0},
	{"UndoLogAppendGC", UndoLogAppendGC, 0},
	{"ImageSnapshotCOW", ImageSnapshotCOW, 6},
	{"ImageSnapshotClone", ImageSnapshotClone, 6},
	{"SimThroughputPiCL", SimThroughputPiCL, 0},
}

// TestAllocsPerOp runs every body at a 50 ms benchtime and fails when
// its allocs/op grew: a zero stays zero (one new allocation on a hot
// path is exactly the regression to catch), and a non-zero count may
// grow by at most a quarter, for amortized growth that varies with the
// iteration count. Allocation counts do not depend on the host's speed,
// so the gate holds on any machine.
func TestAllocsPerOp(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	saved := bt.Value.String()
	if err := bt.Value.Set("50ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Value.Set(saved) })
	for _, c := range allocsPerOp {
		r := testing.Benchmark(c.body)
		if r.N == 0 {
			t.Errorf("%s did not run", c.name)
			continue
		}
		got, limit := r.AllocsPerOp(), c.allocs+c.allocs/4
		t.Logf("%-18s %d allocs/op over %d ops", c.name, got, r.N)
		if got > limit {
			t.Errorf("%s: %d allocs/op, want at most %d (recorded %d)", c.name, got, limit, c.allocs)
		}
	}
}
