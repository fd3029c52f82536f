// Package perf holds the substrate microbenchmark bodies. Its tests
// wrap each as a `go test -bench` benchmark (`make bench`) and gate
// their allocations per operation; timing lives in benchmark/, whose
// per-layer rows run several of the same bodies.
package perf

import (
	"testing"

	"picl/internal/bloom"
	"picl/internal/cache"
	"picl/internal/core"
	"picl/internal/exp"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/sim"
	"picl/internal/trace"
	"picl/internal/undolog"
)

// CacheLookupHit measures the tag-array hit path (scan + recency touch).
func CacheLookupHit(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", Size: 2 << 20, Ways: 8, Latency: 1})
	for i := 0; i < 1024; i++ {
		c.Place(mem.LineAddr(i), mem.Word(i), 0, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(mem.LineAddr(i&1023), true)
	}
}

// CacheInsertEvict measures Place on a full cache: the tag scan, the
// victim read off the set's recency word and its move to rank 0, and
// the victim hand-off through the scratch slot.
func CacheInsertEvict(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", Size: 64 << 10, Ways: 8, Latency: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Place(mem.LineAddr(i), mem.Word(i), 0, true)
	}
}

// HierarchyStore measures a store walking the full L1/L2/LLC install and
// eviction-drain machinery under the PiCL scheme.
func HierarchyStore(b *testing.B) {
	ctl := nvm.NewController(nvm.DefaultConfig())
	scheme, _ := sim.MakeScheme("picl", ctl, false, core.DefaultConfig(), exp.Scaled().Params())
	h := cache.NewHierarchy(exp.Scaled().Hierarchy(1), scheme, scheme)
	scheme.Attach(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Store(uint64(i), 0, mem.LineAddr(i&4095), mem.Word(i))
	}
}

// NVMSubmit measures controller op submission and bank scheduling.
func NVMSubmit(b *testing.B) {
	c := nvm.NewController(nvm.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(uint64(i)*1000, nvm.OpWriteback, 64)
	}
}

// BloomInsertProbe measures the ACS bloom filter hot ops.
func BloomInsertProbe(b *testing.B) {
	f := bloom.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(mem.LineAddr(i))
		f.MayContain(mem.LineAddr(i + 1))
		if i&31 == 31 {
			f.Clear()
		}
	}
}

// UndoLogAppendGC measures undo-log block append plus periodic GC.
func UndoLogAppendGC(b *testing.B) {
	l := undolog.NewLog(0)
	entries := make([]undolog.Entry, undolog.EntriesPerBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range entries {
			entries[j] = undolog.Entry{Line: mem.LineAddr(j), ValidFrom: mem.EpochID(i), ValidTill: mem.EpochID(i + 1)}
		}
		l.AppendBlock(entries)
		if i&63 == 63 {
			l.GC(mem.EpochID(i - 4))
		}
	}
}

// Image snapshot benchmark geometry: a footprint of snapshotFootprint
// live lines with snapshotWrites line writes per epoch. The COW path
// should cost O(writes) per epoch; Clone costs O(footprint).
const (
	snapshotFootprint = 1 << 16
	snapshotWrites    = 1 << 10
)

func populatedImage() *mem.Image {
	im := mem.NewImage()
	for i := 0; i < snapshotFootprint; i++ {
		im.Write(mem.LineAddr(i), mem.Word(i+1))
	}
	return im
}

// ImageSnapshotCOW measures one epoch of history recording: write
// snapshotWrites lines, then Mark seals the delta. This is the per-commit
// snapshot cost in functional+KeepGolden runs.
func ImageSnapshotCOW(b *testing.B) {
	im := populatedImage()
	im.EnableHistory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1023 == 1023 {
			// Bound history growth; the rebuild is excluded from timing.
			b.StopTimer()
			im = populatedImage()
			im.EnableHistory()
			b.StartTimer()
		}
		base := mem.LineAddr((i % 37) * snapshotWrites)
		for j := 0; j < snapshotWrites; j++ {
			im.Write(base+mem.LineAddr(j), mem.Word(i*snapshotWrites+j+1))
		}
		im.Mark()
	}
}

// ImageSnapshotClone measures the replaced strategy on the same epoch
// shape: write snapshotWrites lines, then deep-copy the whole image.
// Kept as the contrast baseline for ImageSnapshotCOW.
func ImageSnapshotClone(b *testing.B) {
	im := populatedImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := mem.LineAddr((i % 37) * snapshotWrites)
		for j := 0; j < snapshotWrites; j++ {
			im.Write(base+mem.LineAddr(j), mem.Word(i*snapshotWrites+j+1))
		}
		if im.Clone().Len() == 0 {
			b.Fatal("clone lost the image")
		}
	}
}

// SimThroughputPiCL measures end-to-end simulator speed (simulated
// instructions per host second) on a single-core PiCL run of the scaled
// gcc profile.
func SimThroughputPiCL(b *testing.B) {
	g := trace.NewSynthetic(trace.MustProfile("gcc").Scale(1.0/64), 0, 1)
	h := exp.Scaled().Hierarchy(1)
	m, err := sim.New(sim.Config{
		Scheme: "picl", Workloads: []trace.Generator{g},
		Hierarchy: &h, EpochInstr: 469_000, InstrPerCore: ^uint64(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	target := uint64(b.N)
	m.RunUntil(func(_ uint64, instr uint64) bool { return instr >= target })
	b.ReportMetric(float64(b.N), "instr")
}
