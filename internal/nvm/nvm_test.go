package nvm

import (
	"testing"
	"testing/quick"
)

func TestServiceTimesMatchPaper(t *testing.T) {
	c := NewController(DefaultConfig())

	// A 64 B random read: 128 ns row activation (+ 10 cycles transfer).
	done := c.Submit(0, OpDemandRead, 64)
	if want := uint64(128*CyclesPerNS + 10); done != want {
		t.Fatalf("demand read latency = %d cycles, want %d", done, want)
	}

	// A 64 B random write: 368 ns (+ transfer), starting after the read.
	c2 := NewController(DefaultConfig())
	done = c2.Submit(0, OpWriteback, 64)
	if want := uint64(368*CyclesPerNS + 10); done != want {
		t.Fatalf("writeback latency = %d cycles, want %d", done, want)
	}
}

func TestSequentialBlockBeatsRandomByOrderOfMagnitude(t *testing.T) {
	// The motivating asymmetry (§II-C): one 2 KB block write must be far
	// cheaper than 32 random 64 B writes.
	blk := NewController(DefaultConfig())
	blockDone := blk.Submit(0, OpSeqBlockWrite, 2048)

	rnd := NewController(DefaultConfig())
	var randDone uint64
	for i := 0; i < 32; i++ {
		randDone = rnd.Submit(0, OpRandLogWrite, 64)
	}
	if randDone < 10*blockDone {
		t.Fatalf("random 32x64B = %d cycles, sequential 2KB = %d cycles; want >=10x gap",
			randDone, blockDone)
	}
}

func TestPageCopyCostsRowsBothWays(t *testing.T) {
	c := NewController(DefaultConfig())
	done := c.Submit(0, OpPageCopy, 4096)
	// 4 KB = 2 rows: 2 reads + 2 writes, no transfer.
	want := 2 * (uint64(128*CyclesPerNS) + uint64(368*CyclesPerNS))
	if done != want {
		t.Fatalf("page copy = %d cycles, want %d", done, want)
	}
	if got := c.Stats().RowActivations; got != 4 {
		t.Fatalf("page copy activations = %d, want 4", got)
	}
}

func TestFCFSOrderingAndBusyUntil(t *testing.T) {
	c := NewController(DefaultConfig())
	d1 := c.Submit(0, OpDemandRead, 64)
	d2 := c.Submit(0, OpDemandRead, 64)
	if d2 <= d1 {
		t.Fatalf("second request (%d) must finish after first (%d)", d2, d1)
	}
	if c.BusyUntil() != d2 {
		t.Fatalf("BusyUntil = %d, want %d", c.BusyUntil(), d2)
	}
	// A request arriving after the channel idles starts immediately.
	d3 := c.Submit(d2+100, OpDemandRead, 64)
	if d3 != d2+100+128*CyclesPerNS+10 {
		t.Fatalf("idle-start request latency wrong: %d", d3)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 4
	c := NewController(cfg)
	for i := 0; i < 4; i++ {
		c.Submit(0, OpWriteback, 64)
	}
	if !c.Full(0) {
		t.Fatal("queue should be full after QueueLimit submissions at t=0")
	}
	// Submitting while full records a stall event.
	c.Submit(0, OpWriteback, 64)
	if c.Stats().StallEvents != 1 {
		t.Fatalf("StallEvents = %d, want 1", c.Stats().StallEvents)
	}
	free := c.NextFree(0)
	if free == 0 {
		t.Fatal("NextFree should be in the future when full")
	}
	if c.QueueLen(free) >= cfg.QueueLimit {
		t.Fatal("queue should have a slot at NextFree time")
	}
}

func TestQueueLenPrunes(t *testing.T) {
	c := NewController(DefaultConfig())
	var last uint64
	for i := 0; i < 10; i++ {
		last = c.Submit(0, OpWriteback, 64)
	}
	if got := c.QueueLen(0); got != 10 {
		t.Fatalf("QueueLen(0) = %d, want 10", got)
	}
	if got := c.QueueLen(last); got != 0 {
		t.Fatalf("QueueLen(after drain) = %d, want 0", got)
	}
	// Reads never occupy write-queue slots.
	c.Submit(last, OpDemandRead, 64)
	if got := c.QueueLen(last); got != 0 {
		t.Fatalf("read occupied a write-queue slot: %d", got)
	}
}

func TestCategories(t *testing.T) {
	cases := map[Op]Category{
		OpDemandRead:    CatDemand,
		OpWriteback:     CatWriteback,
		OpRandLogWrite:  CatRandom,
		OpRandLogRead:   CatRandom,
		OpSeqBlockWrite: CatSequential,
		OpPageCopy:      CatSequential,
	}
	for op, want := range cases {
		if got := op.Category(); got != want {
			t.Errorf("%v.Category() = %v, want %v", op, got, want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Submit(0, OpWriteback, 64)
	c.Submit(0, OpSeqBlockWrite, 2048)
	c.Submit(0, OpRandLogRead, 64)
	s := c.Stats()
	if s.Ops(CatWriteback) != 1 || s.Ops(CatSequential) != 1 || s.Ops(CatRandom) != 1 {
		t.Fatalf("category ops wrong: %+v", s)
	}
	if s.TotalBytes(CatSequential) != 2048 {
		t.Fatalf("sequential bytes = %d, want 2048", s.TotalBytes(CatSequential))
	}
	c.ResetStats()
	if c.Stats().Ops(CatWriteback) != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestStatsMerge(t *testing.T) {
	// Merge must be plain commutative addition across every field: the
	// benchmark's Fig. 9 workload folds per-cell controller bags in
	// completion order, and the total may not depend on that order.
	mk := func(seed uint64) Stats {
		var s Stats
		for op := Op(0); op < numOps; op++ {
			s.Count[op] = seed + uint64(op)
			s.Bytes[op] = 64 * (seed + uint64(op))
		}
		s.BusyCycles = 1000 * seed
		s.StallEvents = seed
		s.DRAMHits = 2 * seed
		s.RowActivations = 3 * seed
		return s
	}
	a, b := mk(5), mk(11)
	ab, ba := a, b
	ab.Merge(b)
	ba.Merge(a)
	if ab != ba {
		t.Fatalf("Merge is not commutative:\n%+v\n%+v", ab, ba)
	}
	for op := Op(0); op < numOps; op++ {
		if ab.Count[op] != a.Count[op]+b.Count[op] || ab.Bytes[op] != a.Bytes[op]+b.Bytes[op] {
			t.Fatalf("op %v: merged count/bytes = %d/%d, want %d/%d",
				op, ab.Count[op], ab.Bytes[op], a.Count[op]+b.Count[op], a.Bytes[op]+b.Bytes[op])
		}
	}
	if ab.BusyCycles != a.BusyCycles+b.BusyCycles || ab.StallEvents != a.StallEvents+b.StallEvents ||
		ab.DRAMHits != a.DRAMHits+b.DRAMHits || ab.RowActivations != a.RowActivations+b.RowActivations {
		t.Fatalf("scalar fields not summed: %+v", ab)
	}
}

func TestScaledWriteConfig(t *testing.T) {
	base := DefaultConfig()
	x2 := ScaledWriteConfig(20)
	if x2.RowWriteCycles != 2*base.RowWriteCycles {
		t.Fatalf("2x scale: %d, want %d", x2.RowWriteCycles, 2*base.RowWriteCycles)
	}
	if x2.RowReadCycles != base.RowReadCycles {
		t.Fatal("read latency must not scale")
	}
	x1 := ScaledWriteConfig(10)
	if x1.RowWriteCycles != base.RowWriteCycles {
		t.Fatal("1.0x scale must be identity")
	}
}

func TestDRAMFasterThanNVM(t *testing.T) {
	d := NewController(DRAMConfig())
	n := NewController(DefaultConfig())
	if d.Submit(0, OpWriteback, 64) >= n.Submit(0, OpWriteback, 64) {
		t.Fatal("DRAM write should be faster than NVM write")
	}
}

func TestMonotoneCompletion(t *testing.T) {
	// Property: completion times never decrease under FCFS, for any
	// op/arrival sequence.
	prop := func(ops []uint8, gaps []uint8) bool {
		c := NewController(DefaultConfig())
		now, last := uint64(0), uint64(0)
		for i, o := range ops {
			if i < len(gaps) {
				now += uint64(gaps[i])
			}
			op := Op(int(o) % int(numOps))
			bytes := 64
			if op == OpSeqBlockWrite {
				bytes = 2048
			} else if op == OpPageCopy {
				bytes = 4096
			}
			done := c.Submit(now, op, bytes)
			if done < last || done < now {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMCacheHitsAndMisses(t *testing.T) {
	c := NewController(DefaultConfig().WithDRAMCache(2))
	// First read of page 1: miss (NVM row read).
	d1 := c.Submit(0, OpDemandRead, 0) // warm the channel state deterministically
	_ = d1
	miss := c.SubmitRead(c.BusyUntil(), 1)
	if miss-c.BusyUntil() > 0 { // completed via channel: busyUntil advanced to it
		t.Fatalf("miss should occupy the channel")
	}
	// Second read of page 1: hit at DRAM latency, channel untouched.
	busy := c.BusyUntil()
	hit := c.SubmitRead(busy, 1)
	if hit != busy+50*CyclesPerNS {
		t.Fatalf("hit latency = %d, want %d", hit-busy, 50*CyclesPerNS)
	}
	if c.BusyUntil() != busy {
		t.Fatal("DRAM hit occupied the NVM channel")
	}
	if c.Stats().DRAMHits != 1 {
		t.Fatalf("DRAMHits = %d, want 1", c.Stats().DRAMHits)
	}
}

func TestDRAMCacheLRUEviction(t *testing.T) {
	c := NewController(DefaultConfig().WithDRAMCache(2))
	now := uint64(0)
	now = c.SubmitRead(now, 1)
	now = c.SubmitRead(now, 2)
	now = c.SubmitRead(now, 1) // refresh page 1
	now = c.SubmitRead(now, 3) // evicts page 2 (LRU)
	now = c.SubmitRead(now, 1) // still cached
	before := c.Stats().DRAMHits
	now = c.SubmitRead(now, 2) // must miss again
	if c.Stats().DRAMHits != before {
		t.Fatal("evicted page still hit")
	}
	_ = now
}

func TestSubmitReadWithoutCache(t *testing.T) {
	c := NewController(DefaultConfig())
	done := c.SubmitRead(0, 7)
	if done != 128*CyclesPerNS+10 {
		t.Fatalf("uncached SubmitRead latency = %d", done)
	}
	if c.Stats().DRAMHits != 0 {
		t.Fatal("phantom DRAM hit")
	}
}

func TestWithDRAMCacheNaming(t *testing.T) {
	cfg := DefaultConfig().WithDRAMCache(128)
	if cfg.DRAMCachePages != 128 || cfg.DRAMHitCycles == 0 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Name == DefaultConfig().Name {
		t.Fatal("cache variant must have a distinct name (memoization key)")
	}
}

func TestOpString(t *testing.T) {
	if OpDemandRead.String() != "demand_read" {
		t.Fatalf("OpDemandRead.String() = %q", OpDemandRead.String())
	}
	if Op(99).String() == "" {
		t.Fatal("out-of-range op should still render")
	}
}

func TestBankParallelism(t *testing.T) {
	// Two writes on a 1-bank device serialize; on an 8-bank device they
	// overlap on different banks (only the channel transfer serializes).
	single := NewController(DefaultConfig())
	single.Submit(0, OpWriteback, 64)
	d1 := single.Submit(0, OpWriteback, 64)

	multi8 := DefaultConfig()
	multi8.Banks = 8
	multi := NewController(multi8)
	multi.Submit(0, OpWriteback, 64)
	d8 := multi.Submit(0, OpWriteback, 64)
	if d8 >= d1 {
		t.Fatalf("8-bank second write (%d) not faster than 1-bank (%d)", d8, d1)
	}
}

func TestReadPriorityBypassesWrites(t *testing.T) {
	fifo := NewController(DefaultConfig())
	for i := 0; i < 16; i++ {
		fifo.Submit(0, OpWriteback, 64)
	}
	fifoRead := fifo.Submit(0, OpDemandRead, 64)

	rpCfg := DefaultConfig()
	rpCfg.ReadPriority = true
	rp := NewController(rpCfg)
	for i := 0; i < 16; i++ {
		rp.Submit(0, OpWriteback, 64)
	}
	rpRead := rp.Submit(0, OpDemandRead, 64)
	if rpRead >= fifoRead {
		t.Fatalf("priority read (%d) not faster than FIFO read (%d)", rpRead, fifoRead)
	}
	// Bounded by one in-service write plus its own row read.
	bound := uint64(368*CyclesPerNS) + uint64(128*CyclesPerNS) + 20
	if rpRead > bound {
		t.Fatalf("priority read latency %d exceeds one-write bound %d", rpRead, bound)
	}
}

func TestReorderingPredicate(t *testing.T) {
	if DefaultConfig().Reordering() {
		t.Fatal("default config must not reorder")
	}
	c := DefaultConfig()
	c.Banks = 8
	if !c.Reordering() {
		t.Fatal("banked config must report reordering")
	}
	c = DefaultConfig()
	c.ReadPriority = true
	if !c.Reordering() {
		t.Fatal("read-priority config must report reordering")
	}
}

func TestSingleBankTimingUnchangedByRefactor(t *testing.T) {
	// The banked implementation with Banks=1 must reproduce the original
	// single-resource FCFS numbers exactly (regression guard).
	c := NewController(DefaultConfig())
	seq := []struct {
		op   Op
		b    int
		want uint64
	}{
		{OpDemandRead, 64, 266},
		{OpWriteback, 64, 266 + 746},
		{OpSeqBlockWrite, 2048, 266 + 746 + 736 + 320},
	}
	for _, s := range seq {
		if got := c.Submit(0, s.op, s.b); got != s.want {
			t.Fatalf("%v: done=%d want %d", s.op, got, s.want)
		}
	}
}
