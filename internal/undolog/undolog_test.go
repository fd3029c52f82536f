package undolog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"picl/internal/mem"
)

func TestEntryCovers(t *testing.T) {
	e := Entry{ValidFrom: 1, ValidTill: 3}
	for epoch, want := range map[mem.EpochID]bool{0: false, 1: true, 2: true, 3: false, 4: false} {
		if got := e.Covers(epoch); got != want {
			t.Errorf("Covers(%d) = %v, want %v", epoch, got, want)
		}
	}
}

func TestAppendAndAccounting(t *testing.T) {
	l := NewLog(0)
	l.AppendBlock([]Entry{{Line: 1, ValidFrom: 0, ValidTill: 1, Old: 10}})
	if l.LiveBytes() != BlockBytes || l.Blocks() != 1 {
		t.Fatalf("live=%d blocks=%d", l.LiveBytes(), l.Blocks())
	}
	l.AppendBlock(nil) // empty append is a no-op
	if l.Blocks() != 1 {
		t.Fatal("empty append changed block count")
	}
	if l.PeakBytes() != BlockBytes || l.TotalBytes() != BlockBytes {
		t.Fatalf("peak=%d total=%d", l.PeakBytes(), l.TotalBytes())
	}
}

func TestAppendCopiesEntries(t *testing.T) {
	l := NewLog(0)
	src := []Entry{{Line: 1, Old: 5, ValidTill: 1}}
	l.AppendBlock(src)
	src[0].Old = 99 // mutating caller's slice must not affect the log
	img := mem.NewImage()
	l.ApplyTo(img, 0)
	if img.Read(1) != 5 {
		t.Fatalf("log entry aliased caller slice: got %v", img.Read(1))
	}
}

func TestRegionGrowth(t *testing.T) {
	l := NewLog(BlockBytes) // one-block region
	l.AppendBlock([]Entry{{ValidTill: 1}})
	if l.Grows() != 0 {
		t.Fatal("premature growth")
	}
	l.AppendBlock([]Entry{{ValidTill: 2}})
	if l.Grows() == 0 {
		t.Fatal("region exhaustion did not trigger OS growth interrupt")
	}
}

func TestGCReclaimsExpiredPrefixOnly(t *testing.T) {
	l := NewLog(0)
	l.AppendBlock([]Entry{{ValidTill: 1}})
	l.AppendBlock([]Entry{{ValidTill: 2}})
	l.AppendBlock([]Entry{{ValidTill: 5}})
	if freed := l.GC(0); freed != 0 {
		t.Fatalf("GC(0) freed %d, want 0", freed)
	}
	if freed := l.GC(2); freed != 2*BlockBytes {
		t.Fatalf("GC(2) freed %d, want %d", freed, 2*BlockBytes)
	}
	if l.LiveBytes() != BlockBytes || l.Reclaimed() != 2*BlockBytes {
		t.Fatalf("live=%d reclaimed=%d", l.LiveBytes(), l.Reclaimed())
	}
	// Blocks() is the total-ever watermark, unaffected by GC.
	if l.Blocks() != 3 {
		t.Fatalf("Blocks = %d, want 3", l.Blocks())
	}
}

func TestGCNeverReclaimsNeededBlocks(t *testing.T) {
	// Property: after GC(persisted), recovery to persisted yields the
	// same image as without GC.
	prop := func(seed int64, nBlocks uint8, persistedRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		build := func() *Log {
			rr := rand.New(rand.NewSource(seed))
			l := NewLog(0)
			till := mem.EpochID(0)
			for b := 0; b < int(nBlocks%12)+1; b++ {
				var entries []Entry
				for e := 0; e < rr.Intn(5)+1; e++ {
					from := till
					if rr.Intn(2) == 0 && from > 0 {
						from--
					}
					entries = append(entries, Entry{
						Line:      mem.LineAddr(rr.Intn(8)),
						ValidFrom: from,
						ValidTill: till + 1,
						Old:       mem.Word(rr.Uint64()),
					})
				}
				if rr.Intn(2) == 0 {
					till++
				}
				l.AppendBlock(entries)
			}
			return l
		}
		a, b := build(), build()
		persisted := mem.EpochID(persistedRaw % 8)
		b.GC(persisted)
		ia, ib := mem.NewImage(), mem.NewImage()
		a.ApplyTo(ia, persisted)
		b.ApplyTo(ib, persisted)
		_ = r
		return ia.Equal(ib)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestApplyToOldestWins(t *testing.T) {
	// Two entries for the same address both covering epoch 0: the older
	// (appended first) must win (paper: "only the oldest one is valid").
	l := NewLog(0)
	l.AppendBlock([]Entry{{Line: 7, ValidFrom: 0, ValidTill: 1, Old: 111}})
	l.AppendBlock([]Entry{{Line: 7, ValidFrom: 0, ValidTill: 2, Old: 222}})
	img := mem.NewImage()
	applied, _ := l.ApplyTo(img, 0)
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if got := img.Read(7); got != 111 {
		t.Fatalf("recovered value = %v, want oldest entry 111", got)
	}
}

func TestApplyToEarlyStop(t *testing.T) {
	l := NewLog(0)
	l.AppendBlock([]Entry{{Line: 1, ValidFrom: 0, ValidTill: 1, Old: 1}})
	l.AppendBlock([]Entry{{Line: 2, ValidFrom: 1, ValidTill: 2, Old: 2}})
	l.AppendBlock([]Entry{{Line: 3, ValidFrom: 2, ValidTill: 5, Old: 3}})
	img := mem.NewImage()
	_, scanned := l.ApplyTo(img, 2)
	// Recovery to epoch 2: blocks with MaxValidTill <= 2 are skipped.
	if scanned != 1 {
		t.Fatalf("scanned %d blocks, want 1 (early stop)", scanned)
	}
	if img.Read(3) != 3 || img.Read(2) != 0 {
		t.Fatal("early stop applied the wrong entries")
	}
}

// TestBlockApply: one step of the backward scan applies a live block's
// covering entries newest first, so its oldest entry for a line wins,
// and reports a block expired at or before the target as the stop
// without touching the image.
func TestBlockApply(t *testing.T) {
	b := Block{Entries: []Entry{
		{Line: 7, ValidFrom: 1, ValidTill: 3, Old: 111},
		{Line: 7, ValidFrom: 2, ValidTill: 4, Old: 222},
		{Line: 8, ValidFrom: 3, ValidTill: 4, Old: 333}, // starts after epoch 2
	}, MaxValidTill: 4}
	img := mem.NewImage()
	if applied, stop := b.Apply(img, 2); applied != 2 || stop {
		t.Fatalf("Apply to epoch 2 = (%d, %v), want (2, false)", applied, stop)
	}
	if img.Read(7) != 111 || img.Read(8) != 0 {
		t.Fatalf("line 7 = %d, line 8 = %d; want the oldest entry 111 and no write", img.Read(7), img.Read(8))
	}
	if applied, stop := b.Apply(img, 4); applied != 0 || !stop {
		t.Fatalf("Apply to epoch 4 = (%d, %v), want the stop", applied, stop)
	}
}

func TestTruncateTo(t *testing.T) {
	l := NewLog(0)
	for i := 1; i <= 4; i++ {
		l.AppendBlock([]Entry{{ValidTill: mem.EpochID(i)}})
	}
	l.TruncateTo(2)
	if l.Blocks() != 2 || l.LiveBytes() != 2*BlockBytes {
		t.Fatalf("after truncate: blocks=%d live=%d", l.Blocks(), l.LiveBytes())
	}
	l.TruncateTo(10) // beyond end: no-op
	if l.Blocks() != 2 {
		t.Fatal("over-truncate changed state")
	}
}

func TestTruncateBelowGCPanics(t *testing.T) {
	l := NewLog(0)
	l.AppendBlock([]Entry{{ValidTill: 1}})
	l.AppendBlock([]Entry{{ValidTill: 2}})
	l.GC(1)
	defer func() {
		if recover() == nil {
			t.Fatal("truncating below GC'd prefix must panic")
		}
	}()
	l.TruncateTo(0)
}

func TestCheckOrdered(t *testing.T) {
	l := NewLog(0)
	l.AppendBlock([]Entry{{ValidTill: 1}})
	l.AppendBlock([]Entry{{ValidTill: 3}})
	if err := l.CheckOrdered(); err != nil {
		t.Fatal(err)
	}
	// Force a violation by hand to prove the check detects it.
	l.blocks[1].MaxValidTill = 0
	if err := l.CheckOrdered(); err == nil {
		t.Fatal("CheckOrdered missed an inversion")
	}
}

func TestBuffer(t *testing.T) {
	b := NewBuffer(3)
	if b.Cap() != 3 || b.Len() != 0 {
		t.Fatalf("cap=%d len=%d", b.Cap(), b.Len())
	}
	if b.OldestValidTill() != mem.NoEpoch {
		t.Fatal("empty buffer OldestValidTill should be NoEpoch")
	}
	if b.Add(Entry{ValidTill: 5}) {
		t.Fatal("buffer reported full at 1/3")
	}
	b.Add(Entry{ValidTill: 2})
	if got := b.OldestValidTill(); got != 2 {
		t.Fatalf("OldestValidTill = %v, want 2", got)
	}
	if !b.Add(Entry{ValidTill: 9}) {
		t.Fatal("buffer should report full at capacity")
	}
	drained := b.Drain()
	if len(drained) != 3 || b.Len() != 0 {
		t.Fatalf("drain returned %d entries, buffer len %d", len(drained), b.Len())
	}
}

func TestBufferDefaultCapacity(t *testing.T) {
	if got := NewBuffer(0).Cap(); got != EntriesPerBlock {
		t.Fatalf("default capacity = %d, want %d", got, EntriesPerBlock)
	}
}

func TestRandomizedRecoveryAgainstReference(t *testing.T) {
	// Build a random multi-epoch write history over a small address set,
	// maintain a reference end-of-epoch snapshot list, and verify that
	// log recovery to each persisted epoch reproduces the snapshot.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		l := NewLog(0)
		img := mem.NewImage() // final memory: all writes applied in place
		lastEID := map[mem.LineAddr]mem.EpochID{}
		snapshots := []*mem.Image{}
		var pending []Entry
		flush := func() {
			if len(pending) > 0 {
				l.AppendBlock(pending)
				pending = nil
			}
		}
		// Epoch numbering convention (matches the schemes): SystemEID
		// starts at 1; "epoch 0" is the pristine initial state.
		snapshots = append(snapshots, img.Clone())
		nEpochs := r.Intn(6) + 2
		for epoch := mem.EpochID(1); epoch <= mem.EpochID(nEpochs); epoch++ {
			writes := r.Intn(12)
			for w := 0; w < writes; w++ {
				line := mem.LineAddr(r.Intn(6))
				old := img.Read(line)
				if last, mod := lastEID[line]; !mod || last != epoch {
					from := mem.EpochID(0)
					if mod {
						from = last
					}
					pending = append(pending, Entry{Line: line, ValidFrom: from, ValidTill: epoch, Old: old})
					if len(pending) >= 4 {
						flush()
					}
				}
				lastEID[line] = epoch
				img.Write(line, mem.Word(r.Uint64()|1))
			}
			snapshots = append(snapshots, img.Clone())
		}
		flush()
		// Recover to each epoch and compare to its snapshot. Note the
		// entry ValidTill convention: an entry created when epoch E
		// overwrites data valid through E-1, i.e. ranges [from, E).
		for e := 0; e <= nEpochs; e++ {
			rec := img.Clone()
			l.ApplyTo(rec, mem.EpochID(e))
			if !rec.Equal(snapshots[e]) {
				t.Fatalf("trial %d: recovery to epoch %d mismatch (diff %v)",
					trial, e, rec.Diff(snapshots[e], 4))
			}
		}
		if err := l.CheckOrdered(); err != nil {
			t.Fatal(err)
		}
	}
}
