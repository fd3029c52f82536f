package mem

import (
	"testing"
	"testing/quick"
)

func TestLinePageGeometry(t *testing.T) {
	cases := []struct {
		addr Addr
		line LineAddr
		page PageAddr
	}{
		{0, 0, 0},
		{63, 0, 0},
		{64, 1, 0},
		{4095, 63, 0},
		{4096, 64, 1},
		{0xdeadbeef, 0xdeadbeef >> 6, 0xdeadbeef >> 12},
	}
	for _, c := range cases {
		if got := c.addr.Line(); got != c.line {
			t.Errorf("%v.Line() = %v, want %v", c.addr, got, c.line)
		}
		if got := c.addr.Page(); got != c.page {
			t.Errorf("%v.Page() = %v, want %v", c.addr, got, c.page)
		}
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	f := func(l uint64) bool {
		la := LineAddr(l & 0x3ffffffffffff) // stay inside addressable range
		return la.Addr().Line() == la
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageLineRelations(t *testing.T) {
	p := PageAddr(7)
	first := p.FirstLine()
	if first.Page() != p {
		t.Fatalf("FirstLine().Page() = %v, want %v", first.Page(), p)
	}
	if got := LineAddr(uint64(first) + LinesPerPage - 1).Page(); got != p {
		t.Fatalf("last line of page maps to %v, want %v", got, p)
	}
	if got := LineAddr(uint64(first) + LinesPerPage).Page(); got != p+1 {
		t.Fatalf("line past page maps to %v, want %v", got, p+1)
	}
}

func TestResolveTagExact(t *testing.T) {
	// For every (system, delta < 15) pair the truncated tag must resolve
	// back to the original epoch. delta = 15 is excluded: the hardware
	// invariant is SystemEID - PersistedEID < 2^TagBits so a live tag is
	// never a full wrap behind.
	for system := EpochID(0); system < 64; system++ {
		maxDelta := EpochID(TagMask)
		if system < maxDelta {
			maxDelta = system
		}
		for delta := EpochID(0); delta <= maxDelta; delta++ {
			e := system - delta
			if got := ResolveTag(e.Tag(), system); got != e {
				t.Fatalf("ResolveTag(tag(%d), %d) = %d, want %d", e, system, got, e)
			}
		}
	}
}

func TestResolveTagQuick(t *testing.T) {
	f := func(sys uint64, d uint8) bool {
		system := EpochID(sys)
		delta := EpochID(d % TagMask) // strictly less than 2^TagBits-1... allow up to 15
		if delta > system {
			delta = system
		}
		e := system - delta
		return ResolveTag(e.Tag(), system) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTagBoundaryTable pins the 4-bit tag arithmetic at the edges the
// eidcmp lint rule exists to protect: the 15→0 tag rollover, the
// half-range point, and the full-wrap ambiguity just past the ACS bound.
// These are the blessed call targets (Tag/ResolveTag plus the ordering
// helpers) that the rest of the module must use instead of raw operators.
func TestTagBoundaryTable(t *testing.T) {
	cases := []struct {
		name    string
		epoch   EpochID // epoch whose tag the hardware stored
		system  EpochID // current SystemEID when the tag is observed
		resolve EpochID // what ResolveTag must reconstruct
	}{
		{"identity at zero", 0, 0, 0},
		{"last pre-rollover value", 15, 15, 15},
		// 16 truncates to tag 0; resolving tag 0 at system 16 must give
		// 16 back, not 0 — a raw compare of tags would order them 0 < 15
		// even though epoch 16 is newer than epoch 15.
		{"15->0 rollover", 16, 16, 16},
		{"tag 15 still live across rollover", 15, 16, 15},
		{"tag 15 live at max gap", 15, 29, 15},
		// Half-range: at system 24, tag 0 could mean epoch 16 or the
		// eight-epoch-older 16-aliased epoch... the unique answer within
		// gap < 16 is 16.
		{"half-range back", 16, 24, 16},
		{"half-range forward alias", 24, 24, 24},
		// Large absolute epochs: only the low TagBits matter.
		{"large epoch rollover", 1<<40 | 16, 1<<40 | 16, 1<<40 | 16},
		{"large epoch cross", 1<<40 - 1, 1 << 40, 1<<40 - 1},
	}
	for _, c := range cases {
		if got := ResolveTag(c.epoch.Tag(), c.system); got != c.resolve {
			t.Errorf("%s: ResolveTag(tag(%d), %d) = %d, want %d",
				c.name, c.epoch, c.system, got, c.resolve)
		}
	}

	// Full-wrap ambiguity: one whole tag space (16) behind system, the
	// tag aliases the current epoch — ResolveTag CANNOT distinguish them,
	// which is precisely why the ACS engine stalls commits before
	// System.Gap(Persisted) reaches TagMask (see core.EpochBoundary).
	if got := ResolveTag(EpochID(4).Tag(), 20); got != 20 {
		t.Errorf("full-wrap alias: ResolveTag(tag(4), 20) = %d, want the aliased 20", got)
	}
}

// TestEpochOrderingHelpers exercises the helper set the eidcmp rule
// funnels every non-mem package through.
func TestEpochOrderingHelpers(t *testing.T) {
	if !EpochID(3).Before(4) || EpochID(4).Before(4) || EpochID(5).Before(4) {
		t.Error("Before misordered")
	}
	if !EpochID(4).AtMost(4) || !EpochID(3).AtMost(4) || EpochID(5).AtMost(4) {
		t.Error("AtMost misordered")
	}
	if !EpochID(5).After(4) || EpochID(4).After(4) || EpochID(3).After(4) {
		t.Error("After misordered")
	}
	if !EpochID(4).AtLeast(4) || !EpochID(5).AtLeast(4) || EpochID(3).AtLeast(4) {
		t.Error("AtLeast misordered")
	}
	if NoEpoch.AtMost(1<<50) || !NoEpoch.After(1<<50) {
		t.Error("NoEpoch must sort after every real epoch")
	}
	if got := EpochID(19).Gap(4); got != 15 {
		t.Errorf("Gap(19,4) = %d, want 15", got)
	}
	if got := EpochID(4).Gap(19); got != 0 {
		t.Errorf("Gap saturation: Gap(4,19) = %d, want 0", got)
	}
	if got := EpochID(7).Minus(3); got != 4 {
		t.Errorf("Minus(7,3) = %d, want 4", got)
	}
	if got := EpochID(2).Minus(5); got != 0 {
		t.Errorf("Minus must saturate at 0, got %d", got)
	}
}

func TestPayloadForDistinct(t *testing.T) {
	seen := make(map[Word][3]uint64)
	for l := uint64(0); l < 50; l++ {
		for e := uint64(0); e < 50; e++ {
			for s := uint64(0); s < 4; s++ {
				w := PayloadFor(LineAddr(l), EpochID(e), s)
				if prev, ok := seen[w]; ok {
					t.Fatalf("payload collision: (%d,%d,%d) and %v -> %v", l, e, s, prev, w)
				}
				seen[w] = [3]uint64{l, e, s}
			}
		}
	}
}

func TestImageBasics(t *testing.T) {
	im := NewImage()
	if got := im.Read(5); got != 0 {
		t.Fatalf("fresh image Read = %v, want 0", got)
	}
	im.Write(5, 42)
	im.Write(9, 99)
	if im.Read(5) != 42 || im.Read(9) != 99 {
		t.Fatal("Write/Read mismatch")
	}
	if im.Len() != 2 {
		t.Fatalf("Len = %d, want 2", im.Len())
	}
	im.Write(5, 0) // writing zero erases the sparse entry
	if im.Len() != 1 || im.Read(5) != 0 {
		t.Fatal("zero write did not clear entry")
	}
}

// TestImageSwap: Swap returns what the line held and leaves the image
// exactly as Write would, page counts and history included.
func TestImageSwap(t *testing.T) {
	sw, wr := NewImage(), NewImage()
	sw.EnableHistory()
	wr.EnableHistory()
	steps := []struct {
		l LineAddr
		w Word
	}{{5, 42}, {5, 43}, {70, 7}, {5, 0}, {70, 0}, {9, 0}, {9, 1}}
	for i, s := range steps {
		if old := sw.Swap(s.l, s.w); old != wr.Read(s.l) {
			t.Fatalf("step %d: Swap(%v) returned %d, the line held %d", i, s.l, old, wr.Read(s.l))
		}
		wr.Write(s.l, s.w)
		if !sw.Equal(wr) || sw.Len() != wr.Len() || len(sw.pages) != len(wr.pages) {
			t.Fatalf("step %d: Swap left %d lines on %d pages, Write %d on %d",
				i, sw.Len(), len(sw.pages), wr.Len(), len(wr.pages))
		}
		if i == 2 {
			sw.Mark()
			wr.Mark()
		}
	}
	if !sw.At(0).Equal(wr.At(0)) || !sw.At(1).Equal(wr.At(1)) || sw.At(1).Read(5) != 43 {
		t.Fatal("Swap's history differs from Write's")
	}
}

func TestImageCloneIsDeep(t *testing.T) {
	im := NewImage()
	im.Write(1, 10)
	c := im.Clone()
	c.Write(1, 20)
	if im.Read(1) != 10 {
		t.Fatal("Clone is not deep")
	}
	if im.Equal(c) {
		t.Fatal("Equal reported modified clone as equal")
	}
	c.Write(1, 10)
	if !im.Equal(c) {
		t.Fatal("Equal reported identical images as different")
	}
}

func TestImageEqualAsymmetricKeys(t *testing.T) {
	a, b := NewImage(), NewImage()
	a.Write(1, 1)
	b.Write(2, 2)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("images with disjoint keys reported equal")
	}
}

func TestImageDiff(t *testing.T) {
	a, b := NewImage(), NewImage()
	a.Write(1, 1)
	a.Write(2, 2)
	b.Write(2, 3)
	b.Write(4, 4)
	d := a.Diff(b, 10)
	if len(d) != 3 {
		t.Fatalf("Diff len = %d (%v), want 3", len(d), d)
	}
	if got := a.Diff(b, 1); len(got) != 1 {
		t.Fatalf("Diff with max=1 returned %d entries", len(got))
	}
	if got := a.Diff(a, 10); len(got) != 0 {
		t.Fatalf("self Diff = %v, want empty", got)
	}
}
