package trace

import (
	"math"
	"testing"

	"picl/internal/mem"
)

func TestBenchmarkListComplete(t *testing.T) {
	names := Benchmarks()
	if len(names) != 29 {
		t.Fatalf("Benchmarks() has %d entries, want 29", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate benchmark %q", n)
		}
		seen[n] = true
		if _, err := ProfileFor(n); err != nil {
			t.Fatalf("no profile for listed benchmark %q", n)
		}
	}
	if len(Names()) != 29 {
		t.Fatalf("Names() has %d entries, want 29", len(Names()))
	}
}

func TestFig12SubsetValid(t *testing.T) {
	for _, n := range Fig12Benchmarks() {
		if _, err := ProfileFor(n); err != nil {
			t.Fatalf("Fig12 benchmark %q unknown", n)
		}
	}
}

func TestMixesWellFormed(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 8 {
		t.Fatalf("got %d mixes, want 8 (Table V)", len(mixes))
	}
	for i, mix := range mixes {
		if len(mix) != 8 {
			t.Fatalf("mix W%d has %d entries, want 8", i, len(mix))
		}
		for _, n := range mix {
			if _, err := ProfileFor(n); err != nil {
				t.Fatalf("mix W%d: %v", i, err)
			}
		}
	}
}

func TestProfileForUnknown(t *testing.T) {
	if _, err := ProfileFor("nonesuch"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustProfile should panic on unknown name")
		}
	}()
	MustProfile("nonesuch")
}

func TestSyntheticDeterminism(t *testing.T) {
	p := MustProfile("gcc")
	a := NewSynthetic(p, 0, 42)
	b := NewSynthetic(p, 0, 42)
	for i := 0; i < 10000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("divergence at %d: %+v vs %+v", i, x, y)
		}
	}
	c := NewSynthetic(p, 0, 43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical accesses", same)
	}
}

// floatChainNext is Synthetic.Next written the plain way: each draw
// converted by float() and compared against the profile's probability
// sums in its stream, cold, warm, hot chain, every remainder taken
// with %.
// streams is the reference's own copy of the stream pointers.
func floatChainNext(g *Synthetic, r *rng, streams []uint64) Access {
	p := g.p
	gap := uint32(r.next() % uint64(g.gapN))
	u := r.float()
	write := r.float() < p.WriteFrac
	var line mem.LineAddr
	switch {
	case u < p.PStream:
		s := r.next() % uint64(len(streams))
		streams[s]++
		line = g.coldBase() + mem.LineAddr(streams[s]%uint64(max(p.ColdLines, 1)))
		write = r.float() < p.StreamWriteFrac
	case u < p.PStream+p.PCold:
		line = g.coldBase() + mem.LineAddr(r.next()%uint64(max(p.ColdLines, 1)))
	case u < p.PStream+p.PCold+p.PWarm:
		line = g.warmBase() + mem.LineAddr(r.next()%uint64(max(p.WarmLines, 1)))
	default:
		line = g.hotBase() + mem.LineAddr(r.next()%uint64(max(p.HotLines, 1)))
	}
	return Access{Gap: gap, Write: write, Line: line}
}

// TestNextMatchesFloatChain: the integer thresholds draw exactly the
// float-compared stream, for every benchmark profile and for
// probabilities that are zero, negative, NaN, out of order or sum past
// one.
func TestNextMatchesFloatChain(t *testing.T) {
	var cases []Profile
	for _, name := range Benchmarks() {
		cases = append(cases, MustProfile(name).Scale(1.0/64))
	}
	odd := MustProfile("gcc").Scale(1.0 / 64)
	for _, ps := range [][4]float64{
		{0, 0, 0, 0},
		{0.5, 0.3, 0.4, 1.2},
		{-0.1, 0.2, -0.3, 0.5},
		{0.1, math.NaN(), 0.3, math.NaN()},
		{0.7, 0.1, 0.1, 1},
		{1, 0, 0, 0.3},
	} {
		q := odd
		q.PStream, q.PCold, q.PWarm, q.WriteFrac = ps[0], ps[1], ps[2], ps[3]
		q.StreamWriteFrac = ps[3] / 2
		q.Streams = 3
		cases = append(cases, q)
	}
	for k, p := range cases {
		seed := uint64(k*7 + 1)
		g := NewSynthetic(p, mem.LineAddr(k)<<30, seed)
		r := rng{state: seed ^ 0x5bf03635}
		streams := make([]uint64, len(g.streams))
		for i := range streams {
			streams[i] = uint64(r.intn(max(p.ColdLines, 1)))
		}
		for i := 0; i < 20000; i++ {
			if got, want := g.Next(), floatChainNext(g, &r, streams); got != want {
				t.Fatalf("profile %d (%s %+v), access %d: %+v, the float chain draws %+v", k, p.Name, p, i, got, want)
			}
		}
	}
}

func TestSyntheticStaysInFootprint(t *testing.T) {
	for _, name := range Benchmarks() {
		p := MustProfile(name).Scale(0.05)
		base := mem.LineAddr(1 << 30)
		g := NewSynthetic(p, base, 1)
		fp := mem.LineAddr(g.Footprint())
		for i := 0; i < 20000; i++ {
			a := g.Next()
			if a.Line < base || a.Line >= base+fp {
				t.Fatalf("%s: access %v outside [%v, %v)", name, a.Line, base, base+fp)
			}
		}
	}
}

func TestSyntheticWriteFractionPlausible(t *testing.T) {
	// Streaming writers must actually write more than compute-bound codes.
	frac := func(name string) float64 {
		g := NewSynthetic(MustProfile(name), 0, 7)
		w := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if g.Next().Write {
				w++
			}
		}
		return float64(w) / n
	}
	lbm, povray := frac("lbm"), frac("povray")
	if lbm <= povray {
		t.Fatalf("lbm write frac %.3f <= povray %.3f", lbm, povray)
	}
	if lbm < 0.25 {
		t.Fatalf("lbm write frac %.3f implausibly low", lbm)
	}
}

func TestSyntheticMemFraction(t *testing.T) {
	p := MustProfile("hmmer") // MemFrac 0.45
	g := NewSynthetic(p, 0, 3)
	var gaps uint64
	const n = 50000
	for i := 0; i < n; i++ {
		gaps += uint64(g.Next().Gap)
	}
	memFrac := float64(n) / float64(n+int(gaps))
	if memFrac < 0.35 || memFrac > 0.55 {
		t.Fatalf("observed memory fraction %.3f, want near 0.45", memFrac)
	}
}

func TestSyntheticSpatialLocalityDiffers(t *testing.T) {
	// libquantum (streaming) must show far more sequential next-line
	// transitions than mcf (pointer chasing).
	seqFrac := func(name string) float64 {
		g := NewSynthetic(MustProfile(name), 0, 9)
		prev := g.Next().Line
		seq := 0
		const n = 50000
		for i := 0; i < n; i++ {
			a := g.Next()
			if a.Line == prev+1 {
				seq++
			}
			prev = a.Line
		}
		return float64(seq) / n
	}
	lq, mcf := seqFrac("libquantum"), seqFrac("mcf")
	if lq < 4*mcf {
		t.Fatalf("libquantum seq frac %.3f not >> mcf %.3f", lq, mcf)
	}
}

func TestScale(t *testing.T) {
	p := MustProfile("mcf")
	s := p.Scale(0.1)
	if s.ColdLines >= p.ColdLines || s.ColdLines < 8 {
		t.Fatalf("scale broken: %d -> %d", p.ColdLines, s.ColdLines)
	}
	tiny := p.Scale(0.0000001)
	if tiny.HotLines < 8 {
		t.Fatal("scale floor violated")
	}
}

func TestUniformGenerator(t *testing.T) {
	g := NewUniform("u", 100, 10, 0.5, 3, 1)
	if g.Name() != "u" {
		t.Fatal("name")
	}
	writes := 0
	for i := 0; i < 10000; i++ {
		a := g.Next()
		if a.Line < 100 || a.Line >= 110 {
			t.Fatalf("out of range access %v", a.Line)
		}
		if a.Gap != 3 {
			t.Fatalf("gap = %d, want 3", a.Gap)
		}
		if a.Write {
			writes++
		}
	}
	if writes < 4000 || writes > 6000 {
		t.Fatalf("writes = %d/10000, want ~5000", writes)
	}
}

func TestSequentialGenerator(t *testing.T) {
	g := NewSequential("s", 50, 50, 0)
	for i := 0; i < 120; i++ {
		a := g.Next()
		if !a.Write {
			t.Fatal("sequential generator must write")
		}
		if want := mem.LineAddr(50 + i%50); a.Line != want {
			t.Fatalf("access %d: line %v, want %v", i, a.Line, want)
		}
	}
	if g.Name() != "s" {
		t.Fatal("name")
	}
}

func TestSharedGroup(t *testing.T) {
	sg := NewSharedGroup(1<<20, 64)
	a := sg.Wrap(NewUniform("a", 0, 100, 0.5, 1, 1), 0.5, 11)
	b := sg.Wrap(NewUniform("b", 1<<10, 100, 0.5, 1, 2), 0.5, 22)
	if a.Name() != "a+shared" {
		t.Fatalf("name = %q", a.Name())
	}
	inShared := func(l mem.LineAddr) bool { return l >= 1<<20 && l < 1<<20+64 }
	sharedA, sharedB := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		if inShared(a.Next().Line) {
			sharedA++
		}
		if inShared(b.Next().Line) {
			sharedB++
		}
	}
	for _, got := range []int{sharedA, sharedB} {
		if got < n*4/10 || got > n*6/10 {
			t.Fatalf("shared fraction = %d/%d, want ~50%%", got, n)
		}
	}
}

func TestSharedGroupZeroLines(t *testing.T) {
	sg := NewSharedGroup(0, 0)
	g := sg.Wrap(NewUniform("x", 100, 10, 0, 1, 3), 1.0, 4)
	for i := 0; i < 100; i++ {
		if got := g.Next().Line; got != 0 {
			t.Fatalf("degenerate shared region access = %v", got)
		}
	}
}
