// Package trace generates the synthetic memory reference streams that
// stand in for the paper's Pin-captured SPEC CPU2006 SimPoint traces
// (which require proprietary binaries and inputs; see DESIGN.md §3).
//
// Each benchmark is modeled as a mixture of access populations whose
// parameters are calibrated to the published memory behavior classes of
// SPEC2006: a hot set (L1/L2-resident reuse), a warm set (LLC-scale), a
// cold set (memory-resident, random), and sequential write/read streams.
// The checkpointing evaluation depends only on these stream shapes —
// per-epoch write-set size, reuse distance, spatial locality and eviction
// rate — not on instruction semantics, so the mixture model preserves the
// paper's comparison structure (which scheme wins, and why).
//
// Generators are deterministic (seeded splitmix64), so every experiment
// and every crash-recovery test replays exactly.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"picl/internal/mem"
)

// Access is one memory reference: Gap non-memory instructions execute
// first (at CPI 1, per Table IV), then the reference itself.
type Access struct {
	Gap   uint32
	Write bool
	Line  mem.LineAddr
}

// Generator produces an infinite deterministic access stream.
type Generator interface {
	Name() string
	Next() Access
}

// rng is a splitmix64 PRNG: tiny, fast, deterministic across runs.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// moddiv computes x % n for a fixed n >= 1 without the hardware divide
// instruction, which costs tens of cycles and sits on the generator's
// per-access path. Power-of-two divisors reduce to a mask; for the rest
// it uses the fixed-point reciprocal remainder of Lemire, Kaser and
// Steele ("Faster remainder by direct computation"): with
// c = ceil(2^128/n), x mod n = floor(((c*x) mod 2^128) * n / 2^128),
// exact for every uint64 x because 128 >= 64 + ceil(log2 n). The unit
// tests exhaustively cross-check it against the % operator; generators
// must produce bit-identical streams either way.
type moddiv struct {
	n        uint64
	mask     uint64 // n-1 when n is a power of two
	pow2     bool
	cHi, cLo uint64 // ceil(2^128/n), non-pow2 only
}

func newModdiv(n int) moddiv {
	if n < 1 {
		n = 1
	}
	u := uint64(n)
	if u&(u-1) == 0 {
		return moddiv{n: u, mask: u - 1, pow2: true}
	}
	// floor(2^128/u) via two-limb long division, then +1 for the ceiling
	// (u is not a power of two, so it never divides 2^128 evenly).
	qHi, r := bits.Div64(1, 0, u)
	qLo, _ := bits.Div64(r, 0, u)
	cLo, carry := bits.Add64(qLo, 1, 0)
	return moddiv{n: u, cHi: qHi + carry, cLo: cLo}
}

func (m *moddiv) mod(x uint64) uint64 {
	if m.pow2 {
		return x & m.mask
	}
	hi1, lo1 := bits.Mul64(m.cLo, x)
	lbHi := hi1 + m.cHi*x // (c*x) mod 2^128, low limb is lo1
	hi2, _ := bits.Mul64(lo1, m.n)
	h3, l3 := bits.Mul64(lbHi, m.n)
	_, carry := bits.Add64(l3, hi2, 0)
	return h3 + carry
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Profile parameterizes one benchmark's synthetic stream. Region sizes
// are in cache lines (64 B each).
type Profile struct {
	Name string
	// MemFrac is the fraction of instructions that access memory.
	MemFrac float64
	// WriteFrac is the store fraction among non-stream accesses.
	WriteFrac float64
	// Region sizes (lines) and selection weights. Weights need not sum to
	// one; the remainder goes to Hot.
	HotLines  int
	WarmLines int
	ColdLines int
	PWarm     float64
	PCold     float64
	// PStream selects a sequential stream access; StreamWriteFrac is the
	// store fraction within the stream (streaming writers like lbm are
	// mostly stores). Streams walk the cold region sequentially.
	PStream         float64
	StreamWriteFrac float64
	// Streams is the number of concurrent sequential pointers.
	Streams int
}

// Scale returns a copy of p with all region sizes multiplied by f
// (0 < f <= 1 shrinks footprints for fast benchmark runs; the harness
// scales epoch length by the same factor, preserving the write-set to
// epoch ratio that the paper's overheads are made of).
func (p Profile) Scale(f float64) Profile {
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 8 {
			v = 8
		}
		return v
	}
	p.HotLines = scale(p.HotLines)
	p.WarmLines = scale(p.WarmLines)
	p.ColdLines = scale(p.ColdLines)
	return p
}

// Synthetic is the mixture-model generator over a Profile.
type Synthetic struct {
	p       Profile
	base    mem.LineAddr
	r       rng
	streams []uint64
	gapMean float64

	// Per-access constants hoisted out of Next. The selection and write
	// thresholds are integers in the domain of the raw 53-bit PRNG draw
	// (see below53), so Next compares draws without converting them and
	// every comparison resolves as float() against the probability would.
	gapN                  int
	streamT, coldT, warmT uint64
	writeT, streamWriteT  uint64
	hotB, warmB, coldB    mem.LineAddr
	hotN, warmN, coldN    int
	// Divide-free x % n helpers for the fixed region sizes above (each
	// yields exactly intn's value for the same draw).
	gapD, streamD      moddiv
	hotD, warmD, coldD moddiv
}

// scale53 converts a probability into the raw-draw domain of float().
const scale53 = 1 << 53

// below53 returns the integer threshold t for probability p: a raw
// draw d < 2^53 satisfies float() < p, that is float64(d) < p*2^53,
// exactly when d < t. Converting d and scaling by 2^53 are exact, and
// an integer d is below a real x exactly when it is below ceil(x). A
// threshold past 2^53, which every draw is below, is clamped there;
// one at or under zero (or NaN), which no draw is below, is zero.
func below53(p float64) uint64 {
	switch x := math.Ceil(p * scale53); {
	case !(x > 0):
		return 0
	case x >= scale53:
		return scale53
	default:
		return uint64(x)
	}
}

// NewSynthetic builds a generator over profile p with its address space
// starting at base (cores get disjoint bases) and deterministic seed.
func NewSynthetic(p Profile, base mem.LineAddr, seed uint64) *Synthetic {
	if p.Streams <= 0 {
		p.Streams = 1
	}
	g := &Synthetic{p: p, base: base, r: rng{state: seed ^ 0x5bf03635}}
	for i := 0; i < p.Streams; i++ {
		g.streams = append(g.streams, uint64(g.r.intn(max(p.ColdLines, 1))))
	}
	if p.MemFrac <= 0 {
		p.MemFrac = 0.01
	}
	g.gapMean = (1 - p.MemFrac) / p.MemFrac
	g.p = p
	g.gapN = int(2*g.gapMean) + 1
	g.streamT = below53(p.PStream)
	g.coldT = below53(p.PStream + p.PCold)
	g.warmT = below53(p.PStream + p.PCold + p.PWarm)
	g.writeT = below53(p.WriteFrac)
	g.streamWriteT = below53(p.StreamWriteFrac)
	g.hotB, g.warmB, g.coldB = g.hotBase(), g.warmBase(), g.coldBase()
	g.hotN = max(p.HotLines, 1)
	g.warmN = max(p.WarmLines, 1)
	g.coldN = max(p.ColdLines, 1)
	g.gapD = newModdiv(g.gapN)
	g.streamD = newModdiv(len(g.streams))
	g.hotD = newModdiv(g.hotN)
	g.warmD = newModdiv(g.warmN)
	g.coldD = newModdiv(g.coldN)
	return g
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name returns the profile name.
func (g *Synthetic) Name() string { return g.p.Name }

// regionBase offsets: hot, warm, cold regions are disjoint.
func (g *Synthetic) hotBase() mem.LineAddr  { return g.base }
func (g *Synthetic) warmBase() mem.LineAddr { return g.base + mem.LineAddr(g.p.HotLines) }
func (g *Synthetic) coldBase() mem.LineAddr {
	return g.base + mem.LineAddr(g.p.HotLines+g.p.WarmLines)
}

// Footprint reports the generator's total address-space footprint in lines.
func (g *Synthetic) Footprint() int { return g.p.HotLines + g.p.WarmLines + g.p.ColdLines }

// Next produces the next access.
func (g *Synthetic) Next() Access {
	// Gap: uniform in [0, 2*mean] keeps the configured memory fraction
	// with cheap arithmetic and bounded bursts.
	gap := uint32(g.gapD.mod(g.r.next()))
	u := g.r.next() >> 11
	var line mem.LineAddr
	write := g.r.next()>>11 < g.writeT
	switch {
	case u < g.streamT:
		s := g.streamD.mod(g.r.next())
		g.streams[s]++
		line = g.coldB + mem.LineAddr(g.coldD.mod(g.streams[s]))
		write = g.r.next()>>11 < g.streamWriteT
	case u < g.coldT:
		line = g.coldB + mem.LineAddr(g.coldD.mod(g.r.next()))
	case u < g.warmT:
		line = g.warmB + mem.LineAddr(g.warmD.mod(g.r.next()))
	default:
		line = g.hotB + mem.LineAddr(g.hotD.mod(g.r.next()))
	}
	return Access{Gap: gap, Write: write, Line: line}
}

// --- SPEC CPU2006 profiles -------------------------------------------------

// kLine counts: 1 kLine = 1024 lines = 64 KiB.
const kLine = 1024

// profiles maps benchmark name to its synthetic profile. Values encode
// the published behavior classes: streaming writers (lbm, libquantum,
// milc, bwaves), large-footprint random/pointer-chasing (mcf, omnetpp,
// astar, xalancbmk, soplex), compute-bound tiny write sets (gamess,
// povray, namd, tonto, calculix, gromacs, dealII), and mixed integer
// codes (gcc, bzip2, perlbench, ...).
var profiles = map[string]Profile{
	"astar":      {MemFrac: 0.35, WriteFrac: 0.25, HotLines: 4 * kLine, WarmLines: 48 * kLine, ColdLines: 512 * kLine, PWarm: 0.25, PCold: 0.18},
	"bzip2":      {MemFrac: 0.32, WriteFrac: 0.30, HotLines: 6 * kLine, WarmLines: 64 * kLine, ColdLines: 128 * kLine, PWarm: 0.22, PCold: 0.06, PStream: 0.08, StreamWriteFrac: 0.5},
	"gcc":        {MemFrac: 0.38, WriteFrac: 0.33, HotLines: 8 * kLine, WarmLines: 96 * kLine, ColdLines: 320 * kLine, PWarm: 0.25, PCold: 0.08, PStream: 0.05, StreamWriteFrac: 0.6},
	"gobmk":      {MemFrac: 0.30, WriteFrac: 0.28, HotLines: 6 * kLine, WarmLines: 32 * kLine, ColdLines: 64 * kLine, PWarm: 0.18, PCold: 0.03},
	"h264ref":    {MemFrac: 0.40, WriteFrac: 0.30, HotLines: 8 * kLine, WarmLines: 24 * kLine, ColdLines: 48 * kLine, PWarm: 0.2, PCold: 0.02, PStream: 0.06, StreamWriteFrac: 0.4},
	"hmmer":      {MemFrac: 0.45, WriteFrac: 0.40, HotLines: 4 * kLine, WarmLines: 16 * kLine, ColdLines: 24 * kLine, PWarm: 0.15, PCold: 0.01},
	"mcf":        {MemFrac: 0.40, WriteFrac: 0.25, HotLines: 2 * kLine, WarmLines: 64 * kLine, ColdLines: 1600 * kLine, PWarm: 0.2, PCold: 0.45},
	"omnetpp":    {MemFrac: 0.36, WriteFrac: 0.32, HotLines: 4 * kLine, WarmLines: 64 * kLine, ColdLines: 1024 * kLine, PWarm: 0.22, PCold: 0.30},
	"perlbench":  {MemFrac: 0.40, WriteFrac: 0.35, HotLines: 8 * kLine, WarmLines: 48 * kLine, ColdLines: 96 * kLine, PWarm: 0.2, PCold: 0.04},
	"sjeng":      {MemFrac: 0.28, WriteFrac: 0.25, HotLines: 6 * kLine, WarmLines: 32 * kLine, ColdLines: 160 * kLine, PWarm: 0.15, PCold: 0.05},
	"xalancbmk":  {MemFrac: 0.36, WriteFrac: 0.28, HotLines: 4 * kLine, WarmLines: 64 * kLine, ColdLines: 512 * kLine, PWarm: 0.25, PCold: 0.20},
	"bwaves":     {MemFrac: 0.45, WriteFrac: 0.20, HotLines: 2 * kLine, WarmLines: 48 * kLine, ColdLines: 1024 * kLine, PWarm: 0.12, PCold: 0.05, PStream: 0.40, StreamWriteFrac: 0.25, Streams: 4},
	"cactusADM":  {MemFrac: 0.40, WriteFrac: 0.30, HotLines: 4 * kLine, WarmLines: 48 * kLine, ColdLines: 512 * kLine, PWarm: 0.15, PCold: 0.04, PStream: 0.20, StreamWriteFrac: 0.35, Streams: 2},
	"calculix":   {MemFrac: 0.35, WriteFrac: 0.25, HotLines: 6 * kLine, WarmLines: 24 * kLine, ColdLines: 48 * kLine, PWarm: 0.12, PCold: 0.02},
	"dealII":     {MemFrac: 0.38, WriteFrac: 0.28, HotLines: 6 * kLine, WarmLines: 32 * kLine, ColdLines: 96 * kLine, PWarm: 0.15, PCold: 0.04},
	"gamess":     {MemFrac: 0.30, WriteFrac: 0.22, HotLines: 8 * kLine, WarmLines: 16 * kLine, ColdLines: 16 * kLine, PWarm: 0.08, PCold: 0.005},
	"GemsFDTD":   {MemFrac: 0.45, WriteFrac: 0.25, HotLines: 2 * kLine, WarmLines: 64 * kLine, ColdLines: 1024 * kLine, PWarm: 0.12, PCold: 0.06, PStream: 0.35, StreamWriteFrac: 0.30, Streams: 3},
	"gromacs":    {MemFrac: 0.32, WriteFrac: 0.25, HotLines: 6 * kLine, WarmLines: 16 * kLine, ColdLines: 24 * kLine, PWarm: 0.10, PCold: 0.01},
	"lbm":        {MemFrac: 0.50, WriteFrac: 0.30, HotLines: 1 * kLine, WarmLines: 16 * kLine, ColdLines: 1600 * kLine, PWarm: 0.05, PCold: 0.02, PStream: 0.60, StreamWriteFrac: 0.55, Streams: 2},
	"leslie3d":   {MemFrac: 0.45, WriteFrac: 0.28, HotLines: 2 * kLine, WarmLines: 48 * kLine, ColdLines: 768 * kLine, PWarm: 0.12, PCold: 0.05, PStream: 0.35, StreamWriteFrac: 0.30, Streams: 3},
	"milc":       {MemFrac: 0.42, WriteFrac: 0.30, HotLines: 2 * kLine, WarmLines: 32 * kLine, ColdLines: 1024 * kLine, PWarm: 0.10, PCold: 0.10, PStream: 0.40, StreamWriteFrac: 0.40, Streams: 2},
	"namd":       {MemFrac: 0.34, WriteFrac: 0.22, HotLines: 6 * kLine, WarmLines: 16 * kLine, ColdLines: 24 * kLine, PWarm: 0.10, PCold: 0.01},
	"povray":     {MemFrac: 0.32, WriteFrac: 0.25, HotLines: 8 * kLine, WarmLines: 12 * kLine, ColdLines: 12 * kLine, PWarm: 0.06, PCold: 0.004},
	"soplex":     {MemFrac: 0.38, WriteFrac: 0.22, HotLines: 4 * kLine, WarmLines: 64 * kLine, ColdLines: 768 * kLine, PWarm: 0.20, PCold: 0.22},
	"sphinx3":    {MemFrac: 0.42, WriteFrac: 0.12, HotLines: 4 * kLine, WarmLines: 64 * kLine, ColdLines: 512 * kLine, PWarm: 0.20, PCold: 0.15, PStream: 0.10, StreamWriteFrac: 0.10},
	"tonto":      {MemFrac: 0.33, WriteFrac: 0.28, HotLines: 6 * kLine, WarmLines: 20 * kLine, ColdLines: 32 * kLine, PWarm: 0.10, PCold: 0.015},
	"wrf":        {MemFrac: 0.40, WriteFrac: 0.25, HotLines: 4 * kLine, WarmLines: 48 * kLine, ColdLines: 384 * kLine, PWarm: 0.15, PCold: 0.05, PStream: 0.20, StreamWriteFrac: 0.30, Streams: 2},
	"zeusmp":     {MemFrac: 0.42, WriteFrac: 0.28, HotLines: 2 * kLine, WarmLines: 48 * kLine, ColdLines: 768 * kLine, PWarm: 0.12, PCold: 0.06, PStream: 0.30, StreamWriteFrac: 0.35, Streams: 3},
	"libquantum": {MemFrac: 0.35, WriteFrac: 0.20, HotLines: 1 * kLine, WarmLines: 8 * kLine, ColdLines: 512 * kLine, PWarm: 0.04, PCold: 0.01, PStream: 0.70, StreamWriteFrac: 0.30},
}

// Benchmarks returns all SPEC2006 benchmark names in the paper's Fig. 9
// presentation order (integer suite first, then floating point).
func Benchmarks() []string {
	order := []string{
		"astar", "bzip2", "gcc", "gobmk", "h264ref", "hmmer", "mcf",
		"omnetpp", "perlbench", "sjeng", "xalancbmk",
		"bwaves", "cactusADM", "calculix", "dealII", "gamess", "GemsFDTD",
		"gromacs", "lbm", "leslie3d", "milc", "namd", "povray", "soplex",
		"sphinx3", "tonto", "wrf", "zeusmp", "libquantum",
	}
	return append([]string(nil), order...)
}

// Fig12Benchmarks is the subset of benchmarks the paper's Fig. 12 IOPS
// breakdown plots.
func Fig12Benchmarks() []string {
	return []string{
		"astar", "bzip2", "gcc", "gobmk", "h264ref", "mcf", "perlbench",
		"lbm", "leslie3d", "milc", "namd", "sphinx3", "libquantum",
	}
}

// ProfileFor returns the profile for a benchmark name.
func ProfileFor(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
	}
	p.Name = name
	return p, nil
}

// MustProfile is ProfileFor for known-good literals; it panics on typos.
func MustProfile(name string) Profile {
	p, err := ProfileFor(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns every known benchmark name, sorted (for validation).
func Names() []string {
	out := make([]string, 0, len(profiles))
	for k := range profiles {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Mixes returns the paper's Table V eight-benchmark multiprogram
// workloads W0..W7.
func Mixes() [][]string {
	return [][]string{
		{"h264ref", "soplex", "hmmer", "bzip2", "gcc", "sjeng", "perlbench", "hmmer"},
		{"gcc", "gobmk", "gcc", "soplex", "bzip2", "gamess", "tonto", "gcc"},
		{"bzip2", "lbm", "gobmk", "perlbench", "cactusADM", "bzip2", "h264ref", "mcf"},
		{"gcc", "bzip2", "tonto", "cactusADM", "astar", "bzip2", "namd", "zeusmp"},
		{"perlbench", "wrf", "gobmk", "gcc", "namd", "gobmk", "milc", "bzip2"},
		{"omnetpp", "bzip2", "bzip2", "gobmk", "sjeng", "perlbench", "bzip2", "gobmk"},
		{"gcc", "tonto", "gamess", "cactusADM", "dealII", "gobmk", "omnetpp", "bzip2"},
		{"gcc", "wrf", "gcc", "bzip2", "gamess", "gromacs", "gcc", "perlbench"},
	}
}

// Shared wraps a per-core private generator and redirects a fraction of
// its accesses into a region shared by all cores — a true multi-threaded
// workload rather than the paper's multiprogrammed mixes (paper §IV-C:
// "shared system structures like the page table and memory allocation
// tables must be protected at all time"). All Shared instances built by
// one SharedGroup use the same region.
type Shared struct {
	inner      Generator
	group      *SharedGroup
	sharedFrac float64
	r          rng
}

// SharedGroup defines one shared region.
type SharedGroup struct {
	Base  mem.LineAddr
	Lines int
}

// NewSharedGroup creates a shared region of the given size.
func NewSharedGroup(base mem.LineAddr, lines int) *SharedGroup {
	if lines <= 0 {
		lines = 1
	}
	return &SharedGroup{Base: base, Lines: lines}
}

// Wrap derives a core's generator: frac of accesses go to the shared
// region (uniform), the rest come from inner.
func (sg *SharedGroup) Wrap(inner Generator, frac float64, seed uint64) *Shared {
	return &Shared{inner: inner, group: sg, sharedFrac: frac, r: rng{state: seed ^ 0xabcd1234}}
}

// Name returns the wrapped generator's name with a "+shared" suffix.
func (s *Shared) Name() string { return s.inner.Name() + "+shared" }

// Next produces the next access.
func (s *Shared) Next() Access {
	a := s.inner.Next()
	if s.r.float() < s.sharedFrac {
		a.Line = s.group.Base + mem.LineAddr(s.r.intn(s.group.Lines))
	}
	return a
}

// --- simple generators for tests and examples ------------------------------

// Uniform generates uniform random accesses over n lines starting at base
// with the given write fraction; gap is fixed.
type Uniform struct {
	name      string
	base      mem.LineAddr
	n         int
	writeFrac float64
	gap       uint32
	r         rng
}

// NewUniform builds a uniform random generator.
func NewUniform(name string, base mem.LineAddr, lines int, writeFrac float64, gap uint32, seed uint64) *Uniform {
	return &Uniform{name: name, base: base, n: lines, writeFrac: writeFrac, gap: gap, r: rng{state: seed}}
}

func (u *Uniform) Name() string { return u.name }

func (u *Uniform) Next() Access {
	return Access{
		Gap:   u.gap,
		Write: u.r.float() < u.writeFrac,
		Line:  u.base + mem.LineAddr(u.r.intn(u.n)),
	}
}

// Sequential walks lines in order, writing every access (a pure streaming
// writer, the best case for coalescing).
type Sequential struct {
	name string
	base mem.LineAddr
	n    int
	pos  uint64
	gap  uint32
}

// NewSequential builds a sequential writer over n lines.
func NewSequential(name string, base mem.LineAddr, lines int, gap uint32) *Sequential {
	return &Sequential{name: name, base: base, n: lines, gap: gap}
}

func (s *Sequential) Name() string { return s.name }

func (s *Sequential) Next() Access {
	l := s.base + mem.LineAddr(s.pos%uint64(s.n))
	s.pos++
	return Access{Gap: s.gap, Write: true, Line: l}
}
