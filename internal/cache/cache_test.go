package cache

import (
	"strings"
	"testing"

	"picl/internal/mem"
)

func smallCache() *Cache {
	// 4 sets x 2 ways of 64 B lines = 512 B.
	return New(Config{Name: "t", Size: 512, Ways: 2, Latency: 1})
}

// place adapts Place to the retired Insert wrapper's by-value victim
// signature, which test assertions want (the scratch pointer is only
// valid until the next Place).
func place(c *Cache, l mem.LineAddr, data mem.Word, eid mem.EpochID, dirty bool) (Line, bool) {
	_, v := c.Place(l, data, eid, dirty)
	if v == nil {
		return Line{}, false
	}
	return *v, true
}

func TestGeometry(t *testing.T) {
	c := smallCache()
	if c.Sets() != 4 || c.Ways() != 2 {
		t.Fatalf("geometry = %dx%d, want 4x2", c.Sets(), c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count should panic")
		}
	}()
	New(Config{Name: "bad", Size: 3 * 64, Ways: 1})
}

func TestTooManyWaysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ways beyond the packed state-word fields should panic")
		}
	}()
	New(Config{Name: "wide", Size: 32 * 64, Ways: 32})
}

func TestLookupMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(1, true).Ok() {
		t.Fatal("empty cache should miss")
	}
	c.Place(1, 42, 7, true)
	ln := c.Lookup(1, true)
	if !ln.Ok() || ln.Data() != 42 || ln.EID() != 7 || !ln.Dirty() {
		t.Fatalf("line = %+v", ln.Snapshot())
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache()
	// Lines 0, 4, 8 all map to set 0 (4 sets). Two ways: inserting the
	// third evicts the least recently used.
	c.Place(0, 100, 0, false)
	c.Place(4, 104, 0, false)
	c.Lookup(0, true) // make line 0 most recently used
	victim, evicted := place(c, 8, 108, 0, false)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if victim.Addr != 4 {
		t.Fatalf("evicted %v, want line 4 (LRU)", victim.Addr)
	}
	if !c.Lookup(0, false).Ok() || !c.Lookup(8, false).Ok() {
		t.Fatal("lines 0 and 8 should remain")
	}
}

func TestPlaceExistingUpdatesInPlace(t *testing.T) {
	c := smallCache()
	c.Place(1, 10, 1, false)
	victim, evicted := place(c, 1, 20, 2, true)
	if evicted {
		t.Fatalf("re-place must not evict, got victim %+v", victim)
	}
	ln := c.Lookup(1, false)
	if ln.Data() != 20 || ln.EID() != 2 || !ln.Dirty() {
		t.Fatalf("line = %+v", ln.Snapshot())
	}
	// Dirty is sticky: a clean re-place must not launder a dirty line.
	c.Place(1, 30, 3, false)
	if !c.Lookup(1, false).Dirty() {
		t.Fatal("dirty bit was cleared by clean re-place")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Place(5, 55, 3, true)
	old, ok := c.Invalidate(5)
	if !ok || old.Data != 55 || old.EID != 3 {
		t.Fatalf("invalidate = %+v %v", old, ok)
	}
	if c.Lookup(5, false).Ok() {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("double invalidate reported success")
	}
}

func TestScanAndCountDirty(t *testing.T) {
	c := smallCache()
	c.Place(0, 1, 0, true)
	c.Place(1, 2, 0, false)
	c.Place(2, 3, 1, true)
	if got := c.CountDirty(); got != 2 {
		t.Fatalf("CountDirty = %d, want 2", got)
	}
	n := 0
	c.Scan(func(LineRef) bool {
		n++
		return n < 2 // early stop
	})
	if n != 2 {
		t.Fatalf("scan early-stop visited %d, want 2", n)
	}
}

func TestLineRefMutators(t *testing.T) {
	c := smallCache()
	c.Place(3, 30, 1, false)
	ln := c.Lookup(3, false)
	ln.SetData(31)
	ln.SetEID(2)
	ln.SetDirty(true)
	ln.SetOwner(1)
	got := c.Lookup(3, false).Snapshot()
	want := Line{Addr: 3, EID: 2, Data: 31, Valid: true, Dirty: true, Owner: 1}
	if got != want {
		t.Fatalf("after mutators: %+v, want %+v", got, want)
	}
	ln.SetDirty(false)
	if c.CountDirty() != 0 {
		t.Fatal("clearing flags left dirty state behind")
	}
}

func TestVictimSlotMatchesPlace(t *testing.T) {
	// The hierarchy's scan-free miss path (victimSlot + installAt) must be
	// bit-identical to Place on absent lines: same slot choice (first free
	// way, else first-minimal LRU) and same victim.
	a, b := smallCache(), smallCache()
	for i := 0; i < 40; i++ {
		l := mem.LineAddr(i * 3 % 16)
		if a.Lookup(l, false).Ok() {
			// Present: only Place handles the update path.
			a.Place(l, mem.Word(i), 0, i%2 == 0)
			b.Place(l, mem.Word(i), 0, i%2 == 0)
			continue
		}
		_, va := a.Place(l, mem.Word(i), 0, i%2 == 0)
		ib, evict := b.victimSlot(l)
		var vb Line
		if evict {
			vb = b.snapshotAt(ib, int(uint64(l)&b.setMask))
		}
		b.installAt(ib, l, mem.Word(i), 0, i%2 == 0)
		if (va != nil) != evict {
			t.Fatalf("op %d: eviction mismatch", i)
		}
		if va != nil && *va != vb {
			t.Fatalf("op %d: victim %+v vs %+v", i, *va, vb)
		}
		if got := a.find(l); got != ib {
			t.Fatalf("op %d: slot %d vs %d", i, got, ib)
		}
	}
}

// TestDirtyEvictionStats: evicting a dirty line counts one eviction and
// hands back the victim with its dirty bit and payload.
func TestDirtyEvictionStats(t *testing.T) {
	c := smallCache()
	c.Place(0, 1, 0, true)
	c.Place(4, 2, 0, true)
	v, evicted := place(c, 8, 3, 0, false) // evicts a dirty line
	if s := c.Stats(); s.Evictions != 1 || !evicted || !v.Dirty || v.Addr != 0 || v.Data != 1 {
		t.Fatalf("stats = %+v, victim = %+v (evicted %v)", s, v, evicted)
	}
}

func TestReset(t *testing.T) {
	c := smallCache()
	c.Place(0, 1, 0, true)
	c.Reset()
	if c.Lookup(0, false).Ok() || c.Stats().Hits != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestSetIsolation(t *testing.T) {
	c := smallCache()
	// Fill set 0 beyond capacity; set 1 lines must be untouched.
	c.Place(1, 11, 0, false) // set 1
	for i := mem.LineAddr(0); i < 16; i += 4 {
		c.Place(i, mem.Word(i), 0, false) // all set 0
	}
	if !c.Lookup(1, false).Ok() {
		t.Fatal("set-0 pressure evicted a set-1 line")
	}
}

// TestPlaneOpsZeroAlloc pins the structure-of-arrays payoff: the hot
// read paths walk pre-allocated planes and state bitsets, so steady-state
// lookups, whole-cache scans, and dirty counts must not allocate. A
// regression here (e.g. a closure capture escaping, or a ref method
// materializing a Line) would silently tax every simulated access.
func TestPlaneOpsZeroAlloc(t *testing.T) {
	c := New(Config{Name: "z", Size: 64 << 10, Ways: 8, Latency: 1})
	for i := mem.LineAddr(0); i < 4096; i++ {
		c.Place(i, mem.Word(i), mem.EpochID(i%5), i%3 == 0)
	}
	var sink uint64
	cases := []struct {
		name string
		fn   func()
	}{
		{"Lookup", func() {
			ln := c.Lookup(1234, true)
			if ln.Ok() {
				sink += uint64(ln.Data())
			}
		}},
		{"Scan", func() {
			c.Scan(func(ln LineRef) bool {
				if ln.Dirty() {
					sink++
				}
				return true
			})
		}},
		{"CountDirty", func() { sink += uint64(c.CountDirty()) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(100, tc.fn); avg > 0 {
			t.Errorf("%s allocates %.1f times per call; plane walks must be alloc-free", tc.name, avg)
		}
	}
	_ = sink
}

// TestConfigValidate: Validate refuses exactly the geometries New
// panics on, naming the cache and the offending value.
func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string // "" = valid
	}{
		{Config{Name: "ok", Size: 512, Ways: 2}, ""},
		{Config{Name: "one", Size: 64, Ways: 4}, ""}, // fewer lines than ways: one set
		{Config{Name: "zero", Size: 0, Ways: 2}, `cache "zero": invalid geometry`},
		{Config{Name: "noways", Size: 512, Ways: 0}, `cache "noways": invalid geometry`},
		{Config{Name: "wide", Size: 32 * 64, Ways: 32}, `cache "wide": 32 ways exceed`},
		{Config{Name: "odd", Size: 3 * 64, Ways: 1}, `cache "odd": set count 3 not a power of two`},
	} {
		err := c.cfg.Validate()
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Validate() = %v, want %q", c.cfg, err, c.want)
		}
	}
}
