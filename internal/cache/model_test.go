package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"picl/internal/mem"
)

// TestCacheAgainstReferenceModel drives a Cache with random operations
// and checks it against a trivial map+LRU reference implementation.
func TestCacheAgainstReferenceModel(t *testing.T) {
	type refLine struct {
		data  mem.Word
		dirty bool
		stamp uint64
	}
	prop := func(seed int64, ways8 uint8, ops16 uint16) bool {
		ways := int(ways8%4) + 1
		sets := 4
		c := New(Config{Name: "m", Size: sets * ways * mem.LineSize, Ways: ways, Latency: 1})
		ref := make(map[mem.LineAddr]refLine)
		var clock uint64
		r := rand.New(rand.NewSource(seed))
		nOps := int(ops16%800) + 50
		for i := 0; i < nOps; i++ {
			l := mem.LineAddr(r.Intn(20))
			clock++
			switch r.Intn(3) {
			case 0: // insert
				dirty := r.Intn(2) == 0
				victim, evicted := place(c, l, mem.Word(i), 0, dirty)
				if rl, ok := ref[l]; ok {
					// In-place update in the model; dirty is sticky.
					rl.data = mem.Word(i)
					rl.stamp = clock
					rl.dirty = rl.dirty || dirty
					if victim.Valid || evicted {
						return false // must not evict on update
					}
					ref[l] = rl
					continue
				}
				// Model eviction: LRU among same-set entries if set full.
				set := uint64(l) & uint64(sets-1)
				var inSet []mem.LineAddr
				for k := range ref {
					if uint64(k)&uint64(sets-1) == set {
						inSet = append(inSet, k)
					}
				}
				if len(inSet) >= ways {
					lru := inSet[0]
					for _, k := range inSet[1:] {
						if ref[k].stamp < ref[lru].stamp {
							lru = k
						}
					}
					if !evicted || victim.Addr != lru {
						return false
					}
					if victim.Data != ref[lru].data || victim.Dirty != ref[lru].dirty {
						return false
					}
					delete(ref, lru)
				} else if evicted {
					return false
				}
				ref[l] = refLine{data: mem.Word(i), dirty: dirty, stamp: clock}
				if ln := c.Lookup(l, false); !ln.Ok() || ln.Data() != mem.Word(i) {
					return false
				}
			case 1: // lookup (refreshes LRU)
				ln := c.Lookup(l, true)
				rl, ok := ref[l]
				if ln.Ok() != ok {
					return false
				}
				if ok {
					if ln.Data() != rl.data {
						return false
					}
					rl.stamp = clock
					ref[l] = rl
				}
			case 2: // invalidate
				old, ok := c.Invalidate(l)
				rl, refOk := ref[l]
				if ok != refOk {
					return false
				}
				if ok && old.Data != rl.data {
					return false
				}
				delete(ref, l)
			}
		}
		// Final sweep: contents agree exactly.
		count := 0
		c.Scan(func(ln LineRef) bool {
			count++
			rl, ok := ref[ln.Addr()]
			if !ok || rl.data != ln.Data() {
				t.Logf("line %v: cache=%v ref=%v ok=%v", ln.Addr(), ln.Data(), rl.data, ok)
				count = -1 << 30
				return false
			}
			return true
		})
		return count == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSharedLineMigration exercises the coherence path where two cores
// alternate writes to the same lines (not used by the paper's
// multiprogrammed evaluation, but the hierarchy stays correct).
func TestSharedLineMigration(t *testing.T) {
	h, _, o := tinyHierarchy(2)
	r := rand.New(rand.NewSource(8))
	ref := map[mem.LineAddr]mem.Word{}
	for i := 0; i < 30000; i++ {
		core := r.Intn(2)
		l := mem.LineAddr(r.Intn(60)) // heavy sharing
		if r.Intn(2) == 0 {
			w := mem.Word(i + 1)
			h.Store(uint64(i), core, l, w)
			ref[l] = w
		} else if got, _ := h.Load(uint64(i), core, l); got != ref[l] {
			t.Fatalf("iteration %d core %d: load(%v) = %v, want %v", i, core, l, got, ref[l])
		}
		if i%5000 == 0 {
			if err := checkInvariants(h); err != nil {
				t.Fatal(err)
			}
			o.system++
			// Periodic flush keeps the clean/stale interactions honest.
			if i%10000 == 0 {
				h.FlushDirty(nil)
			}
		}
	}
}
