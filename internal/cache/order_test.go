package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"picl/internal/mem"
)

// encodeOrder packs a recency list (most recent first) into the order
// word it must equal: rank k in nibble k, every higher nibble zero.
func encodeOrder(list []int) uint64 {
	var o uint64
	for k, w := range list {
		o |= uint64(w) << (4 * uint(k))
	}
	return o
}

// checkRecency applies ops to the recency word of a one-set cache with
// the given ways and to a reference recency list, and fails at the
// first disagreement. Operation b touches way b (a hit, or an install
// into a free way) when b < ways; any larger b evicts (a full set's
// install: lru picks the victim, which the install then touches), and
// the victim must be the list's last way. After every operation the
// word must encode the list exactly.
func checkRecency(t *testing.T, ways int, ops []byte) {
	t.Helper()
	c := New(Config{Name: "r", Size: ways * mem.LineSize, Ways: ways, Latency: 1})
	ref := make([]int, ways)
	for k := range ref {
		ref[k] = k
	}
	if c.order[0] != encodeOrder(ref) {
		t.Fatalf("%d ways: fresh order word %#x, want the identity %#x", ways, c.order[0], encodeOrder(ref))
	}
	for n, b := range ops {
		w, got := int(b), -1
		if w < ways {
			c.order[0] = toFront(c.order[0], w)
		} else {
			got = c.lru(c.order[0])
			c.order[0] = toFront(c.order[0], got)
			if w = ref[ways-1]; got != w {
				t.Fatalf("%d ways, op %d (evict) of %v: victim %d, the reference list's LRU way is %d", ways, n, ops, got, w)
			}
		}
		ref = append([]int{w}, slices.DeleteFunc(ref, func(x int) bool { return x == w })...)
		if want := encodeOrder(ref); c.order[0] != want {
			what := fmt.Sprintf("touch way %d", w)
			if got >= 0 {
				what = "evict"
			}
			t.Fatalf("%d ways, op %d (%s) of %v: order word %#x, want %#x (list %v)", ways, n, what, ops, c.order[0], want, ref)
		}
	}
}

// TestRecencyWordMatchesList checks the recency-word operations against
// a reference recency list at every associativity: exhaustively over
// every sequence of up to six touches and evictions at one to four
// ways, and over random sequences at five to sixteen (sixteen fills
// the word: no zero rank above the ways, and toFront's mask reaches the
// top bit).
func TestRecencyWordMatchesList(t *testing.T) {
	for ways := 1; ways <= 4; ways++ {
		letters := ways + 1
		for n := 0; n <= 6; n++ {
			total := 1
			for k := 0; k < n; k++ {
				total *= letters
			}
			ops := make([]byte, n)
			for code := 0; code < total; code++ {
				for k, x := 0, code; k < n; k, x = k+1, x/letters {
					ops[k] = byte(x % letters)
				}
				checkRecency(t, ways, ops)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for ways := 5; ways <= maxWays; ways++ {
		for trial := 0; trial < 200; trial++ {
			ops := make([]byte, 1+rng.Intn(200))
			for k := range ops {
				ops[k] = byte(rng.Intn(ways + 1))
			}
			checkRecency(t, ways, ops)
		}
	}
}

// FuzzRecencyOrder: for any associativity and operation stream, the
// recency word encodes the reference recency list (see checkRecency).
// The first byte picks the ways, each later byte one operation.
func FuzzRecencyOrder(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 9, 9, 3})
	f.Add([]byte{7, 7, 0, 8, 5, 8})
	f.Add([]byte{15, 16, 15, 0, 16, 16, 3, 16})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ways := int(in[0])%maxWays + 1
		ops := make([]byte, len(in)-1)
		for k, b := range in[1:] {
			ops[k] = b % byte(ways+1)
		}
		checkRecency(t, ways, ops)
	})
}

// TestRecencyMatchesStamps replays random hits, installs and
// invalidations on caches of every associativity against a
// first-minimal-stamp model (a global stamp per touch, the victim of a
// full set the way with the smallest stamp): every victim agrees.
func TestRecencyMatchesStamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for ways := 1; ways <= maxWays; ways++ {
		const sets = 4
		c := New(Config{Name: "s", Size: sets * ways * mem.LineSize, Ways: ways, Latency: 1})
		stamps := make([]uint64, sets*ways)
		var clock uint64
		for n := 0; n < 4000; n++ {
			l := mem.LineAddr(rng.Intn(sets * (ways + 2)))
			s := int(uint64(l) % sets)
			switch rng.Intn(4) {
			case 0:
				if i := c.lookup(l, true); i >= 0 {
					clock++
					stamps[i] = clock
				}
			case 1:
				c.Invalidate(l)
			default:
				if c.find(l) >= 0 {
					continue
				}
				want, full := -1, c.state[s]&c.fullMask == c.fullMask
				if full {
					for j := 0; j < ways; j++ {
						if want < 0 || stamps[s*ways+j] < stamps[s*ways+want] {
							want = j
						}
					}
				}
				i, evict := c.victimSlot(l)
				if evict != full || (full && i != s*ways+want) {
					t.Fatalf("%d ways, op %d: victim slot %d (evict %v), the stamp model's %d (full %v)", ways, n, i, evict, s*ways+want, full)
				}
				c.installAt(i, l, 0, 0, false)
				clock++
				stamps[i] = clock
			}
		}
	}
}
