package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"picl/internal/mem"
)

// fullWalkFlush is FlushDirty as a walk of every LLC set, the scan the
// dirty-set summary replaces: the reference the summary's walk must
// reproduce, output and resulting cache state alike. It reads each
// dirty way's record and cleans it.
func fullWalkFlush(h *Hierarchy, pred func(mem.LineAddr, mem.EpochID) bool) []DirtyLine {
	var out []DirtyLine
	llc := h.llc
	for s := 0; s < llc.sets; s++ {
		base := s * llc.ways
		for j := 0; j < llc.ways; j++ {
			li := base + j
			if llc.state[s]&(1<<uint(dShift+j)) == 0 {
				continue
			}
			addr := mem.LineAddr(llc.tags[li] - 1)
			if pred != nil && !pred(addr, llc.eids[li]) {
				continue
			}
			llc.state[s] &^= 1 << uint(dShift+j)
			out = append(out, DirtyLine{Addr: addr, Data: llc.data[li], EID: llc.eids[li]})
		}
	}
	return out
}

// samePlanes reports where two caches' planes differ, the dirty-set
// summary aside ("" when they agree).
func samePlanes(a, b *Cache) string {
	switch {
	case !slices.Equal(a.tags, b.tags):
		return "tags"
	case !slices.Equal(a.order, b.order):
		return "order"
	case !slices.Equal(a.data, b.data):
		return "data"
	case !slices.Equal(a.eids, b.eids):
		return "eids"
	case !slices.Equal(a.owner, b.owner):
		return "owner"
	case !slices.Equal(a.state, b.state):
		return "state"
	case !slices.Equal(a.idx, b.idx):
		return "idx"
	case a.stats != b.stats:
		return "stats"
	}
	return ""
}

// flushPred decodes a random FlushDirty predicate from p: all lines,
// an ACS-style epoch bound, an address class, or newer epochs only.
func flushPred(p byte) (string, func(mem.LineAddr, mem.EpochID) bool) {
	k := uint64(p >> 2)
	switch p % 4 {
	case 1:
		return fmt.Sprintf("eid <= %d", k%5), func(_ mem.LineAddr, e mem.EpochID) bool { return e.AtMost(mem.EpochID(k % 5)) }
	case 2:
		return fmt.Sprintf("line %% 3 == %d", k%3), func(l mem.LineAddr, _ mem.EpochID) bool { return uint64(l)%3 == k%3 }
	case 3:
		return "eid > 2", func(_ mem.LineAddr, e mem.EpochID) bool { return e.After(2) }
	}
	return "all", nil
}

// checkFlushModel runs the operation stream ops — three bytes per
// operation: a Load, Store, FlushDirty with a random predicate, or an
// epoch advance on one of two cores over a small shared footprint — on
// two tiny hierarchies, flushing one with FlushDirty and the other with
// the full walk. After every operation inclusion, ownership and the
// dirty-set summary must hold and both hierarchies must agree plane for
// plane; every flush must
// return the same lines in the same order.
func checkFlushModel(t *testing.T, ops []byte) {
	t.Helper()
	h, hb, ho := tinyHierarchy(2)
	r, rb, ro := tinyHierarchy(2)
	flushes := 0
	for i := 0; i+3 <= len(ops); i += 3 {
		op, core, line := ops[i]%8, int(ops[i]>>3)&1, mem.LineAddr(ops[i+1]%48)
		now := uint64(i)
		var what string
		switch {
		case op < 3:
			what = fmt.Sprintf("core %d loads %v", core, line)
			h.Load(now, core, line)
			r.Load(now, core, line)
		case op < 6:
			what = fmt.Sprintf("core %d stores %v", core, line)
			h.Store(now, core, line, mem.Word(i+1))
			r.Store(now, core, line, mem.Word(i+1))
		case op == 6:
			name, pred := flushPred(ops[i+2])
			what = "flush " + name
			got, want := h.FlushDirty(pred), fullWalkFlush(r, pred)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d (%s): FlushDirty returned %v, the full walk %v", i/3, what, got, want)
			}
			flushes++
		default:
			what = "epoch advance"
			ho.system++
			ro.system++
		}
		if err := checkInvariants(h); err != nil {
			t.Fatalf("op %d (%s): %v", i/3, what, err)
		}
		for c := 0; c < 2; c++ {
			if d := samePlanes(h.l1[c], r.l1[c]); d != "" {
				t.Fatalf("op %d (%s): core %d L1 %s differs from the full walk's", i/3, what, c, d)
			}
			if d := samePlanes(h.l2[c], r.l2[c]); d != "" {
				t.Fatalf("op %d (%s): core %d L2 %s differs from the full walk's", i/3, what, c, d)
			}
		}
		if d := samePlanes(h.llc, r.llc); d != "" {
			t.Fatalf("op %d (%s): LLC %s differs from the full walk's", i/3, what, d)
		}
	}
	if !slices.Equal(hb.evictions, rb.evictions) || !hb.img.Equal(rb.img) {
		t.Fatalf("after %d flushes the backends received different dirty evictions", flushes)
	}
	h.FlushDirty(nil)
	if h.DirtyCount() != 0 {
		t.Fatalf("a full FlushDirty left %d dirty lines", h.DirtyCount())
	}
	for k, w := range h.llc.dirtySets {
		if w != 0 {
			t.Fatalf("a full FlushDirty left summary word %d = %#x: a clean set keeps its bit", k, w)
		}
	}
}

// TestFlushDirtyMatchesFullWalk: random Load/Store/FlushDirty sequences
// with random predicates, on a tiny two-core hierarchy, flush the same
// lines in the same order and leave the same cache state as a walk of
// every LLC set, and the dirty-set summary flags every dirty set
// throughout.
func TestFlushDirtyMatchesFullWalk(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*(50+rng.Intn(600)))
		rng.Read(ops)
		checkFlushModel(t, ops)
	}
}

// FuzzFlushDirty: for any operation stream, the summary's walk is the
// full walk (see checkFlushModel).
func FuzzFlushDirty(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 6, 0, 0})                     // store, flush all
	f.Add([]byte{3, 1, 0, 11, 1, 0, 6, 0, 1, 4, 17, 0}) // stores on both cores, ACS-style flush, store
	f.Add([]byte{3, 5, 0, 11, 5, 0, 6, 0, 2, 7, 0, 0, 3, 21, 0, 6, 0, 7})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 3*400)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkFlushModel(t, ops)
	})
}

// TestDirtySummaryMarks: every Cache-level transition that sets a dirty
// bit — Place and installAt with dirty data, a dirty re-place,
// SetDirty — flags the set, and Reset clears the summary.
func TestDirtySummaryMarks(t *testing.T) {
	c := New(Config{Name: "s", Size: 128 * 4 * mem.LineSize, Ways: 4, Latency: 1})
	flagged := func(l mem.LineAddr) bool {
		s := int(uint64(l) & c.setMask)
		return c.dirtySets[s>>6]&(1<<uint(s&63)) != 0
	}
	c.Place(70, 1, 0, true)
	c.Place(3, 1, 0, false)
	if !flagged(70) || flagged(3) {
		t.Fatalf("after a dirty and a clean Place: set of 70 flagged %v, set of 3 flagged %v; want true, false", flagged(70), flagged(3))
	}
	c.Place(3, 2, 0, true) // dirty re-place of a resident line
	if !flagged(3) {
		t.Fatal("a dirty re-place did not flag its set")
	}
	i, _ := c.victimSlot(100)
	c.installAt(i, 100, 1, 0, true)
	if !flagged(100) {
		t.Fatal("installAt with dirty data did not flag its set")
	}
	c.Reset()
	if slices.ContainsFunc(c.dirtySets, func(w uint64) bool { return w != 0 }) {
		t.Fatal("Reset kept summary bits")
	}
	ln, _ := c.Place(5, 1, 0, false)
	ln.SetDirty(true)
	if !flagged(5) {
		t.Fatal("SetDirty(true) did not flag its set")
	}
}
