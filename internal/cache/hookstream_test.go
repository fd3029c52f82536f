package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"picl/internal/mem"
)

// hookStreamDigest is the SHA-256 of every event the hierarchy shows a
// scheme over hookStreamSeeds × hookStreamCores × hookStreamOps random
// operations (see TestHookStreamDigest). It was recorded with the
// per-level cache model, in which the L1, L2 and LLC each kept a copy of
// a line's data, EID and dirty bit and snoops reconciled them; the one
// state record per LLC way must reproduce it exactly.
const hookStreamDigest = "bbfe68a9c56960dfdd0cab2b72c1ae284f9af6028698bc52662f447828ced13e"

const (
	hookStreamSeeds = 200  // seeds 1..200, chosen before recording
	hookStreamOps   = 3000 // operations per run
	hookStreamLines = 40   // lines shared by every core
	hookStreamFlush = 5    // every 5th EvictDirty forces a full FlushDirty
)

// hookStreamCores are the core counts each seed runs on.
var hookStreamCores = []int{1, 2, 4}

// hookRecorder is the backend and the store observer of one run. It
// hashes every hook call's arguments and returns into sum, draws fill
// words and completion and stall times from rng, and commits inside
// every hookStreamFlush-th EvictDirty the way Journaling's overflow
// commit does: a full FlushDirty from within the eviction.
type hookRecorder struct {
	h      *Hierarchy
	sum    hash.Hash
	rng    *rand.Rand
	system mem.EpochID
	evicts int
	buf    []byte
}

// put hashes a tag byte and the values that follow it.
func (r *hookRecorder) put(tag byte, vals ...uint64) {
	r.buf = append(r.buf[:0], tag)
	for _, v := range vals {
		r.buf = binary.LittleEndian.AppendUint64(r.buf, v)
	}
	r.sum.Write(r.buf)
}

// putFlush hashes one FlushDirty output, its length first.
func (r *hookRecorder) putFlush(tag byte, out []DirtyLine) {
	r.put(tag, uint64(len(out)))
	for _, d := range out {
		r.put('d', uint64(d.Addr), uint64(d.Data), uint64(d.EID))
	}
}

// stallFrom returns now, or on one call in three a later time.
func (r *hookRecorder) stallFrom(now uint64) uint64 {
	if r.rng.Intn(3) == 0 {
		return now + uint64(1+r.rng.Intn(200))
	}
	return now
}

func (r *hookRecorder) Fill(now uint64, l mem.LineAddr) (mem.Word, uint64) {
	w, done := mem.Word(r.rng.Uint64()), now+uint64(50+r.rng.Intn(300))
	r.put('F', now, uint64(l), uint64(w), done)
	return w, done
}

func (r *hookRecorder) EvictDirty(now uint64, l mem.LineAddr, data mem.Word, eid mem.EpochID) uint64 {
	r.evicts++
	if r.evicts%hookStreamFlush == 0 {
		r.putFlush('C', r.h.FlushDirty(nil))
	}
	stall := r.stallFrom(now)
	r.put('E', now, uint64(l), uint64(data), uint64(eid), stall)
	return stall
}

func (r *hookRecorder) OnStore(now uint64, l mem.LineAddr, old mem.Word, oldEID mem.EpochID, wasModified bool) (mem.EpochID, uint64) {
	stall := r.stallFrom(now)
	mod := uint64(0)
	if wasModified {
		mod = 1
	}
	r.put('O', now, uint64(l), uint64(old), uint64(oldEID), mod, uint64(r.system), stall)
	return r.system, stall
}

// hookStreamRun drives one seeded run of random Load, Store, FlushDirty
// (all lines, or an ACS-style epoch bound) and epoch advances on cores
// cores of a tiny hierarchy (L1 2 sets × 2 ways, L2 2 × 4, LLC 4 × 4)
// over hookStreamLines lines every core touches, so that migrations,
// back-invalidations and dirty evictions happen throughout. It hashes
// into sum every hook call, every Load's value and done time, every
// Store's stall, every FlushDirty output, DirtyCount after each
// operation, and each cache's Hits, Misses and Evictions at the end.
func hookStreamRun(t *testing.T, sum hash.Hash, seed int64, cores int) {
	rng := rand.New(rand.NewSource(seed))
	rec := &hookRecorder{sum: sum, rng: rand.New(rand.NewSource(^seed)), system: 1}
	cfg := HierarchyConfig{
		Cores: cores,
		L1:    Config{Name: "l1", Size: 2 * 2 * mem.LineSize, Ways: 2, Latency: 1},
		L2:    Config{Name: "l2", Size: 2 * 4 * mem.LineSize, Ways: 4, Latency: 4},
		LLC:   Config{Name: "llc", Size: 4 * 4 * mem.LineSize, Ways: 4, Latency: 30},
	}
	h := NewHierarchy(cfg, rec, rec)
	rec.h = h
	rec.put('R', uint64(seed), uint64(cores))
	var now uint64
	for op := 0; op < hookStreamOps; op++ {
		now += uint64(rng.Intn(40))
		core := rng.Intn(cores)
		l := mem.LineAddr(rng.Intn(hookStreamLines))
		switch k := rng.Intn(100); {
		case k < 45:
			w, done := h.Load(now, core, l)
			rec.put('L', uint64(core), uint64(l), uint64(w), done)
		case k < 90:
			stall := h.Store(now, core, l, mem.Word(rng.Uint64()))
			rec.put('S', uint64(core), uint64(l), stall)
		case k < 93:
			rec.putFlush('A', h.FlushDirty(nil))
		case k < 96:
			bound := rec.system.Minus(uint64(rng.Intn(3)))
			rec.putFlush('P', h.FlushDirty(func(_ mem.LineAddr, e mem.EpochID) bool { return e.AtMost(bound) }))
		default:
			rec.system++
		}
		rec.put('D', uint64(h.DirtyCount()))
		if op%500 == 0 {
			if err := checkInvariants(h); err != nil {
				t.Fatalf("seed %d, %d cores, op %d: %v", seed, cores, op, err)
			}
		}
	}
	for c := 0; c < cores; c++ {
		for _, lv := range []*Cache{h.L1(c), h.L2(c)} {
			s := lv.Stats()
			rec.put('T', s.Hits, s.Misses, s.Evictions)
		}
	}
	s := h.LLC().Stats()
	rec.put('T', s.Hits, s.Misses, s.Evictions)
}

// TestHookStreamDigest: the hierarchy shows every scheme the same
// events, in the same order, with the same arguments, that the
// per-level model showed it (hookStreamDigest): fills, dirty evictions
// (with flushes forced inside them), pre-store observations, load
// values and times, store stalls, flush outputs, dirty counts and the
// per-level hit, miss and eviction counts.
func TestHookStreamDigest(t *testing.T) {
	sum := sha256.New()
	for seed := int64(1); seed <= hookStreamSeeds; seed++ {
		for _, cores := range hookStreamCores {
			hookStreamRun(t, sum, seed, cores)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != hookStreamDigest {
		t.Fatalf("hook-stream digest %s, want %s", got, hookStreamDigest)
	}
}
