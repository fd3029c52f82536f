package picl

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

func TestErrorSentinels(t *testing.T) {
	m, _ := New(WithSmallCaches())
	m.Write(0, 1)
	m.Crash()
	for name, err := range map[string]error{
		"Write":       m.Write(64, 2),
		"CommitEpoch": m.CommitEpoch(),
		"QueueIO":     m.QueueIO("x"),
	} {
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("%s after crash: err = %v, want ErrCrashed", name, err)
		}
	}
	if _, err := m.Read(0); !errors.Is(err, ErrCrashed) {
		t.Errorf("Read after crash: err = %v, want ErrCrashed", err)
	}
	if _, err := m.Sync(); !errors.Is(err, ErrCrashed) {
		t.Errorf("Sync after crash: err = %v, want ErrCrashed", err)
	}

	if _, err := New(WithCores(0)); !errors.Is(err, ErrNeedCore) {
		t.Errorf("New(WithCores(0)): err = %v, want ErrNeedCore", err)
	}

	f, _ := New(WithScheme("frm"), WithSmallCaches())
	if _, err := f.RecoverTo(1); !errors.Is(err, ErrNoPointInTime) {
		t.Errorf("frm RecoverTo: err = %v, want ErrNoPointInTime", err)
	}
}

func TestWithHierarchy(t *testing.T) {
	// A custom legal geometry works end to end.
	m, err := New(WithHierarchy(
		LevelGeometry{SizeBytes: 2 << 10, Ways: 2, LatencyCycles: 1},
		LevelGeometry{SizeBytes: 16 << 10, Ways: 4, LatencyCycles: 4},
		LevelGeometry{SizeBytes: 64 << 10, Ways: 8, LatencyCycles: 30},
	))
	if err != nil {
		t.Fatal(err)
	}
	m.Write(0, 42)
	m.CommitEpoch()
	if got, _ := m.Read(0); got != 42 {
		t.Fatalf("read = %d", got)
	}

	// Every geometry the cache cannot build is ErrBadHierarchy at any
	// level, never a panic: more than the 16 ways a set's packed state
	// words hold as much as the degenerate shapes.
	bad := []struct {
		name string
		g    LevelGeometry
	}{
		{"zero size", LevelGeometry{SizeBytes: 0, Ways: 4, LatencyCycles: 1}},
		{"zero ways", LevelGeometry{SizeBytes: 1 << 10, Ways: 0, LatencyCycles: 1}},
		{"non-pow2 sets", LevelGeometry{SizeBytes: 3 << 10, Ways: 4, LatencyCycles: 1}},
		{"17 ways", LevelGeometry{SizeBytes: 17 * 64 * 4, Ways: 17, LatencyCycles: 1}},
		{"32 ways", LevelGeometry{SizeBytes: 32 * 64 * 4, Ways: 32, LatencyCycles: 1}},
	}
	ok := LevelGeometry{SizeBytes: 8 << 10, Ways: 8, LatencyCycles: 4}
	for _, tc := range bad {
		for at := range 3 {
			g := [3]LevelGeometry{ok, ok, ok}
			g[at] = tc.g
			if _, err := New(WithHierarchy(g[0], g[1], g[2])); !errors.Is(err, ErrBadHierarchy) {
				t.Errorf("%s at level %d: err = %v, want ErrBadHierarchy", tc.name, at+1, err)
			}
		}
	}
	wide := LevelGeometry{SizeBytes: 16 * 64 * 4, Ways: 16, LatencyCycles: 1}
	if _, err := New(WithHierarchy(wide, wide, wide)); err != nil {
		t.Errorf("16 ways at every level: %v", err)
	}
}

func TestStatsMarshalJSON(t *testing.T) {
	m, _ := New(WithSmallCaches())
	for i := uint64(0); i < 300; i++ {
		m.Write(i*64, i+1)
	}
	m.CommitEpoch()
	m.Sync()

	raw, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Scheme  string `json:"scheme"`
		Cycles  uint64 `json:"cycles"`
		Commits uint64 `json:"commits"`
		NVM     map[string]struct {
			Ops   uint64 `json:"ops"`
			Bytes uint64 `json:"bytes"`
		} `json:"nvm"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	if got.Scheme != "picl" || got.Cycles == 0 || got.Commits == 0 {
		t.Fatalf("header fields wrong: %s", raw)
	}
	for _, cat := range []string{"demand", "writeback", "random", "sequential"} {
		if _, ok := got.NVM[cat]; !ok {
			t.Fatalf("category %q missing: %s", cat, raw)
		}
	}
	// PiCL's signature: log traffic is sequential, and a synced run has
	// flushed real write-backs.
	if got.NVM["sequential"].Ops == 0 || got.NVM["writeback"].Ops == 0 {
		t.Fatalf("per-category breakdown empty: %s", raw)
	}
}

func TestReadWriteClockMonotone(t *testing.T) {
	// Interleaved loads and stores (hits and misses) must never rewind
	// the machine clock — ReadOn and WriteOn share one clamp discipline.
	m, _ := New(WithSmallCaches())
	last := m.Stats().Cycles
	for i := uint64(0); i < 2000; i++ {
		if i%3 == 0 {
			m.Write((i%700)*64, i)
		} else {
			m.Read((i % 900) * 64)
		}
		now := m.Stats().Cycles
		if now < last {
			t.Fatalf("clock rewound: %d -> %d at op %d", last, now, i)
		}
		last = now
	}
}

func TestQueueIOOrderingAcrossSync(t *testing.T) {
	// Tags queued across several epochs release in issue order, each
	// exactly once, as their epochs persist.
	m, _ := New(WithSmallCaches())
	want := []string{}
	for e := 0; e < 3; e++ {
		for i := 0; i < 2; i++ {
			tag := string(rune('a'+e)) + string(rune('0'+i))
			m.Write(uint64(e*100+i)*64, 1)
			if err := m.QueueIO(tag); err != nil {
				t.Fatal(err)
			}
			want = append(want, tag)
		}
		m.CommitEpoch()
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	got := m.ReleaseIO()
	if len(got) != len(want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release order %v, want %v", got, want)
		}
	}
	if again := m.ReleaseIO(); len(again) != 0 {
		t.Fatalf("tags released twice: %v", again)
	}

	// Post-crash: tags of unpersisted epochs are gone for good.
	m2, _ := New(WithSmallCaches())
	m2.Write(0, 1)
	m2.QueueIO("persisted")
	if _, err := m2.Sync(); err != nil {
		t.Fatal(err)
	}
	m2.Write(64, 2)
	m2.QueueIO("doomed")
	if got := m2.ReleaseIO(); len(got) != 1 || got[0] != "persisted" {
		t.Fatalf("pre-crash release = %v, want [persisted]", got)
	}
	m2.Crash()
	if got := m2.ReleaseIO(); len(got) != 0 {
		t.Fatalf("post-crash release = %v, want none", got)
	}
	if !errors.Is(m2.QueueIO("late"), ErrCrashed) {
		t.Fatal("post-crash QueueIO not rejected with ErrCrashed")
	}
}

func TestConcurrentIndependentMachines(t *testing.T) {
	// Two Machines share no mutable state; run them concurrently under
	// -race. Each performs full traffic, commits, crashes and recovers.
	var wg sync.WaitGroup
	results := make([]uint64, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.ACSGap = 1
			m, err := New(WithSmallCaches(), WithConfig(cfg))
			if err != nil {
				t.Error(err)
				return
			}
			base := uint64(w+1) * 10000
			for e := 0; e < 3; e++ {
				for i := uint64(0); i < 80; i++ {
					m.Write(i*64, base+i)
				}
				m.CommitEpoch()
			}
			m.Drain()
			m.Crash()
			img, epoch, err := m.Recover()
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = epoch
			if got := img.Read(0); got != base {
				t.Errorf("machine %d: recovered line 0 = %d, want %d", w, got, base)
			}
		}(w)
	}
	wg.Wait()
	for w, e := range results {
		if e == 0 {
			t.Errorf("machine %d recovered to epoch 0", w)
		}
	}
}
