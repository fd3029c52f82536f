package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"picl/internal/core"
	"picl/internal/obs"
)

// promDigest pins everything PromText exports: cycles, instructions,
// commits, stalls, per-op NVM traffic, and every scheme counter.
func promDigest(r *Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(r.PromText())))
}

// eventsDigest hashes an event stream in recording order.
func eventsDigest(evs []obs.Event) string {
	h := sha256.New()
	for _, ev := range evs {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func runConfig(t *testing.T, cfg Config) *Result {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// maskedRecorder is an external Tracer: it keeps the events its mask
// accepts and counts every event by kind.
type maskedRecorder struct {
	mask   obs.Mask
	events []obs.Event
	seen   map[obs.Kind]int
}

func (r *maskedRecorder) Event(ev obs.Event) {
	r.seen[ev.Kind]++
	if r.mask.Accepts(ev.Kind) {
		r.events = append(r.events, ev)
	}
}

// TestEventStreamDeterministic: a multicore run long enough to reach
// the periodic ACS tick records the same masked event stream on every
// run. An external Tracer attached in place of the ring sees exactly
// the ring's stream (Result.Events then stays empty) plus the engine's
// own emits — one quantum per derived schedule, one interrupt per epoch
// boundary — and neither kind of tracing perturbs the simulation.
func TestEventStreamDeterministic(t *testing.T) {
	mask := obs.MaskOf(obs.KindEpochInt, obs.KindEpochCommit, obs.KindACSStart, obs.KindACSDone)
	cfg := func() Config {
		c := tinyConfig("picl", 4, false)
		c.PiCL = core.DefaultConfig()
		c.InstrPerCore = 550_000 // 2.2 M in all: past the 2 M-instruction tick
		c.TraceCap = 1 << 12
		c.TraceMask = mask
		return c
	}
	a, b := runConfig(t, cfg()), runConfig(t, cfg())
	if len(a.Events) == 0 || a.EventsDropped != 0 {
		t.Fatalf("ring kept %d events and dropped %d; want some and none", len(a.Events), a.EventsDropped)
	}
	if eventsDigest(a.Events) != eventsDigest(b.Events) || promDigest(a) != promDigest(b) {
		t.Fatal("traced runs differ")
	}

	rec := &maskedRecorder{mask: mask, seen: map[obs.Kind]int{}}
	c := cfg()
	c.TraceCap = 0
	c.Tracer = rec
	r := runConfig(t, c)
	if r.Events != nil {
		t.Fatalf("external tracer run returned %d ring events", len(r.Events))
	}
	if eventsDigest(rec.events) != eventsDigest(a.Events) {
		t.Fatalf("external tracer kept %d events, ring recorded %d", len(rec.events), len(a.Events))
	}
	if rec.seen[obs.KindQuantum] == 0 || rec.seen[obs.KindEpochInt] == 0 {
		t.Fatalf("missing engine events: %v", rec.seen)
	}

	c = cfg()
	c.TraceCap = 0
	if plain := runConfig(t, c); promDigest(plain) != promDigest(r) || promDigest(plain) != promDigest(a) {
		t.Fatal("tracing changed the simulation's metrics")
	}
}
