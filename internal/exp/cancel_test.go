package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// cancelOnFirstLine is a Log sink that cancels a context as soon as the
// first completed-simulation line arrives — "mid-sweep" without timers.
type cancelOnFirstLine struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	lines  int
}

func (c *cancelOnFirstLine) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.lines += strings.Count(string(p), "\n")
	c.mu.Unlock()
	c.cancel()
	return len(p), nil
}

func (c *cancelOnFirstLine) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lines
}

// TestRunCtxDeclinedClaim: a pre-cancelled context never claims the
// flight, and the cell stays runnable for the next live caller.
func TestRunCtxDeclinedClaim(t *testing.T) {
	r := NewRunner(testScale())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, "picl", []string{"gcc"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// The abandoned claim must not poison the memo.
	res, err := r.Run("picl", []string{"gcc"})
	if err != nil || res == nil {
		t.Fatalf("Run after abandoned claim: res=%v err=%v", res, err)
	}
}

// TestRunCtxCancelledWaiter: a waiter on someone else's in-flight cell
// returns as soon as its own context dies, while the claimer finishes
// and memoizes normally.
func TestRunCtxCancelledWaiter(t *testing.T) {
	r := NewRunner(testScale())

	claimStarted := make(chan struct{})
	claimDone := make(chan struct{})
	go func() {
		defer close(claimDone)
		close(claimStarted)
		if _, err := r.Run("picl", []string{"lbm"}); err != nil {
			t.Errorf("claimer: %v", err)
		}
	}()
	<-claimStarted

	// The waiter's context is cancelled while (most likely) the claimer
	// is simulating; whichever way the race goes, the waiter must return
	// either the memoized result or context.Canceled — never hang.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := r.RunCtx(ctx, "picl", []string{"lbm"})
		waiterDone <- err
	}()
	cancel()
	if err := <-waiterDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: err = %v, want nil or context.Canceled", err)
	}
	<-claimDone
	// The cell completed and is served from the memo afterwards.
	key, err := r.KeyFor("picl", []string{"lbm"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Cached(key); !ok {
		t.Fatal("claimer's result is not memoized")
	}
}

// TestRunAllCtxCancelMidSweep is the satellite regression test: a
// context cancelled mid-sweep stops the feed loop, so cells that have
// not been claimed never simulate, and RunAllCtx reports the
// cancellation instead of running the batch to the end.
func TestRunAllCtxCancelMidSweep(t *testing.T) {
	r := NewRunner(testScale())
	r.Jobs = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnFirstLine{cancel: cancel}
	r.Log = sink

	var reqs []Req
	for _, b := range []string{"gcc", "lbm", "mcf", "astar", "libquantum", "bzip2"} {
		reqs = append(reqs, Req{Scheme: "picl", Benches: []string{b}})
	}
	_, err := r.RunAllCtx(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllCtx: err = %v, want context.Canceled", err)
	}
	// The single worker can have finished the cell that triggered the
	// cancel plus at most the one cell the feed had already handed it.
	if n := sink.count(); n >= len(reqs) {
		t.Fatalf("%d of %d cells simulated despite mid-sweep cancellation", n, len(reqs))
	}
}

// TestForEachCtxCancel: indices not yet dispatched are skipped after
// cancellation and the context error is surfaced.
func TestForEachCtxCancel(t *testing.T) {
	r := NewRunner(testScale())
	r.Jobs = 2
	ctx, cancel := context.WithCancel(context.Background())

	var mu sync.Mutex
	ran := 0
	err := r.ForEachCtx(ctx, 64, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx: err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 64 {
		t.Fatalf("all %d indices ran despite cancellation", ran)
	}

	// Serial path (workers <= 1) checks the context between indices too.
	r2 := NewRunner(testScale())
	r2.Jobs = 1
	ctx2, cancel2 := context.WithCancel(context.Background())
	ran2 := 0
	err = r2.ForEachCtx(ctx2, 8, func(i int) error {
		ran2++
		cancel2()
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran2 != 1 {
		t.Fatalf("serial ForEachCtx: err=%v ran=%d, want context.Canceled after 1", err, ran2)
	}
}

// TestRunKeyCanonicalStable pins the content-address input format: a
// change here silently invalidates every persisted result store.
func TestRunKeyCanonicalStable(t *testing.T) {
	k := RunKey{
		Scheme: "picl", Bench: "[gcc]", Cores: 1, EpochInstr: 468750,
		Instr: 937500, LLCSize: 1 << 18, NVMName: "", ACSGap: 4,
		BufEntries: 64, TraceCap: 0, TraceMask: 0,
	}
	want := "picl-runkey-v1|scheme=picl|bench=[gcc]|cores=1|epochinstr=468750|instr=937500|llc=262144|nvm=|acsgap=4|buf=64|tracecap=0|tracemask=0|sharded=false"
	if got := k.Canonical(); got != want {
		t.Fatalf("Canonical drifted:\n got %s\nwant %s", got, want)
	}
}
