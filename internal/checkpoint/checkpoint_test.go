package checkpoint

import (
	"testing"

	"picl/internal/mem"
	"picl/internal/nvm"
)

func newBase(functional bool) *Base {
	b := NewBase("test", nvm.NewController(nvm.DefaultConfig()), functional)
	return &b
}

func TestBaseAccessors(t *testing.T) {
	b := newBase(true)
	if b.Name() != "test" {
		t.Fatal("name")
	}
	b.System = 5
	b.Persisted = 2
	b.NCommits = 3
	if b.SystemEID() != 5 || b.PersistedEID() != 2 || b.Commits() != 3 {
		t.Fatal("EID accessors broken")
	}
	if b.Counters() == nil || b.DurableImage() == nil {
		t.Fatal("counters/image missing")
	}
	if b.Crashed() {
		t.Fatal("fresh base reports crashed")
	}
}

func TestNoteCommitHook(t *testing.T) {
	b := newBase(false)
	fired := 0
	b.SetCommitHook(func() { fired++ })
	b.NoteCommit()
	b.NoteCommit()
	if fired != 2 || b.Commits() != 2 {
		t.Fatalf("fired=%d commits=%d", fired, b.Commits())
	}
}

func TestPersistDurablePrefix(t *testing.T) {
	b := newBase(true)
	var state []int
	push := func(v int) func() {
		state = append(state, v)
		return func() { state = state[:len(state)-1] }
	}
	d1 := b.Persist(0, nvm.OpWriteback, 64, push(1))
	d2 := b.Persist(0, nvm.OpWriteback, 64, push(2))
	b.Persist(0, nvm.OpWriteback, 64, push(3))
	if d2 <= d1 {
		t.Fatal("FCFS completion order violated")
	}
	// Crash between write 2 and write 3 completing: 3 rolls back.
	b.CrashAt(d2)
	if len(state) != 2 || state[0] != 1 || state[1] != 2 {
		t.Fatalf("state after crash = %v, want [1 2]", state)
	}
	if !b.Crashed() {
		t.Fatal("crash flag not set")
	}
}

func TestCrashRollsBackInReverseOrder(t *testing.T) {
	b := newBase(true)
	var order []int
	b.Persist(0, nvm.OpWriteback, 64, func() { order = append(order, 1) })
	b.Persist(0, nvm.OpWriteback, 64, func() { order = append(order, 2) })
	b.CrashAt(0) // nothing durable
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("rollback order = %v, want [2 1]", order)
	}
}

func TestSettleForgetsDurableUndo(t *testing.T) {
	b := newBase(true)
	x := 0
	done := b.Persist(0, nvm.OpWriteback, 64, func() { x = 1 })
	b.Settle(done)
	b.CrashAt(0) // even crashing "before" cannot roll back settled writes
	if x != 0 {
		t.Fatal("settled write was rolled back")
	}
}

func TestTrackSharesCompletionTime(t *testing.T) {
	b := newBase(true)
	x, y := 0, 0
	done := b.Persist(0, nvm.OpPageCopy, 4096, func() { x = 1 })
	b.Track(done, func() { y = 1 })
	b.CrashAt(done - 1)
	if x != 1 || y != 1 {
		t.Fatalf("x=%d y=%d, want both rolled back", x, y)
	}
}

func TestPersistLineWrite(t *testing.T) {
	b := newBase(true)
	b.Cur.Write(7, 70)
	done := b.PersistLineWrite(0, nvm.OpWriteback, 7, 71)
	if b.Cur.Read(7) != 71 {
		t.Fatal("write not applied immediately")
	}
	b.CrashAt(done - 1)
	if b.Cur.Read(7) != 70 {
		t.Fatal("in-flight line write not rolled back")
	}
}

// TestPersistLineWriteRollbackOrder: line writes record their rollback
// without a closure, interleaved with closure-backed mutations; a crash
// undoes both kinds in one reverse submission order, so a line written
// twice returns to its value before the first write, and a closure sees
// the line as it was when its own mutation ran.
func TestPersistLineWriteRollbackOrder(t *testing.T) {
	b := newBase(true)
	b.Cur.Write(7, 70)
	d0 := b.PersistLineWrite(0, nvm.OpWriteback, 7, 71)
	var seen []mem.Word
	b.Persist(0, nvm.OpWriteback, 64, func() { seen = append(seen, b.Cur.Read(7)) })
	b.PersistLineWrite(0, nvm.OpWriteback, 7, 72)
	b.PersistLineWrite(0, nvm.OpWriteback, 8, 80)
	if allocs := testing.AllocsPerRun(100, func() {
		b.PersistLineWrite(0, nvm.OpWriteback, 9, 90)
		b.inflight = b.inflight[:4]
	}); allocs != 0 {
		t.Fatalf("PersistLineWrite allocates %.1f times per call, want 0", allocs)
	}
	b.Cur.Write(9, 0)
	b.CrashAt(d0)
	if b.Cur.Read(7) != 71 || b.Cur.Read(8) != 0 || len(seen) != 1 || seen[0] != 71 {
		t.Fatalf("after the crash line 7 = %d, line 8 = %d, the closure saw %v; want 71, 0, [71]",
			b.Cur.Read(7), b.Cur.Read(8), seen)
	}
}

func TestPersistLineWriteTimingOnly(t *testing.T) {
	b := newBase(false)
	// Must not panic nor track anything without a functional image.
	b.PersistLineWrite(0, nvm.OpWriteback, 7, 71)
	b.Persist(0, nvm.OpWriteback, 64, nil)
	b.Track(1, nil)
	b.CrashAt(0)
}

func TestMaybeStall(t *testing.T) {
	cfg := nvm.DefaultConfig()
	cfg.QueueLimit = 2
	b := NewBase("test", nvm.NewController(cfg), false)
	if got := b.MaybeStall(0); got != 0 {
		t.Fatalf("empty queue stalled: %d", got)
	}
	b.Ctl.Submit(0, nvm.OpWriteback, 64)
	b.Ctl.Submit(0, nvm.OpWriteback, 64)
	if got := b.MaybeStall(0); got == 0 {
		t.Fatal("full queue did not stall")
	}
}

func TestResolveTagInteropWithBase(t *testing.T) {
	// The 4-bit hardware tag stays decodable while the Base maintains
	// the System-Persisted < TagMask invariant.
	b := newBase(false)
	b.System = 100
	b.Persisted = 90
	for e := b.Persisted; e <= b.System; e++ {
		if got := mem.ResolveTag(e.Tag(), b.System); got != e {
			t.Fatalf("tag roundtrip failed for %d", e)
		}
	}
}
