// Package checkpoint defines the interface every software-transparent
// crash-consistency scheme implements (PiCL and the paper's four
// baselines) and the shared machinery they build on: epoch bookkeeping,
// memory-controller backpressure, and exact durable-state tracking.
//
// Durability model: the NVM controller is FCFS, so writes become durable
// in submission order. Every persistent-state mutation is performed
// immediately on the scheme's current state but registers an undo closure
// tagged with the write's completion time. A crash at time T durably
// retains exactly the prefix of writes with completion <= T; the
// remaining suffix is rolled back in reverse order. This gives the
// recovery property tests a precise, deterministic notion of "what was
// durable when the power failed" — including writes sitting in the
// controller queue.
package checkpoint

import (
	"picl/internal/cache"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/obs"
	"picl/internal/stats"
)

// Scheme is a software-transparent crash-consistency mechanism sitting
// between the LLC and the NVM. It implements the cache.Backend and
// cache.StoreObserver hook interfaces plus epoch control and recovery.
type Scheme interface {
	cache.Backend
	cache.StoreObserver

	// Name identifies the scheme ("picl", "frm", "journal", ...).
	Name() string
	// Attach wires the cache hierarchy (schemes scan/flush it).
	Attach(h *cache.Hierarchy)
	// EpochBoundary ends the current epoch at time now and returns the
	// time execution may resume. Stop-the-world schemes return the flush
	// drain horizon; PiCL returns now (commit is asynchronous).
	EpochBoundary(now uint64) uint64
	// Tick lets the scheme settle asynchronous state (advance
	// PersistedEID when queued persist writes complete). Called by the
	// engine between instruction batches.
	Tick(now uint64)

	// SystemEID is the currently executing epoch.
	SystemEID() mem.EpochID
	// PersistedEID is the most recent fully durable, recoverable epoch.
	PersistedEID() mem.EpochID
	// Commits is the number of epoch commits, including forced early
	// commits from translation-table overflows (Fig. 11 counts these).
	Commits() uint64

	// CrashAt freezes durable state as of time t (functional mode only):
	// persistent writes completing after t are rolled back.
	CrashAt(t uint64)
	// Recover rebuilds a consistent memory image from durable state and
	// reports which epoch it corresponds to.
	Recover() (*mem.Image, mem.EpochID, error)

	// Counters exposes scheme-specific metrics (log bytes, flushes, ...).
	Counters() *stats.Counters

	// SetTracer installs an event tracer (nil disables tracing — the
	// default). Install before the run starts; schemes read the tracer
	// from unsynchronized hot paths.
	SetTracer(obs.Tracer)

	// SetCommitHook registers a callback invoked at the instant each
	// epoch commits — including forced early commits that happen inside
	// an eviction (translation-table overflow). The simulation engine
	// uses it to capture golden end-of-epoch snapshots at exactly the
	// committed state.
	SetCommitHook(func())
}

// LineSink mirrors accepted in-place line writes to a durable medium
// (storage.ImageFile implements it). The mirror is called at submission
// time; storage.ImageFile only stages the write, which reaches the file
// at the image's next Sync, the first step of the marker protocol (see
// internal/storage's package doc).
type LineSink interface {
	WriteLine(l mem.LineAddr, w mem.Word) error
}

// Base carries the state and helpers shared by all scheme
// implementations. Schemes embed it and use the Persist* helpers for
// every durable mutation.
type Base struct {
	SchemeName string
	Ctl        *nvm.Controller
	Hier       *cache.Hierarchy
	// Cur is the logical current NVM content: every accepted write is
	// visible here immediately (device write queues are snooped by
	// reads). Nil in timing-only mode.
	Cur *mem.Image
	// Functional enables content and durability tracking; timing-only
	// benchmark runs disable it to avoid closure overhead.
	Functional bool

	System    mem.EpochID
	Persisted mem.EpochID
	NCommits  uint64
	// ForcedCommits counts early commits caused by resource overflow
	// (redo translation-table pressure — Fig. 11's story).
	ForcedCommits uint64

	C *stats.Counters

	// Tr receives scheme events when tracing is enabled; nil otherwise.
	// Every emit site guards with `if Tr != nil` so the disabled path is
	// one branch and zero allocations.
	Tr obs.Tracer

	commitHook func()
	inflight   []inflightOp
	crashed    bool

	// sink, when non-nil, receives a durable mirror of every in-place
	// line write. The first mirror failure — from this sink or noted by
	// the scheme for its own mirrors via NoteDurableErr — is recorded
	// sticky in sinkErr (the hot paths cannot return storage errors).
	// Once set, all mirroring stops: the on-disk store freezes at its
	// last consistent state and the facade degrades to read-only.
	sink    LineSink
	sinkErr error
}

type inflightOp struct {
	done uint64
	undo func()
}

// NewBase initializes the shared state. functional enables content and
// crash/recovery tracking.
func NewBase(name string, ctl *nvm.Controller, functional bool) Base {
	b := Base{
		SchemeName: name,
		Ctl:        ctl,
		Functional: functional,
		C:          stats.NewCounters(),
	}
	if functional {
		b.Cur = mem.NewImage()
	}
	return b
}

// Name implements Scheme.
func (b *Base) Name() string { return b.SchemeName }

// Attach implements Scheme.
func (b *Base) Attach(h *cache.Hierarchy) { b.Hier = h }

// SystemEID implements Scheme.
func (b *Base) SystemEID() mem.EpochID { return b.System }

// PersistedEID implements Scheme.
func (b *Base) PersistedEID() mem.EpochID { return b.Persisted }

// Commits implements Scheme.
func (b *Base) Commits() uint64 { return b.NCommits }

// SetCommitHook implements Scheme.
func (b *Base) SetCommitHook(f func()) { b.commitHook = f }

// SetTracer implements Scheme.
func (b *Base) SetTracer(t obs.Tracer) { b.Tr = t }

// NoteCommit records an epoch commit and fires the commit hook. Every
// scheme calls this exactly once per commit (nominal or forced), at the
// point where the committed memory state is the architectural state.
func (b *Base) NoteCommit() {
	b.NCommits++
	if b.commitHook != nil {
		b.commitHook()
	}
}

// Counters implements Scheme.
func (b *Base) Counters() *stats.Counters { return b.C }

// Crashed reports whether CrashAt has frozen this scheme.
func (b *Base) Crashed() bool { return b.crashed }

// Persist submits a persistent write of the given kind/size and, in
// functional mode, registers undo to roll the mutation back if a crash
// strikes before the write completes. The mutation itself must already
// have been applied by the caller. Returns the completion time.
func (b *Base) Persist(now uint64, op nvm.Op, bytes int, undo func()) uint64 {
	done := b.Ctl.Submit(now, op, bytes)
	if b.Functional && undo != nil {
		b.inflight = append(b.inflight, inflightOp{done: done, undo: undo})
	}
	return done
}

// Track registers an undo closure against an already-submitted write's
// completion time without issuing a new device operation (used when one
// device op — e.g. a page copy — carries many logical line mutations).
// done values must be nondecreasing across Persist/Track calls.
func (b *Base) Track(done uint64, undo func()) {
	if b.Functional && undo != nil {
		b.inflight = append(b.inflight, inflightOp{done: done, undo: undo})
	}
}

// PersistLineWrite is Persist for a 64 B in-place line write into Cur.
func (b *Base) PersistLineWrite(now uint64, op nvm.Op, l mem.LineAddr, data mem.Word) uint64 {
	if !b.Functional {
		return b.Ctl.Submit(now, op, mem.LineSize)
	}
	old := b.Cur.Read(l)
	b.Cur.Write(l, data)
	// Mirror only while the store is healthy: after a sticky failure the
	// on-disk image must freeze in the state its last durable marker
	// covers, not accumulate writes whose undo coverage never made it.
	if b.sink != nil && b.sinkErr == nil {
		if err := b.sink.WriteLine(l, data); err != nil {
			b.NoteDurableErr(now, err)
		}
	}
	return b.Persist(now, op, mem.LineSize, func() { b.Cur.Write(l, old) })
}

// SetLineSink installs (or clears, with nil) the durable mirror for
// in-place line writes. Install before the run starts.
func (b *Base) SetLineSink(s LineSink) { b.sink = s }

// SinkErr reports the first durable-mirror failure, if any — the sticky
// degraded-mode cause shared by the line sink and the scheme's own
// mirrors (NoteDurableErr).
func (b *Base) SinkErr() error { return b.sinkErr }

// NoteDurableErr records the first durable-mirror failure and emits the
// degraded-mode event. Later errors are dropped: the first failure is
// the cause, everything after it is a consequence of the store already
// being behind.
func (b *Base) NoteDurableErr(now uint64, err error) {
	if err == nil || b.sinkErr != nil {
		return
	}
	b.sinkErr = err
	if b.Tr != nil {
		b.Tr.Event(obs.Event{Kind: obs.KindDegraded, Time: now, Epoch: b.System})
	}
}

// SeedImage replaces the current NVM content with img (functional mode
// only): `picl.Open` seeds a freshly constructed machine with the image
// recovered from its durable store, making the on-disk state the
// machine's epoch-0 baseline.
func (b *Base) SeedImage(img *mem.Image) {
	if b.Functional && img != nil {
		b.Cur = img
	}
}

// Settle discards undo records for writes durable by now. Called
// periodically to bound memory; after a Settle those writes can no longer
// be rolled back (they are durable).
func (b *Base) Settle(now uint64) {
	i := 0
	for i < len(b.inflight) && b.inflight[i].done <= now {
		i++
	}
	if i > 0 {
		b.inflight = append(b.inflight[:0], b.inflight[i:]...)
	}
}

// CrashAt implements Scheme: rolls back every persistent mutation whose
// write had not completed by t, in reverse submission order.
func (b *Base) CrashAt(t uint64) {
	b.Settle(t)
	for i := len(b.inflight) - 1; i >= 0; i-- {
		b.inflight[i].undo()
	}
	b.inflight = nil
	b.crashed = true
}

// DurableImage exposes the raw NVM content (functional mode): after a
// crash, this is exactly what survived — without any recovery applied.
// Examples use it to demonstrate the corruption that unprotected NVMM
// suffers (paper §I's doubly-linked-list motivator).
func (b *Base) DurableImage() *mem.Image { return b.Cur }

// MaybeStall returns the time the issuer must wait until if the memory
// controller queue is full at now (backpressure), else now.
func (b *Base) MaybeStall(now uint64) uint64 {
	if b.Ctl.Full(now) {
		return b.Ctl.NextFree(now)
	}
	return now
}
