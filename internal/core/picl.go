// Package core implements PiCL, the paper's contribution: a
// software-transparent persistent cache log combining
//
//   - cache-driven logging (§III-B): undo entries are sourced directly
//     from the pre-store contents of cache lines — no read-log-modify
//     round trip to the NVM — and staged in a small on-chip buffer that
//     is flushed as one row-buffer-sized sequential write;
//   - asynchronous cache scan (§III-C): instead of a stop-the-world
//     flush, an ACS engine lazily walks the LLC EID array and writes back
//     only the lines belonging to the epoch being persisted, trailing
//     execution by a configurable ACS-gap;
//   - multi-undo logging (§III-D): several committed-but-not-persisted
//     epochs are in flight at once; undo entries of different epochs
//     co-mingle in one sequential log, each tagged with a
//     [ValidFrom, ValidTill) validity range.
//
// Epoch numbering: SystemEID starts at 1; epoch 0 is the pristine initial
// memory state, which is what a crash during epoch 1 recovers to.
package core

import (
	"errors"
	"fmt"

	"picl/internal/bloom"
	"picl/internal/cache"
	"picl/internal/checkpoint"
	"picl/internal/mem"
	"picl/internal/nvm"
	"picl/internal/obs"
	"picl/internal/stats"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// Config parameterizes PiCL.
type Config struct {
	// ACSGap is how many epochs the asynchronous cache scan trails the
	// commit point (paper Fig. 4 uses 3). Gap 0 scans right after commit.
	ACSGap int
	// BufferEntries sizes the on-chip undo buffer (paper: 32 entries in
	// a 2 KB buffer; default fills one log block exactly).
	BufferEntries int
	// BloomBits/BloomHashes size the eviction-dependency filter
	// (paper: 4096 bits vs 32-entry capacity).
	BloomBits   int
	BloomHashes int
	// LogRegionBytes is the OS's initial undo-log allocation.
	LogRegionBytes uint64
	// RetainEpochs keeps log blocks for that many epochs beyond the
	// persisted point instead of garbage-collecting them immediately,
	// enabling point-in-time recovery to any epoch in
	// [PersistedEID-RetainEpochs, PersistedEID] via RecoverTo. 0 retains
	// only what recovery to PersistedEID needs (the paper's behavior).
	RetainEpochs int
}

// DefaultConfig returns the paper's evaluated configuration.
func DefaultConfig() Config {
	return Config{
		ACSGap:         3,
		BufferEntries:  undolog.EntriesPerBlock,
		BloomBits:      4096,
		BloomHashes:    2,
		LogRegionBytes: undolog.DefaultRegionBytes,
	}
}

type persistRec struct {
	target mem.EpochID
	done   uint64
}

// PiCL is the scheme implementation. It satisfies checkpoint.Scheme.
type PiCL struct {
	checkpoint.Base
	cfg    Config
	buf    *undolog.Buffer
	filter *bloom.Filter
	log    *undolog.Log

	// durableMarker is the PersistedEID record stored in NVM; recovery
	// reads it first (paper §IV-B crash handling).
	durableMarker mem.EpochID
	pending       []persistRec

	// durable, when non-nil, receives a durable mirror of every flushed
	// undo block, of the persisted-epoch marker, and (via Base's line
	// sink) of the image. Mirror failures are sticky in Base's sink
	// error (NoteDurableErr) — the store/eviction hot paths cannot
	// return storage errors — and once sticky every mirror site goes
	// quiet, freezing the on-disk store at its last consistent marker.
	durable *storage.Dir

	// Per-event counter handles for the store/eviction fast paths.
	cUndo, cBufFlush, cDepFlush, cEvictWB stats.Handle
}

// New constructs PiCL over the given memory controller. functional
// enables content tracking and crash/recovery.
func New(cfg Config, ctl *nvm.Controller, functional bool) *PiCL {
	if cfg.BufferEntries <= 0 {
		cfg.BufferEntries = undolog.EntriesPerBlock
	}
	if cfg.BloomBits <= 0 {
		cfg.BloomBits = 4096
	}
	if cfg.BloomHashes <= 0 {
		cfg.BloomHashes = 2
	}
	p := &PiCL{
		Base:   checkpoint.NewBase("picl", ctl, functional),
		cfg:    cfg,
		buf:    undolog.NewBuffer(cfg.BufferEntries),
		filter: bloom.New(cfg.BloomBits, cfg.BloomHashes),
		log:    undolog.NewLog(cfg.LogRegionBytes),
	}
	p.System = 1
	p.cUndo = p.C.Handle("undo_entries")
	p.cBufFlush = p.C.Handle("buffer_flushes")
	p.cDepFlush = p.C.Handle("dependency_flushes")
	p.cEvictWB = p.C.Handle("evict_writebacks")
	return p
}

// Log exposes the undo log for statistics and tests.
func (p *PiCL) Log() *undolog.Log { return p.log }

// SetDurable attaches (or detaches, with nil) a durable store
// directory: undo blocks are appended to its log file unsynced,
// in-place line writes are staged for its image file, and each
// persisted epoch is one image write at its sealed end carrying the
// staged writes and the commit record that seals them. An ACS-gap commit syncs the log
// first; the bulk ACS's commit does not need to (see ForcePersist). The
// machine must be functional. Install before the run starts — typically
// right after seeding the recovered image with SeedImage.
func (p *PiCL) SetDurable(d *storage.Dir) {
	p.durable = d
	if d == nil {
		p.SetLineSink(nil)
		return
	}
	p.SetLineSink(d.Img)
}

// Durable returns the attached durable store (nil for in-memory
// machines).
func (p *PiCL) Durable() *storage.Dir { return p.durable }

// DurableErr reports the first durable-mirror failure, if any: once a
// mirror write fails the on-disk store is behind the simulated state
// and must not be trusted past its own marker. The machine itself keeps
// running — the facade degrades writes to ErrBackend while reads and
// stats stay live (read-only degraded mode).
func (p *PiCL) DurableErr() error { return p.SinkErr() }

// SyncRetries bounds the deterministic retry of transient durable-sync
// failures: each failed sync/marker operation is retried up to this many
// times (same machine state, so the retry sequence is reproducible)
// before the error goes sticky and the machine degrades.
const SyncRetries = 2

// retryDurable runs op, retrying a failure up to SyncRetries times.
// Simulated power loss is never retried — after a power cut there is no
// device left to retry against, and the injector would mis-count the
// extra attempts.
func (p *PiCL) retryDurable(now uint64, op func() error) error {
	err := op()
	for attempt := 1; err != nil && attempt <= SyncRetries; attempt++ {
		if errors.Is(err, storage.ErrPowerLost) {
			return err
		}
		if p.Tr != nil {
			p.Tr.Event(obs.Event{Kind: obs.KindMirrorRetry, Time: now, Epoch: p.System, A: uint64(attempt)})
		}
		p.C.Add("mirror_retries", 1)
		err = op()
	}
	return err
}

// Fill implements cache.Backend: a demand read from NVM.
func (p *PiCL) Fill(now uint64, l mem.LineAddr) (mem.Word, uint64) {
	var data mem.Word
	if p.Functional {
		data = p.Cur.Read(l)
	}
	done := p.Ctl.SubmitRead(now, uint64(l.Page()))
	return data, done
}

// OnStore implements cache.StoreObserver: the cache-driven logging hook
// (paper Figs. 7/8). A store to a clean line logs the pre-store data with
// ValidFrom = PersistedEID; a cross-epoch store to a modified line logs
// it with ValidFrom = the line's tagged EID; a same-epoch store to a
// transient line logs nothing.
func (p *PiCL) OnStore(now uint64, l mem.LineAddr, old mem.Word, oldEID mem.EpochID, wasModified bool) (mem.EpochID, uint64) {
	stall := now
	switch {
	case !wasModified:
		stall = p.addUndo(now, undolog.Entry{
			Line: l, ValidFrom: p.Persisted, ValidTill: p.System, Old: old,
		})
	case oldEID != p.System:
		stall = p.addUndo(now, undolog.Entry{
			Line: l, ValidFrom: oldEID, ValidTill: p.System, Old: old,
		})
	default:
		// Same-epoch store to an already-modified line: the existing undo
		// entry covers it, nothing is logged (the coalescing that makes
		// cache-driven logging cheap).
		if p.Tr != nil {
			p.Tr.Event(obs.Event{Kind: obs.KindUndoCoalesce, Time: now, Epoch: p.System, Addr: l})
		}
	}
	return p.System, stall
}

// addUndo stages an entry in the on-chip buffer, flushing it as one
// sequential block write when full.
func (p *PiCL) addUndo(now uint64, e undolog.Entry) uint64 {
	p.cUndo.Add(1)
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindUndoInsert, Time: now, Epoch: e.ValidFrom, Addr: e.Line, A: uint64(e.ValidTill)})
	}
	p.filter.Insert(e.Line)
	if p.buf.Add(e) {
		return p.flushBuffer(now)
	}
	return now
}

// flushBuffer writes all staged undo entries to the log as one 2 KB
// sequential NVM write and clears the bloom filter (paper §III-B).
// Returns the issuer's stall-until time (controller backpressure only;
// the write itself is asynchronous).
func (p *PiCL) flushBuffer(now uint64) uint64 {
	entries := p.buf.Drain()
	p.filter.Clear()
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindBloomClear, Time: now, Epoch: p.System})
	}
	if len(entries) == 0 {
		return now
	}
	stall := p.MaybeStall(now)
	p.log.AppendBlock(entries)
	if p.mirroring() {
		// Durable mirror, appended ahead of any in-place write it covers
		// (rule 1 of the storage ordering contract: the caller may stage
		// one as soon as we return) and left unsynced: a staged write
		// reaches the image only in a commit, and the commit that needs
		// this block syncs the log first. The crash-rollback closure below
		// does NOT rewind the mirror — a durable file holding more blocks
		// than the simulated durable prefix is still a valid recovery
		// point. Append failures are not retried (a short append leaves a
		// torn tail whose re-append would interleave garbage), so the
		// store degrades immediately.
		raw, err := undolog.EncodeBlock(p.log.Last())
		if err == nil {
			err = p.durable.Log.AppendBlock(raw)
		}
		p.NoteDurableErr(now, err)
	}
	watermark := p.log.Blocks()
	var undo func()
	if p.Functional {
		undo = func() { p.log.TruncateTo(watermark - 1) }
	}
	done := p.Persist(stall, nvm.OpSeqBlockWrite, undolog.BlockBytes, undo)
	p.cBufFlush.Add(1)
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindBufFlush, Time: stall, Dur: done - stall,
			Epoch: p.System, A: uint64(len(entries)), B: undolog.BlockBytes})
	}
	return stall
}

// EvictDirty implements cache.Backend. PiCL evictions are plain in-place
// writes — no read-log-modify — but must not overtake a buffered undo
// entry for the same line (write-ahead ordering), so the bloom filter is
// probed and a hit forces the buffer out first (paper §III-B).
func (p *PiCL) EvictDirty(now uint64, l mem.LineAddr, data mem.Word, eid mem.EpochID) uint64 {
	stall := now
	if p.filter.MayContain(l) {
		if p.Tr != nil {
			p.Tr.Event(obs.Event{Kind: obs.KindDepFlush, Time: now, Epoch: p.System, Addr: l})
		}
		stall = p.flushBuffer(now)
		p.cDepFlush.Add(1)
	}
	stall2 := p.MaybeStall(stall)
	p.PersistLineWrite(stall2, nvm.OpWriteback, l, data)
	p.cEvictWB.Add(1)
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindEvictWB, Time: stall2, Epoch: eid, Addr: l})
	}
	return stall2
}

// EpochBoundary implements checkpoint.Scheme: commit the finished epoch
// (free — just an EID increment plus the OS boundary handler's register
// spill, which is cacheable stores) and kick the ACS engine for the epoch
// ACS-gap behind. Execution resumes immediately except in the rare case
// where the 4-bit EID tag space would be exhausted, which requires
// waiting for the oldest in-flight persist (paper §IV-A).
func (p *PiCL) EpochBoundary(now uint64) uint64 {
	p.Tick(now)
	p.NoteCommit()
	committed := p.System
	p.System++
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindEpochCommit, Time: now, Epoch: committed})
		p.Tr.Event(obs.Event{Kind: obs.KindEpochOpen, Time: now, Epoch: p.System})
	}

	if committed.After(mem.EpochID(p.cfg.ACSGap)) {
		target := committed.Minus(uint64(p.cfg.ACSGap))
		if p.runACS(now, target) && p.mirroring() {
			// An ACS-gap commit: lines of epochs newer than target may
			// already be on disk (evicted, or staged in this batch), and
			// recovery at target rolls them back with undo entries the
			// log holds, so the log is synced before the commit names it.
			p.NoteDurableErr(now, p.retryDurable(now, func() error {
				return p.durable.PersistMarker(target)
			}))
		}
	}

	// Hardware EID tags are TagBits wide; the live range
	// [PersistedEID, SystemEID] must stay narrower than the tag space.
	resume := now
	for p.System.Gap(p.Persisted) >= mem.TagMask && len(p.pending) > 0 {
		resume = p.pending[0].done
		p.Tick(resume)
		p.C.Add("tag_space_stalls", 1)
	}
	if resume > now && p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindTagStall, Time: now, Dur: resume - now, Epoch: p.System})
	}
	return resume
}

// runACS persists epoch target: flush the undo buffer first (write-ahead
// ordering — in-place ACS writes must not become durable before the undo
// entries that cover them; the paper orders the buffer flush "as the
// final step" but also conservatively flushes on every ACS, and FCFS
// submission order is our durability order), then scan the LLC EID array
// and write back every dirty line with EID <= target, then write the
// persist marker. When the marker's write completes, target is durable.
// It reports whether it scanned; the caller then commits target to the
// durable store, if one is attached, the way its kind of scan allows.
func (p *PiCL) runACS(now uint64, target mem.EpochID) bool {
	if target.AtMost(p.Persisted) && p.durableMarker.AtLeast(target) {
		return false
	}
	p.C.Add("acs_runs", 1)
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindACSStart, Time: now, Epoch: target})
	}
	p.flushBuffer(now)

	lines := p.Hier.FlushDirty(func(_ mem.LineAddr, eid mem.EpochID) bool {
		return eid.AtMost(target)
	})
	for _, dl := range lines {
		p.PersistLineWrite(now, nvm.OpWriteback, dl.Addr, dl.Data)
	}
	p.C.Add("acs_writebacks", uint64(len(lines)))

	// Persist marker: an 8-byte pointer-sized record (paper §IV-B:
	// "the OS first reads a memory location in NVM for the last valid
	// and persisted checkpoint").
	oldMarker := p.durableMarker
	p.durableMarker = target
	var undo func()
	if p.Functional {
		undo = func() { p.durableMarker = oldMarker }
	}
	done := p.Persist(now, nvm.OpRandLogWrite, 8, undo)
	p.pending = append(p.pending, persistRec{target: target, done: done})
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindACSDone, Time: now, Dur: done - now,
			Epoch: target, A: uint64(len(lines))})
	}
	return true
}

// mirroring reports whether a durable store is attached and healthy.
// Every in-place write of epochs <= a scan's target was mirrored by the
// scan (ACS writebacks) or earlier (evictions, behind their undo
// blocks), so the commit that follows a scan makes its target
// recoverable on disk; the disk marker can run ahead of the simulated
// one (mirror-at-submit), and both are valid recovery points. After a
// mirror failure nothing is mirrored: advancing the marker past writes
// that never reached the store would certify an unrecoverable state.
func (p *PiCL) mirroring() bool { return p.durable != nil && p.DurableErr() == nil }

// ForcePersist forcefully ends the current epoch and conducts a bulk ACS
// (paper §IV-C): one scan pass covering every committed epoch, stalling
// until all of them are durable. This is the mechanism that releases
// pending I/O writes when I/O is on the critical path — the effective
// persist latency collapses from epoch-length x ACS-gap to one drain.
// Returns the time execution resumes (everything durable).
func (p *PiCL) ForcePersist(now uint64) uint64 {
	p.Tick(now)
	p.NoteCommit()
	committed := p.System
	p.System++
	p.C.Add("bulk_acs", 1)
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindEpochCommit, Time: now, Epoch: committed, A: 1})
		p.Tr.Event(obs.Event{Kind: obs.KindEpochOpen, Time: now, Epoch: p.System})
		p.Tr.Event(obs.Event{Kind: obs.KindBulkACS, Time: now, Epoch: committed})
	}
	if p.runACS(now, committed) && p.mirroring() {
		// The bulk scan leaves every line on disk at its newest value of
		// an epoch <= committed, and every undo entry logged so far ends
		// at or before committed, so recovery at committed applies none:
		// the commit needs no log sync, and names the prefix synced last.
		p.NoteDurableErr(now, p.retryDurable(now, func() error {
			return p.durable.PersistBulk(committed)
		}))
	}
	resume := now
	for len(p.pending) > 0 {
		if d := p.pending[len(p.pending)-1].done; d > resume {
			resume = d
		}
		p.Tick(resume)
	}
	return resume
}

// Tick implements checkpoint.Scheme: advance PersistedEID as marker
// writes complete, garbage-collect the expired log prefix, and settle
// durable-prefix records.
func (p *PiCL) Tick(now uint64) {
	for len(p.pending) > 0 && p.pending[0].done <= now {
		p.Persisted = p.pending[0].target
		if p.Tr != nil {
			// Stamped with the marker's completion time, not now: Tick may
			// observe the completion late, but durability happened at done.
			p.Tr.Event(obs.Event{Kind: obs.KindEpochPersist, Time: p.pending[0].done, Epoch: p.Persisted})
		}
		p.pending = p.pending[1:]
		p.log.GC(p.Persisted.Minus(uint64(p.cfg.RetainEpochs)))
	}
	p.Settle(now)
}

// Recover implements checkpoint.Scheme: read the durable marker, then
// scan the log backward applying covering entries (paper §IV-B).
func (p *PiCL) Recover() (*mem.Image, mem.EpochID, error) {
	if !p.Functional {
		return nil, 0, errors.New("picl: recovery requires functional mode")
	}
	img := p.Cur.Clone()
	applied, scanned := p.log.ApplyTo(img, p.durableMarker)
	p.C.Add("recovery_entries_applied", uint64(applied))
	p.C.Add("recovery_blocks_scanned", uint64(scanned))
	if p.Tr != nil {
		p.Tr.Event(obs.Event{Kind: obs.KindRecover, Epoch: p.durableMarker,
			A: uint64(applied), B: uint64(scanned)})
	}
	return img, p.durableMarker, nil
}

// DurableMarker exposes the persisted-EID NVM record for tests.
func (p *PiCL) DurableMarker() mem.EpochID { return p.durableMarker }

// RecoverTo rebuilds the memory image of a specific epoch — the
// multi-undo log's point-in-time capability: any epoch whose blocks are
// still retained (see Config.RetainEpochs) can be reassembled, not just
// the newest persisted one.
func (p *PiCL) RecoverTo(epoch mem.EpochID) (*mem.Image, error) {
	if !p.Functional {
		return nil, errors.New("picl: recovery requires functional mode")
	}
	if epoch.After(p.durableMarker) {
		return nil, fmt.Errorf("picl: epoch %d not yet persisted (marker %d)", epoch, p.durableMarker)
	}
	floor := p.durableMarker.Minus(uint64(p.cfg.RetainEpochs))
	if epoch.Before(floor) {
		return nil, fmt.Errorf("picl: epoch %d garbage-collected (retained floor %d)", epoch, floor)
	}
	img := p.Cur.Clone()
	p.log.ApplyTo(img, epoch)
	return img, nil
}

// RecoveryEstimate models worst-case recovery latency (§IV-C): scanning
// the live log from the tail plus applying covered entries, at the NVM's
// sequential read bandwidth plus one row write per applied entry.
func (p *PiCL) RecoveryEstimate() (cycles uint64) {
	cfg := p.Ctl.Config()
	blocks := p.log.LiveBytes() / undolog.BlockBytes
	scan := blocks * (cfg.RowReadCycles + uint64(undolog.BlockBytes)*cfg.TransferNum/cfg.TransferDen)
	apply := blocks * uint64(undolog.EntriesPerBlock) * cfg.RowWriteCycles / 4 // ~25% of scanned entries apply
	return scan + apply
}

var _ checkpoint.Scheme = (*PiCL)(nil)
var _ cache.Backend = (*PiCL)(nil)
var _ cache.StoreObserver = (*PiCL)(nil)
