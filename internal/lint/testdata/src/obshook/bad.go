// Package otest exercises the obshook analyzer: counter updates with
// and without paired obs-event emits, every counter form it recognizes
// (stats.Handle, *stats.Counters, nvm.Stats field bumps), exempt
// resets, and suppression.
package otest

import (
	"picl/internal/nvm"
	"picl/internal/obs"
	"picl/internal/stats"
)

type engine struct {
	c     *stats.Counters
	h     stats.Handle
	stats nvm.Stats
	tr    obs.Tracer
}

func handleNoEmit(e *engine) {
	e.h.Add(1)
}

func counterNoEmit(e *engine) {
	e.c.Add("acs_runs", 1)
}

func setNoEmit(e *engine) {
	e.c.Set("peak", 7)
}

func fieldNoEmit(e *engine) {
	e.stats.DRAMHits++
}

func indexedNoEmit(e *engine, op nvm.Op) {
	e.stats.Bytes[op] += 64
}

func handleWithEmit(e *engine) {
	e.h.Add(1)
	if e.tr != nil {
		e.tr.Event(obs.Event{Kind: obs.KindUndoInsert})
	}
}

func fieldWithEmitHelper(e *engine) {
	e.stats.Count[nvm.OpDemandRead]++
	obs.Emit(e.tr, obs.Event{Kind: obs.KindDRAMHit})
}

func resetIsNotACount(e *engine) {
	// Whole-bag replacement targets the engine field, not a Stats field.
	e.stats = nvm.Stats{}
}

func mergeIsNotACount(e *engine, other nvm.Stats) {
	// Folding another bag's counts is aggregation of events that were
	// already traced at their source (the benchmark's Fig. 9 workload
	// totals per-cell controllers this way); no new emit is owed.
	e.stats.BusyCycles += other.BusyCycles
	e.stats.DRAMHits += other.DRAMHits
}

func readsAreFree(e *engine) uint64 {
	return e.c.Get("acs_runs") + e.stats.DRAMHits
}

func suppressed(e *engine) {
	//lint:ignore obshook aggregation-only rollup; the per-event emit happened at the source
	e.c.Add("rollup", 1)
}
