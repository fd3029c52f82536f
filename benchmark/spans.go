package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// maxSpans bounds the spans a traced run keeps for its Chrome trace.
// Layer metrics come from the accumulators, never from this log, so a
// full log only thins the trace file (the drop count is reported).
const maxSpans = 100_000

// span is one timed call into a layer, recorded from benchmark code.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Time
	Req        int64 // request id (serve spans), else -1
	Tid        int
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog records nothing: untraced runs pass nil everywhere.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id (-1 if not kept), for
// use as the parent of spans it caused.
func (l *spanLog) add(name string, parent int, req int64, tid int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Req: req, Tid: tid})
	return id
}

// reserve records a span that has started but whose end is not known
// yet, so that children can name it as parent; finish closes it.
func (l *spanLog) reserve(name string, parent int, req int64, tid int, start time.Time) int {
	return l.add(name, parent, req, tid, start, start)
}

func (l *spanLog) finish(id int, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].End = end
	l.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto) and returns how many spans it wrote and
// how many the log dropped.
func (l *spanLog) writeChrome(path string) (kept, dropped int, err error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req >= 0 {
			args["req"] = s.Req
		}
		evs = append(evs, event{Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Tid, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return 0, 0, err
	}
	return len(l.spans), l.dropped, os.WriteFile(path, b, 0o644)
}

// acc accumulates the timed calls of one layer operation: how many calls
// were timed, their measured total, and the measured total of the child
// spans nested inside them. It is owned by one goroutine.
type acc struct {
	calls    int64 // every call, timed or not
	timed    int64
	total    time.Duration
	child    time.Duration
	children int64
}

func (a *acc) add(d time.Duration) {
	a.timed++
	a.total += d
}

// timerCost is the calibrated cost of instrumenting one call with two
// clock reads: bias is what an empty span measures; inParent is what an
// empty span adds to the interval of an enclosing span.
type timerCost struct {
	bias, inParent float64 // ns
}

func calibrateTimer() timerCost {
	const n = 200_000
	var sum time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return timerCost{
		bias:     float64(sum.Nanoseconds()) / n,
		inParent: float64(time.Since(start).Nanoseconds()) / n,
	}
}

// selfNs returns the mean true self time per timed call of a: its
// measured time minus the clock bias, minus its children's measured
// time and the instrumentation each child added.
func (a *acc) selfNs(tc timerCost) float64 {
	if a.timed == 0 {
		return 0
	}
	ns := float64(a.total.Nanoseconds()) - float64(a.timed)*tc.bias -
		float64(a.child.Nanoseconds()) - float64(a.children)*(tc.inParent-tc.bias)
	return ns / float64(a.timed)
}

// perCallNs returns the mean true time per timed call including its
// children's work but not their instrumentation.
func (a *acc) perCallNs(tc timerCost) float64 {
	if a.timed == 0 {
		return 0
	}
	ns := float64(a.total.Nanoseconds()) - float64(a.timed)*tc.bias - float64(a.children)*tc.inParent
	return ns / float64(a.timed)
}
