package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"picl/internal/exp"
	"picl/internal/nvm"
	"picl/internal/sim"
	"picl/internal/trace"
)

// fig9 renders the full Fig. 9 matrix (29 benchmarks x 6 schemes) at
// 1/1024 scale, so that a run holds many whole sweeps (about 17 in 25 s
// on a 2-CPU host, where one sweep at 1/64 takes about 23 s).
const fig9Factor = 1024

// scaleAt is exp.Scaled shrunk by factor instead of 64, with runs of
// epochs epochs — the scale picl-simd serves at with -factor and -epochs.
func scaleAt(factor, epochs int) exp.Scale {
	return exp.Scale{Name: fmt.Sprintf("1/%d", factor), Factor: 1 / float64(factor),
		EpochInstr: uint64(30_000_000 / factor), Epochs: epochs, MulticoreEpochs: epochs}
}

// benchList is every benchmark, or two of them in quick runs.
func benchList(quick bool) []string {
	if quick {
		return []string{"gcc", "lbm"}
	}
	return trace.Benchmarks()
}

// fig9Reqs lists every cell of the figure in a seed-shuffled order: the
// seed orders the work the pool sees, never the table.
func fig9Reqs(benches []string, seed int64) []exp.Req {
	var reqs []exp.Req
	for _, b := range benches {
		for _, s := range sim.SchemeNames() {
			reqs = append(reqs, exp.Req{Scheme: s, Benches: []string{b}})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// lineCounter counts the lines written to it: Runner.Progress writes one
// per simulated cell.
type lineCounter struct {
	mu sync.Mutex
	n  int
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range p {
		if b == '\n' {
			c.n++
		}
	}
	return len(p), nil
}

func (c *lineCounter) lines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func newFig9Runner() (*exp.Runner, *lineCounter) {
	r := exp.NewRunner(scaleAt(fig9Factor, exp.Scaled().Epochs))
	r.Jobs = runtime.NumCPU()
	pc := &lineCounter{}
	r.Progress, r.Clock = pc, time.Now
	return r, pc
}

// fig9Out is one rendered figure.
type fig9Out struct {
	sha   string
	gmean float64 // PiCL's GMean row
	sims  int     // cells simulated, from Progress
}

// render builds the figure from r's memo.
func render(r *exp.Runner, pc *lineCounter, benches []string) (fig9Out, error) {
	tb, err := r.Fig9(benches)
	if err != nil {
		return fig9Out{}, err
	}
	label, vals := tb.Row(tb.Rows() - 1)
	if label != "GMean" || len(vals) != len(exp.Schemes) || exp.Schemes[len(exp.Schemes)-1] != "picl" {
		return fig9Out{}, fmt.Errorf("fig9: unexpected table layout (last row %q)", label)
	}
	return fig9Out{sha: fmt.Sprintf("%x", sha256.Sum256([]byte(tb.String()))),
		gmean: vals[len(vals)-1], sims: pc.lines()}, nil
}

// checkFig9 checks one rendered figure: rendering added no simulation,
// and the table and GMean equal the golden values where they exist.
func checkFig9(e *env, benches []string, out fig9Out) {
	cells := len(benches) * len(sim.SchemeNames())
	e.rep.check("fig9 rendering adds no simulation", out.sims == cells,
		fmt.Sprintf("%d cells simulated, want %d", out.sims, cells))
	key := fmt.Sprintf("%d benches, factor %d", len(benches), fig9Factor)
	if want, ok := e.golden.Fig9Table[key]; ok {
		e.rep.check("fig9 table golden ("+key+")", out.sha == want, "sha256 "+out.sha)
	} else {
		e.rep.unchecked("fig9 table golden ("+key+")", "sha256 "+out.sha)
	}
	if want, ok := e.golden.Fig9GMean[key]; ok {
		e.rep.check("fig9 PiCL GMean golden ("+key+")", math.Abs(out.gmean-want) < 1e-9,
			fmt.Sprintf("%.6f", out.gmean))
	}
}

// sweepStats is what one sweep measured.
type sweepStats struct {
	cell       map[figCell]time.Duration
	busy, wall time.Duration
	tailIdle   time.Duration // worker time idle after its last cell
	nvm        nvm.Stats
	instr      uint64
	cycles     uint64
}

// figCell is one cell of the figure: a scheme on one benchmark.
type figCell struct{ scheme, bench string }

// sweep renders the figure with a fresh runner. A benchmark-side pool as
// wide as the runner's pool (nproc) submits the seed-ordered cells
// through Runner.Run, timing each, and Fig9 then renders from the memo.
// The pool is the benchmark's rather than RunAll's so that a traced sweep
// can time every cell, and untraced sweeps take the same path; it claims
// cells the way RunAll's workers do. With a span log (traced runs) every
// Runner.Run call is a span.
func sweep(spans *spanLog, benches []string, seed int64) (fig9Out, sweepStats, error) {
	r, pc := newFig9Runner()
	reqs := fig9Reqs(benches, seed)
	workers := r.Jobs
	st := sweepStats{cell: map[figCell]time.Duration{}}
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	sweepID := spans.reserve("fig9.sweep", -1, -1, 0, start)
	cells := make(chan exp.Req)
	lastEnd := make([]time.Time, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastEnd[w] = start
			for req := range cells {
				t := time.Now()
				res, err := r.Run(req.Scheme, req.Benches)
				end := time.Now()
				lastEnd[w] = end
				spans.add("exp.run "+req.Scheme, sweepID, -1, w+1, t, end)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					st.cell[figCell{req.Scheme, req.Benches[0]}] = end.Sub(t)
					st.busy += end.Sub(t)
					st.nvm.Merge(res.NVM)
					st.instr += res.Instructions
					st.cycles += res.Cycles
				}
				mu.Unlock()
			}
		}(w)
	}
	for _, req := range reqs {
		cells <- req
	}
	close(cells)
	wg.Wait()
	if firstErr != nil {
		return fig9Out{}, st, firstErr
	}
	out, err := render(r, pc, benches)
	end := time.Now()
	spans.finish(sweepID, end)
	st.wall = end.Sub(start)
	for _, t := range lastEnd {
		st.tailIdle += end.Sub(t)
	}
	return out, st, err
}

func runFig9(e *env) error {
	benches := benchList(e.quick)
	var walls []float64
	var first fig9Out
	rss := sampleRSS(0)
	setups, err := measure(e.budget(), func(int) (time.Duration, error) {
		// Set-up: a fresh runner and the first figure row (gcc's six
		// cells) from a cold memo.
		_, st, err := sweep(nil, []string{"gcc"}, e.seed)
		return st.wall, err
	}, func() error {
		out, st, err := sweep(nil, benches, e.seed)
		if err != nil {
			return err
		}
		if len(walls) == 0 {
			first = out
			checkFig9(e, benches, out)
		} else if out != first {
			e.rep.check("fig9 sweep repeats", false, fmt.Sprintf("sweep %d differs", len(walls)+1))
		}
		walls = append(walls, st.wall.Seconds())
		return nil
	})
	rssMB := rss.median()
	if err != nil {
		return err
	}
	e.rep.ops(len(walls), 0)
	e.rep.setE2E(setups, quantile(walls, 0.5)*1e6, len(walls), rssMB, peakRSS(0))
	e.rep.named("wall_s", quantile(walls, 0.5), "s")
	e.rep.named("picl_gmean_normtime", first.gmean, "ratio")
	return nil
}

func tracedFig9(e *env, layers map[string]Metric) error {
	const src = "fig9"
	benches := benchList(e.quick)

	// Untraced and traced sweeps alternate, so host-speed changes reach
	// both alike.
	var untraced, walls []float64
	var busy, wall, tail time.Duration
	var first sweepStats
	cellNs := map[string][]float64{}
	for start := time.Now(); len(walls) == 0 || time.Since(start) < e.budget(); {
		_, ust, err := sweep(nil, benches, e.seed)
		if err != nil {
			return err
		}
		untraced = append(untraced, ust.wall.Seconds())
		out, st, err := sweep(e.spans, benches, e.seed)
		if err != nil {
			return err
		}
		if len(walls) == 0 {
			checkFig9(e, benches, out)
			first = st
		}
		walls = append(walls, st.wall.Seconds())
		busy, wall, tail = busy+st.busy, wall+st.wall, tail+st.tailIdle
		for k, d := range st.cell {
			cellNs[k.scheme] = append(cellNs[k.scheme], float64(d.Nanoseconds()))
		}
	}
	e.rep.ops(len(untraced)+len(walls), 0)
	for _, s := range sim.SchemeNames() {
		layer(layers, "exp.cell_ms."+s, mean(cellNs[s])/1e6, "ms", src)
	}
	workers := float64(runtime.NumCPU())
	layer(layers, "exp.pool_busy_frac", busy.Seconds()/(workers*wall.Seconds()), "frac", src)
	layer(layers, "exp.tail_idle_s", tail.Seconds()/float64(len(walls)), "s", src)
	nvmLayers(layers, nvm.Stats{}, first.nvm, float64(first.instr), float64(first.cycles), src)
	layer(layers, "trace_overhead_frac", quantile(walls, 0.5)/quantile(untraced, 0.5)-1, "frac", src)
	return nil
}
