// Command picl-recover is a crash-injection auditor: it runs a workload
// in functional mode, cuts power at a chosen (or random) instant — losing
// caches and any NVM writes still queued in the memory controller — runs
// the OS recovery procedure, and verifies the recovered memory image
// bit-for-bit against the golden end-of-epoch state the scheme claims to
// have restored (paper §IV-B crash handling, §V "fully recoverable").
//
// With -log it audits a real on-disk durable store instead — a
// directory produced by picl.Open (or left behind by a SIGKILLed
// process; see picl-crash): it runs the identical OS recovery procedure
// against the files, validates the log's structural invariants, and
// reports what was recovered.
//
// Usage:
//
//	picl-recover                          # one PiCL crash, random point
//	picl-recover -scheme frm -trials 20
//	picl-recover -bench mcf -at 2000000   # crash at instruction 2M
//	picl-recover -log /path/to/store      # audit an on-disk durable store
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"picl/internal/cache"
	"picl/internal/core"
	"picl/internal/exp"
	"picl/internal/sim"
	"picl/internal/trace"
)

func main() {
	var (
		scheme = flag.String("scheme", "picl", "scheme under audit (not 'ideal')")
		bench  = flag.String("bench", "gcc", "workload")
		at     = flag.Int64("at", -1, "crash at this instruction count (-1 = random)")
		trials = flag.Int("trials", 5, "number of independent crash trials")
		seed   = flag.Int64("seed", 2018, "crash-point RNG seed")
		gap    = flag.Int("acs-gap", 3, "PiCL ACS-gap")
		logDir = flag.String("log", "", "audit this on-disk durable store directory instead of a simulated run")
	)
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "picl-recover: -trials %d: want at least 1\n", *trials)
		os.Exit(2)
	}

	if *logDir != "" {
		os.Exit(auditStore(*logDir))
	}

	p, err := trace.ProfileFor(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale := exp.Scaled()
	p = p.Scale(scale.Factor)
	rnd := rand.New(rand.NewSource(*seed))
	failures := 0

	for trial := 0; trial < *trials; trial++ {
		h := scale.Hierarchy(1)
		piclCfg := core.DefaultConfig()
		piclCfg.ACSGap = *gap
		cfg := sim.Config{
			Scheme:       *scheme,
			PiCL:         piclCfg,
			Baseline:     scale.Params(),
			Workloads:    []trace.Generator{trace.NewSynthetic(p, 1<<34, uint64(trial)+7)},
			Hierarchy:    &cache.HierarchyConfig{Cores: 1, L1: h.L1, L2: h.L2, LLC: h.LLC},
			EpochInstr:   scale.EpochInstr,
			InstrPerCore: uint64(scale.Epochs) * scale.EpochInstr,
			Functional:   true,
			KeepGolden:   true,
		}
		m, err := sim.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

		crashInstr := uint64(*at)
		if *at < 0 {
			crashInstr = uint64(rnd.Int63n(int64(cfg.InstrPerCore))) + 1
		}
		m.RunUntil(func(_ uint64, instr uint64) bool { return instr >= crashInstr })
		crash := m.Now()
		if d := m.Controller().Drain(); d > crash && rnd.Intn(2) == 0 {
			// Half the trials crash while writes are still in flight in
			// the controller queue — the hardest window.
			crash += uint64(rnd.Int63n(int64(d - crash + 1)))
		}
		eid, err := m.CrashAndRecover(crash)
		if err != nil {
			failures++
			fmt.Printf("trial %2d: crash@%-10d FAIL: %v\n", trial, crashInstr, err)
			continue
		}
		fmt.Printf("trial %2d: crash@%-10d t=%-12d recovered epoch %-3d system epoch %-3d OK\n",
			trial, crashInstr, crash, eid, m.Scheme().SystemEID())
	}

	if failures > 0 {
		fmt.Printf("\n%d/%d trials FAILED recovery verification\n", failures, *trials)
		os.Exit(1)
	}
	fmt.Printf("\nall %d trials recovered bit-exactly to a consistent checkpoint\n", *trials)
}
