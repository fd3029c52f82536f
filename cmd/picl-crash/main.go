// Command picl-crash is the durable-storage crash harness: it SIGKILLs
// real processes mid-workload and verifies that the store directory they
// leave behind recovers bit-exactly.
//
// For each crash point the parent re-executes itself as a child. The
// child opens a durable store (picl.Open), replays a deterministic
// seeded workload — line writes, epoch commits, occasional syncs — and
// kills itself with SIGKILL at a PRNG-chosen operation index: no
// deferred cleanup, no flush-on-exit, exactly what a power cut looks
// like to the filesystem. The parent then replays the same operation
// stream in pure application space (internal/crashplan, shared with the
// picl-fuzz campaign), reconstructing the golden end-of-epoch memory
// image for every epoch the child sealed, recovers the directory with
// the OS recovery procedure, and requires the recovered image to equal
// the golden image of the epoch the durable marker names (paper §IV-B,
// against real files instead of the simulated NVM).
//
// Every point derives its own seed from the base seed, so a failure
// minimizes to a single replayable invocation, which the harness prints:
//
//	picl-crash                 # 100 crash points, seed 2018
//	picl-crash -points 500 -seed 7
//	picl-crash -points 1 -seed 2043   # replay point 25 of the default run
//	picl-crash -verify DIR            # recover an existing store, print what was found
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"

	"picl"
	"picl/internal/crashplan"
	"picl/internal/storage"
)

// machineOpts is the child's configuration: small caches so evictions
// happen, a tiny undo buffer so blocks flush often, and ACS-gap 1 so
// the marker trails commits closely — maximum durable traffic per op.
func machineOpts() []picl.Option {
	cfg := picl.DefaultConfig()
	cfg.ACSGap = 1
	cfg.BufferEntries = 4
	return []picl.Option{picl.WithSmallCaches(), picl.WithConfig(cfg)}
}

// runChild executes ops[0:killAt] against a durable store and then
// SIGKILLs its own process — it never returns.
func runChild(dir string, seed uint64) {
	ops, killAt := crashplan.Plan(seed)
	m, err := picl.Open(dir, machineOpts()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(3)
	}
	for _, o := range ops[:killAt] {
		if err := m.Write(o.Line*64, o.Val); err != nil {
			fmt.Fprintln(os.Stderr, "child write:", err)
			os.Exit(3)
		}
		if o.Commit {
			if err := m.CommitEpoch(); err != nil {
				fmt.Fprintln(os.Stderr, "child commit:", err)
				os.Exit(3)
			}
		}
		if o.Sync {
			if _, err := m.Sync(); err != nil {
				fmt.Fprintln(os.Stderr, "child sync:", err)
				os.Exit(3)
			}
		}
	}
	// The plug is pulled: no Close, no flush, no deferred anything.
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL cannot be caught
}

// verifyPoint checks one crash point's directory against the golden
// replay. It returns a description of the failure, or "" on success.
func verifyPoint(dir string, seed uint64) string {
	ops, killAt := crashplan.Plan(seed)
	img, info, err := storage.RecoverDir(dir)
	if err != nil {
		return fmt.Sprintf("recovery error: %v", err)
	}
	g := crashplan.Golden(ops, killAt)
	if int(info.Marker) >= len(g) {
		return fmt.Sprintf("marker %d but only %d epochs sealed before the kill", info.Marker, len(g)-1)
	}
	want := g[info.Marker]
	if !img.Equal(want) {
		return fmt.Sprintf("image differs from golden epoch %d at lines %v (blocks=%d applied=%d torn=%dB)",
			info.Marker, img.Diff(want, 5), info.BlocksRead, info.Applied, info.TornBytes)
	}
	return ""
}

// diedBySIGKILL reports whether the child process ended with the
// harness's own SIGKILL. A nil ProcessState (the exec never started)
// is a failure, not a panic.
func diedBySIGKILL(cmd *exec.Cmd) bool {
	if cmd.ProcessState == nil {
		return false
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

func main() {
	var (
		child  = flag.String("child", "", "internal: run as crash child against this store directory")
		seed   = flag.Uint64("seed", 2018, "base seed; point i uses seed+i")
		points = flag.Int("points", 100, "number of SIGKILL crash points")
		verify = flag.String("verify", "", "recover an existing store directory, print what was found, and exit")
		keep   = flag.Bool("keep", false, "keep per-point store directories (for post-mortem)")
	)
	flag.Parse()
	if *points < 1 {
		fmt.Fprintf(os.Stderr, "picl-crash: -points %d: want at least 1\n", *points)
		os.Exit(2)
	}

	if *verify != "" {
		img, info, err := storage.RecoverDir(*verify)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: marker epoch %d, %d blocks read (%d log bytes past them dropped), %d entries applied over %d blocks, %d live lines\n",
			*verify, info.Marker, info.BlocksRead, info.TornBytes, info.Applied, info.Scanned, img.Len())
		return
	}

	if *child != "" {
		runChild(*child, crashplan.Splitmix64(*seed))
		return
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp("", "picl-crash")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !*keep {
		defer os.RemoveAll(work)
	}

	failures := 0
	for i := 0; i < *points; i++ {
		pointSeed := *seed + uint64(i)
		dir := filepath.Join(work, fmt.Sprintf("point%04d", i))
		cmd := exec.Command(self, "-child", dir, "-seed", fmt.Sprint(pointSeed))
		out, _ := cmd.CombinedOutput()
		if !diedBySIGKILL(cmd) {
			failures++
			fmt.Printf("point %3d: FAIL: child did not die by SIGKILL (%v)\n          replay: picl-crash -points 1 -seed %d\n%s",
				i, cmd.ProcessState, pointSeed, out)
			continue
		}
		if msg := verifyPoint(dir, crashplan.Splitmix64(pointSeed)); msg != "" {
			failures++
			fmt.Printf("point %3d: FAIL: %s\n          replay: picl-crash -points 1 -seed %d\n", i, msg, pointSeed)
			continue
		}
		if !*keep {
			os.RemoveAll(dir)
		}
	}

	if failures > 0 {
		fmt.Printf("\n%d/%d crash points FAILED recovery verification\n", failures, *points)
		os.Exit(1)
	}
	fmt.Printf("all %d SIGKILL crash points recovered bit-exactly\n", *points)
}
