// Command picl-fuzz is the mass crash-fuzz campaign: thousands of
// seeded fault schedules, crash points, schemes, and ACS gaps swept in
// parallel, every survivor verified against a golden replay and every
// recovery checked bit-exactly. Any failure minimizes to one replayable
// seed, which the campaign prints as a single-point repro command.
//
// Two campaign modes, both run by default:
//
//   - sim: in-simulator crash sweeps. Each point builds a small
//     functional machine (scheme and ACS gap drawn from the seed), runs
//     a seeded workload, pulls the plug at a seed-chosen instant, and
//     requires recovery to match the golden end-of-epoch snapshot
//     (sim.CrashAndRecover's internal bit-exact check).
//
//   - storage: durable-store fault injection. Each point opens a real
//     store directory wrapped in the deterministic fault injector
//     (internal/storage/fault), drives the shared crashplan workload
//     through the full facade, and verifies the directory left behind:
//     power cuts and degradations must recover bit-exactly to the epoch
//     the marker names, whatever shape the cut left the unsynced log
//     blocks in; injected bit rot must surface as a hard corruption
//     error, never pass silently; a torn commit append, in order or out
//     of it, must recover the last completed commit; stale
//     *.tmp files must be swept; and a degraded machine must keep
//     serving reads and stats while writes fail (graceful degradation).
//
// Usage:
//
//	picl-fuzz                          # 200 points per mode, seed 2018
//	picl-fuzz -points 1000 -j 16
//	picl-fuzz -mode storage -points 1 -seed 2217   # replay one failure
//	PICL_FUZZ_LONG=1 picl-fuzz         # nightly-size campaign (x10 points)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"picl"
	"picl/internal/cache"
	"picl/internal/core"
	"picl/internal/crashplan"
	"picl/internal/exp"
	"picl/internal/mem"
	"picl/internal/sim"
	"picl/internal/storage"
	"picl/internal/storage/fault"
	"picl/internal/trace"
	"picl/internal/undolog"
)

func main() {
	var (
		mode    = flag.String("mode", "all", "campaign mode: all, sim, or storage")
		points  = flag.Int("points", 200, "points per mode; point i uses seed+i")
		seed    = flag.Uint64("seed", 2018, "base seed")
		jobs    = flag.Int("j", 0, "parallel workers (0 = all cores)")
		schemes = flag.String("schemes", "picl,journal,frm", "schemes the sim sweep draws from")
		gaps    = flag.String("gaps", "0,1,3", "ACS gaps both sweeps draw from")
		keep    = flag.Bool("keep", false, "keep per-point store directories (for post-mortem)")
	)
	flag.Parse()

	// PICL_FUZZ_LONG scales the campaign to nightly size unless the
	// caller pinned -points explicitly.
	pointsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "points" {
			pointsSet = true
		}
	})
	if os.Getenv("PICL_FUZZ_LONG") == "1" && !pointsSet {
		*points *= 10
	}

	schemeList := splitList(*schemes)
	gapList, err := parseInts(*gaps)
	if err != nil || len(schemeList) == 0 || len(gapList) == 0 {
		fmt.Fprintf(os.Stderr, "bad -schemes/-gaps: %v\n", err)
		os.Exit(2)
	}

	r := exp.NewRunner(exp.Scale{})
	r.Jobs = *jobs

	failures := 0
	if *mode == "all" || *mode == "sim" {
		failures += runSimCampaign(r, *seed, *points, schemeList, gapList)
	}
	if *mode == "all" || *mode == "storage" {
		failures += runStorageCampaign(r, *seed, *points, gapList, *keep)
	}
	if *mode != "all" && *mode != "sim" && *mode != "storage" {
		fmt.Fprintf(os.Stderr, "unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Printf("\n%d campaign points FAILED\n", failures)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// smallHierarchy is the miniature cache used by both sweeps: big enough
// to cache, small enough that every point sees evictions.
func smallHierarchy(cores int) *cache.HierarchyConfig {
	return &cache.HierarchyConfig{
		Cores: cores,
		L1:    cache.Config{Name: "l1", Size: 1 << 10, Ways: 4, Latency: 1},
		L2:    cache.Config{Name: "l2", Size: 8 << 10, Ways: 8, Latency: 4},
		LLC:   cache.Config{Name: "llc", Size: cores * (32 << 10), Ways: 8, Latency: 30},
	}
}

// runSimCampaign sweeps in-simulator crash points. Returns the failure
// count.
func runSimCampaign(r *exp.Runner, base uint64, n int, schemes []string, gaps []int) int {
	fails := make([]string, n)
	perScheme := make([]map[string]int, n)
	_ = r.ForEach(n, func(i int) error {
		seed := base + uint64(i)
		if msg, scheme := runSimPoint(seed, schemes, gaps); msg != "" {
			fails[i] = fmt.Sprintf("sim point %d: FAIL: %s\n          replay: picl-fuzz -mode sim -points 1 -seed %d", i, msg, seed)
		} else {
			perScheme[i] = map[string]int{scheme: 1}
		}
		return nil
	})
	total := map[string]int{}
	failures := 0
	for i := range fails {
		if fails[i] != "" {
			failures++
			fmt.Println(fails[i])
			continue
		}
		for k, v := range perScheme[i] {
			total[k] += v
		}
	}
	var cov []string
	for _, s := range schemes {
		cov = append(cov, fmt.Sprintf("%s=%d", s, total[s]))
	}
	fmt.Printf("sim: %d/%d crash points recovered bit-exactly (%s)\n", n-failures, n, strings.Join(cov, " "))
	return failures
}

// runSimPoint runs one in-simulator crash point; returns a failure
// description ("" on success) and the scheme it exercised.
func runSimPoint(seed uint64, schemes []string, gaps []int) (string, string) {
	h := crashplan.Splitmix64(seed ^ 0x51)
	scheme := schemes[h%uint64(len(schemes))]
	h = crashplan.Splitmix64(h)
	gap := gaps[h%uint64(len(gaps))]
	h = crashplan.Splitmix64(h)
	wseed := h | 1
	cfg := sim.Config{
		Scheme:       scheme,
		PiCL:         core.Config{ACSGap: gap, BufferEntries: 4},
		Workloads:    []trace.Generator{trace.NewUniform("u", 0, 2000, 0.3, 4, wseed)},
		Hierarchy:    smallHierarchy(1),
		EpochInstr:   5_000,
		InstrPerCore: 25_000,
		Functional:   true,
		KeepGolden:   true,
	}
	m, err := sim.New(cfg)
	if err != nil {
		return fmt.Sprintf("build %s: %v", scheme, err), scheme
	}
	m.Run()
	// Crash at a seed-chosen fraction of the run's final time, including
	// mid-flight of queued writes.
	h = crashplan.Splitmix64(h)
	t := m.Now() * (h % 1000) / 1000
	if _, err := m.CrashAndRecover(t); err != nil {
		return fmt.Sprintf("%s gap=%d crash@%d: %v", scheme, gap, t, err), scheme
	}
	return "", scheme
}

// runStorageCampaign sweeps fault-injected durable stores. Returns the
// failure count.
func runStorageCampaign(r *exp.Runner, base uint64, n int, gaps []int, keep bool) int {
	work, err := os.MkdirTemp("", "picl-fuzz")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !keep {
		defer os.RemoveAll(work)
	}
	fails := make([]string, n)
	counts := make([]fault.Counts, n)
	outcomes := make([]string, n)
	_ = r.ForEach(n, func(i int) error {
		seed := base + uint64(i)
		dir := filepath.Join(work, fmt.Sprintf("seed%d", seed))
		msg, outcome, c := runStoragePoint(dir, seed, gaps)
		counts[i], outcomes[i] = c, outcome
		if msg != "" {
			fails[i] = fmt.Sprintf("storage point %d: FAIL: %s\n          replay: picl-fuzz -mode storage -points 1 -seed %d", i, msg, seed)
		} else if !keep {
			os.RemoveAll(dir)
		}
		return nil
	})
	var agg fault.Counts
	byOutcome := map[string]int{}
	failures := 0
	for i := range fails {
		agg.Add(counts[i])
		byOutcome[outcomes[i]]++
		if fails[i] != "" {
			failures++
			fmt.Println(fails[i])
		}
	}
	var oc []string
	for _, k := range []string{"clean", "cut", "degraded", "rot-detected"} {
		oc = append(oc, fmt.Sprintf("%s=%d", k, byOutcome[k]))
	}
	fmt.Printf("storage: %d/%d fault schedules verified (%s)\n", n-failures, n, strings.Join(oc, " "))
	fmt.Printf("storage: injected %v\n", agg)
	return failures
}

// profileFor derives the point's fault profile from its seed: most
// points schedule a power cut over the default transient mix, some get
// a permanent sync death (the degraded-mode path), the rest run
// retryable transients only and should survive to a clean close.
func profileFor(seed uint64) fault.Profile {
	h := crashplan.Splitmix64(seed ^ 0xF00D)
	switch h % 8 {
	case 5:
		p := fault.Transient()
		p.PermanentSyncFrom = 30 + crashplan.Splitmix64(h)%300
		return p
	case 6, 7:
		return fault.Transient()
	default:
		p := fault.Default()
		p.CrashAtMin = 20
		p.CrashWindow = 400
		return p
	}
}

// runStoragePoint drives one fault schedule through a real durable
// store and verifies everything the campaign promises. It returns a
// failure description ("" on success), an outcome tag for coverage
// reporting, and the injection counts.
func runStoragePoint(dir string, seed uint64, gaps []int) (string, string, fault.Counts) {
	h := crashplan.Splitmix64(seed ^ 0x6A7)
	gap := gaps[h%uint64(len(gaps))]
	inj := fault.New(seed, profileFor(seed))

	cfg := picl.DefaultConfig()
	cfg.ACSGap = gap
	cfg.BufferEntries = 4
	m, err := picl.Open(dir, picl.WithSmallCaches(), picl.WithConfig(cfg), picl.WithStoreWrapper(inj))
	if err != nil {
		return fmt.Sprintf("open: %v", err), "open-fail", inj.Counts()
	}

	// Drive the shared crashplan workload, tracking the application's
	// view (cur) and a golden snapshot per sealed epoch.
	ops, _ := crashplan.Plan(crashplan.Splitmix64(seed))
	cur := mem.NewImage()
	snaps := []*mem.Image{cur.Clone()}
	var opErr error
	for _, o := range ops {
		if err := m.Write(o.Line*64, o.Val); err != nil {
			opErr = err
			break
		}
		cur.Write(mem.LineAddr(o.Line), mem.Word(o.Val))
		if o.Commit {
			if err := m.CommitEpoch(); err != nil {
				opErr = err
				break
			}
			snaps = append(snaps, cur.Clone())
		}
		if o.Sync {
			if _, err := m.Sync(); err != nil {
				opErr = err
				break
			}
			snaps = append(snaps, cur.Clone())
		}
	}

	outcome := "clean"
	switch {
	case opErr != nil && errors.Is(opErr, storage.ErrPowerLost):
		outcome = "cut"
	case opErr != nil:
		outcome = "degraded"
		// Graceful-degradation contract: the machine is read-only, not
		// bricked. Reads serve the coherent cached state, stats work,
		// writes keep failing with ErrBackend.
		if !errors.Is(opErr, picl.ErrBackend) {
			return fmt.Sprintf("degraded with %v, want ErrBackend", opErr), outcome, inj.Counts()
		}
		if !m.Degraded() {
			return "write failed but Degraded() = false", outcome, inj.Counts()
		}
		for l := uint64(0); l < 48; l++ {
			got, err := m.Read(l * 64)
			if err != nil {
				return fmt.Sprintf("degraded read of line %d: %v", l, err), outcome, inj.Counts()
			}
			if want := uint64(cur.Read(mem.LineAddr(l))); got != want {
				return fmt.Sprintf("degraded read of line %d = %d, want %d", l, got, want), outcome, inj.Counts()
			}
		}
		if s := m.Stats(); s.Scheme != "picl" {
			return "degraded Stats() broken", outcome, inj.Counts()
		}
		if err := m.Write(0, 1); !errors.Is(err, picl.ErrBackend) {
			return fmt.Sprintf("degraded write = %v, want ErrBackend", err), outcome, inj.Counts()
		}
	case inj.Crashed():
		// The cut fired on the very tail of the workload before any op
		// could observe it.
		outcome = "cut"
	}
	if outcome == "clean" {
		// Close force-persists the tail epoch; its state is the full
		// replay. Close may itself degrade or hit the cut — the marker
		// bound check below covers every case.
		snaps = append(snaps, crashplan.Final(ops))
	}
	_ = m.Close() // errors expected after a cut or degradation

	// Verify the directory left behind.
	c := inj.Counts()
	img, info, err := storage.RecoverDir(dir)
	if err != nil {
		// Injected bit rot in a named log block or image record MUST
		// surface as hard corruption — a detected, reported failure,
		// never a silent wrong answer.
		if c.RotBits > 0 && errors.Is(err, undolog.ErrCorruptBlock) ||
			c.ImgRotBits > 0 && errors.Is(err, storage.ErrCorruptImage) {
			return "", "rot-detected", c
		}
		return fmt.Sprintf("recovery error: %v (%v)", err, c), outcome, c
	}
	if c.RotBits > 0 && outcome != "degraded" {
		// Rot with a successful recovery is only legal if flips cancelled
		// out (same bit hit twice) — the bit-exact check below still
		// applies. Under degradation the log may have frozen before the
		// rotted block was covered by the marker scan; fall through.
		_ = c
	}
	if int(info.Marker) >= len(snaps) {
		return fmt.Sprintf("marker %d but only %d epochs sealed (%v)", info.Marker, len(snaps)-1, c), outcome, c
	}
	if want := snaps[info.Marker]; !img.Equal(want) {
		return fmt.Sprintf("image differs from golden epoch %d at lines %v (blocks=%d applied=%d torn=%dB, %v)",
			info.Marker, img.Diff(want, 5), info.BlocksRead, info.Applied, info.TornBytes, c), outcome, c
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		return fmt.Sprintf("stale tmp files survive recovery: %v", tmps), outcome, c
	}
	return "", outcome, c
}
