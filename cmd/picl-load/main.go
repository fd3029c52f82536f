// Command picl-load is the in-repo load driver for picl-simd: it fires
// a seeded, deterministic mix of /run requests at a daemon and verifies
// that every response for a cell carries byte-identical bytes (the
// serving layer's contract: responses are a pure function of the
// RunKey, whatever cache state served them).
//
// Output discipline mirrors the simulator itself: everything derived
// from the deterministic plan — the per-cell request counts, per-cell
// digests, and the combined plan digest — prints on stdout and is
// byte-identical for a given (seed, n, cells) at any concurrency and
// against any number of replicas. Wall-clock results (req/s, latency
// percentiles) go to stderr and the JSON report; nothing gates on them
// (benchmark/ owns timing). -check gates the digests against the model
// registry (internal/golden), under entries named by the run's scale,
// epochs, seed, request count and cells.
//
// Usage:
//
//	picl-load -addr http://127.0.0.1:7097 -n 1000 -c 8 -seed 1
//	picl-load -spawn bin/picl-simd -n 1000 -c 8 -seed 1 -check
//	picl-load -spawn bin/picl-simd -spawn-args "-fault-seed 7" -soak 60s
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"picl/internal/exp"
	"picl/internal/golden"
)

// Report is the -out JSON report: the run's configuration, its
// digests, and its wall-clock numbers.
type Report struct {
	Factor      float64           `json:"factor"`
	Epochs      int               `json:"epochs"`
	Seed        int64             `json:"seed"`
	Requests    int               `json:"requests"`
	Concurrency int               `json:"concurrency"`
	Cells       []string          `json:"cells"`
	CellDigests map[string]string `json:"cell_digests"`
	PlanDigest  string            `json:"plan_digest"`
	ReqsPerSec  float64           `json:"reqs_per_sec"`
	P50us       float64           `json:"p50_us"`
	P90us       float64           `json:"p90_us"`
	P99us       float64           `json:"p99_us"`
}

// entries names the run's digests as the registry does: one entry per
// cell, and one for the plan, keyed by everything that decides it.
func (r Report) entries() golden.Registry {
	scale := fmt.Sprintf("1/%g epochs=%d", r.Factor, r.Epochs)
	reg := golden.Registry{}
	for _, c := range r.Cells {
		reg["serve "+scale+" "+c] = r.CellDigests[c]
	}
	plan := fmt.Sprintf("load-plan %s seed=%d n=%d %s", scale, r.Seed, r.Requests, strings.Join(r.Cells, ","))
	reg[plan] = r.PlanDigest
	return reg
}

// gate checks a run's registry entries with verify — golden.Verify,
// which under `make golden` records them instead — and prints the
// verdict to w.
func gate(w io.Writer, entries golden.Registry, verify func(golden.Registry) []string) int {
	fails := verify(entries)
	for _, f := range fails {
		fmt.Fprintln(w, "picl-load: FAIL", f)
	}
	if len(fails) > 0 {
		return 1
	}
	fmt.Fprintln(w, "picl-load: check ok")
	return 0
}

type cellSpec struct {
	scheme, bench string
	epochs        int
}

func (c cellSpec) name() string { return c.scheme + "/" + c.bench }

func (c cellSpec) url(base string) string {
	return fmt.Sprintf("%s/run?scheme=%s&bench=%s&epochs=%d", base, c.scheme, c.bench, c.epochs)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "", "base URL of a running picl-simd (e.g. http://127.0.0.1:7097)")
		spawn     = flag.String("spawn", "", "path to a picl-simd binary to boot on an ephemeral port with a temp store (mutually exclusive with -addr)")
		spawnArgs = flag.String("spawn-args", "", "extra arguments for the spawned daemon, space-separated")
		n         = flag.Int("n", 1000, "requests in the timed phase")
		conc      = flag.Int("c", 8, "concurrent client connections")
		seed      = flag.Int64("seed", 1, "plan seed: the request mix is a pure function of it")
		schemes   = flag.String("schemes", "picl,journal", "schemes in the mix")
		benches   = flag.String("benches", "gcc,mcf", "benchmarks in the mix")
		epochs    = flag.Int("epochs", 2, "epochs per cell")
		factor    = flag.Float64("factor", 256, "daemon scale factor: the spawned daemon's, and the scale -check's registry entries name")
		out       = flag.String("out", "", "write the JSON report here")
		check     = flag.Bool("check", false, "gate the cell and plan digests against the model registry (internal/golden)")
		soak      = flag.Duration("soak", 0, "run for this long instead of -n requests (digest checks stay on; plan table off)")
	)
	flag.Parse()

	if (*addr == "") == (*spawn == "") {
		fmt.Fprintln(os.Stderr, "picl-load: exactly one of -addr or -spawn is required")
		return 2
	}
	if *conc < 1 {
		fmt.Fprintf(os.Stderr, "picl-load: -c %d: need at least one connection\n", *conc)
		return 2
	}
	if *n < 1 && *soak <= 0 {
		fmt.Fprintf(os.Stderr, "picl-load: -n %d: need at least one request (or -soak)\n", *n)
		return 2
	}
	scale, err := exp.ScaleOf(*factor, *epochs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "picl-load:", err)
		return 2
	}

	base := *addr
	if *spawn != "" {
		daemon, url, err := spawnDaemon(*spawn, *spawnArgs, *factor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "picl-load: spawn:", err)
			return 1
		}
		defer daemon.stop()
		base = url
	}

	var cells []cellSpec
	for _, sc := range strings.Split(*schemes, ",") {
		for _, b := range strings.Split(*benches, ",") {
			cells = append(cells, cellSpec{scheme: sc, bench: b, epochs: *epochs})
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].name() < cells[j].name() })

	client := &http.Client{
		Timeout: 5 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        *conc * 2,
			MaxIdleConnsPerHost: *conc * 2,
		},
	}

	// Warm phase: compute every distinct cell once, untimed, so the
	// measured phase exercises the serving path (warm hits), not the
	// simulator. Each warm body must carry the scale -factor and
	// -epochs name: a daemon booted at another scale serves other
	// digests, which -check would otherwise report as model drift.
	for _, c := range cells {
		_, _, body, err := fetch(client, c.url(base))
		if err == nil {
			err = sameScale(body, scale)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "picl-load: warming %s: %v\n", c.name(), err)
			return 1
		}
	}

	if *soak > 0 {
		return runSoak(client, base, cells, *conc, *seed, *soak)
	}

	// The plan: a pure function of (seed, n, cells).
	rng := rand.New(rand.NewSource(*seed))
	plan := make([]int, *n)
	for i := range plan {
		plan[i] = rng.Intn(len(cells))
	}

	digests := make([]string, *n)
	latencies := make([]time.Duration, *n)
	statuses := make([]int, *n)
	var firstErr error
	var errMu sync.Once

	idx := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				u := cells[plan[i]].url(base)
				r0 := time.Now()
				digest, status, _, err := fetch(client, u)
				latencies[i] = time.Since(r0)
				if err != nil {
					errMu.Do(func() { firstErr = fmt.Errorf("%s: %w", u, err) })
					continue
				}
				digests[i] = digest
				statuses[i] = status
			}
		}()
	}
	for i := 0; i < *n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(t0)
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "picl-load:", firstErr)
		return 1
	}

	// Digest consistency: every response for a cell must be identical.
	cellDigest := make(map[string]string)
	counts := make(map[string]int)
	statusCounts := make(map[int]int)
	for i, d := range digests {
		name := cells[plan[i]].name()
		counts[name]++
		statusCounts[statuses[i]]++
		if prev, ok := cellDigest[name]; !ok {
			cellDigest[name] = d
		} else if prev != d {
			fmt.Fprintf(os.Stderr, "picl-load: DIGEST MISMATCH for %s: %s vs %s (request %d)\n",
				name, prev[:16], d[:16], i)
			return 1
		}
	}
	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	planDigest := hex.EncodeToString(h.Sum(nil))

	// Deterministic stdout.
	fmt.Printf("picl-load: seed=%d requests=%d cells=%d\n", *seed, *n, len(cells))
	for _, c := range cells {
		fmt.Printf("cell %-16s requests=%-6d digest=%s\n", c.name(), counts[c.name()], cellDigest[c.name()])
	}
	codes := make([]int, 0, len(statusCounts))
	for code := range statusCounts {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Printf("status %d = %d\n", code, statusCounts[code])
	}
	fmt.Printf("plan digest: %s\n", planDigest)
	fmt.Println("digests consistent across all responses")

	// Wall-clock summary: stderr + report only.
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) float64 {
		return float64(sorted[int(float64(len(sorted)-1)*p)].Microseconds())
	}
	rep := Report{
		Factor: *factor, Epochs: *epochs, Seed: *seed, Requests: *n, Concurrency: *conc,
		CellDigests: cellDigest, PlanDigest: planDigest,
		ReqsPerSec: float64(*n) / elapsed.Seconds(),
		P50us:      pct(0.50), P90us: pct(0.90), P99us: pct(0.99),
	}
	for _, c := range cells {
		rep.Cells = append(rep.Cells, c.name())
	}
	fmt.Fprintf(os.Stderr, "picl-load: %.0f req/s over %v  p50=%.0fµs p90=%.0fµs p99=%.0fµs\n",
		rep.ReqsPerSec, elapsed.Round(time.Millisecond), rep.P50us, rep.P90us, rep.P99us)

	if *out != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "picl-load:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "picl-load: report written to %s\n", *out)
	}
	if *check {
		return gate(os.Stderr, rep.entries(), golden.Verify)
	}
	return 0
}

// runSoak hammers the daemon for the given duration. Digest consistency
// stays enforced per cell; counts are wall-clock dependent, so the
// summary goes to stderr and stdout carries only the verdict.
func runSoak(client *http.Client, base string, cells []cellSpec, conc int, seed int64, d time.Duration) int {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	cellDigest := make(map[string]string)
	total, failures := 0, 0
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for time.Now().Before(deadline) {
				c := cells[rng.Intn(len(cells))]
				digest, status, _, err := fetch(client, c.url(base))
				mu.Lock()
				total++
				if err != nil || status != http.StatusOK {
					failures++
				} else if prev, ok := cellDigest[c.name()]; !ok {
					cellDigest[c.name()] = digest
				} else if prev != digest {
					failures++
					fmt.Fprintf(os.Stderr, "picl-load: soak digest mismatch for %s\n", c.name())
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	health := "unknown"
	if resp, err := client.Get(base + "/healthz"); err == nil {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		health = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(os.Stderr, "picl-load: soak %v: %d requests, %d failures, health=%s\n",
		d, total, failures, health)
	if failures > 0 {
		fmt.Println("picl-load: soak FAILED")
		return 1
	}
	fmt.Println("picl-load: soak ok")
	return 0
}

// fetch GETs one /run URL and returns the response digest (verified
// against the body), status and body.
func fetch(client *http.Client, url string) (string, int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	if hdr := resp.Header.Get("X-Picl-Digest"); hdr != "" && hdr != digest {
		return "", resp.StatusCode, nil, fmt.Errorf("X-Picl-Digest %s does not match body %s", hdr[:16], digest[:16])
	}
	return digest, resp.StatusCode, body, nil
}

// sameScale checks a served body's RunKey against scale: its
// epochinstr and instr fields must be the ones the scale implies for a
// cell scale.Epochs long.
func sameScale(body []byte, scale exp.Scale) error {
	var cell struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &cell); err != nil {
		return fmt.Errorf("body carries no RunKey: %w", err)
	}
	fields := make(map[string]string)
	for _, f := range strings.Split(cell.Key, "|") {
		if k, v, ok := strings.Cut(f, "="); ok {
			fields[k] = v
		}
	}
	got := fmt.Sprintf("epochinstr=%s instr=%s", fields["epochinstr"], fields["instr"])
	want := fmt.Sprintf("epochinstr=%d instr=%d", scale.EpochInstr, uint64(scale.Epochs)*scale.EpochInstr)
	if got != want {
		return fmt.Errorf("scale mismatch: the daemon serves %s, but scale %s epochs=%d is %s",
			got, scale.Name, scale.Epochs, want)
	}
	return nil
}

// daemon is a spawned picl-simd child and the store directory it was
// booted on.
type daemon struct {
	cmd   *exec.Cmd
	store string
}

// stop SIGTERMs the daemon, waits for it to exit, and removes its store.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
		d.cmd.Wait()
	}
	os.RemoveAll(d.store)
}

// spawnDaemon boots bin on an ephemeral port with a temp store and
// waits for its "listening on" line.
func spawnDaemon(bin, extraArgs string, factor float64) (*daemon, string, error) {
	dir, err := os.MkdirTemp("", "picl-load-store")
	if err != nil {
		return nil, "", err
	}
	args := []string{"-addr", "127.0.0.1:0", "-store", dir, "-factor", fmt.Sprint(factor)}
	if extraArgs != "" {
		args = append(args, strings.Fields(extraArgs)...)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	d := &daemon{cmd: cmd, store: dir}
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		d.stop()
		return nil, "", err
	}
	sc := bufio.NewScanner(stdout)
	urlCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "[picl-simd]", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					select {
					case urlCh <- fields[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case url := <-urlCh:
		return d, url, nil
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, "", fmt.Errorf("daemon did not report a listen address within 30s")
	}
}
