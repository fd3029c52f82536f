package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric is one reported number. A metric that could not be measured
// carries Skipped instead of a value; nothing is dropped silently.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Skipped string  `json:"skipped,omitempty"`
	// Source names the workload whose run measured a per-layer metric
	// (a traced run fills layers its own workload does not reach from
	// the other workloads' quick probes).
	Source string `json:"source,omitempty"`
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string `json:"moves,omitempty"`
}

// Check is one output-correctness check.
type Check struct {
	Name   string `json:"name"`
	Status string `json:"status"` // "ok", "unchecked" or "FAIL"
	Detail string `json:"detail,omitempty"`
}

// ReconRow is one line of the sim-gcc reconciliation table: a layer's
// attributed host time per simulated instruction.
type ReconRow struct {
	Layer       string  `json:"layer"`
	NsPerInstr  float64 `json:"ns_per_instr"`
	Description string  `json:"description"`
}

// Host describes the machine a report was measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	TmpDir     string `json:"tmpdir"`
	TmpFS      string `json:"tmpdir_fs"`
}

// Report is the JSON document one benchmark run writes.
type Report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Quick     bool              `json:"quick,omitempty"`
	Host      Host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []Check           `json:"checks"`
	EndToEnd  map[string]Metric `json:"end_to_end,omitempty"` // endToEnd
	Named     map[string]Metric `json:"named,omitempty"`      // named
	Info      map[string]Metric `json:"info,omitempty"`       // context, never gated
	Layers    map[string]Metric `json:"layers,omitempty"`
	Reconcile []ReconRow        `json:"reconcile,omitempty"`
	SpanFile  string            `json:"span_file,omitempty"`
	Spans     int               `json:"spans,omitempty"`
	Dropped   int               `json:"spans_dropped,omitempty"`
}

// check records one correctness check: a failure counts as one failed
// attempt, so it shows in failed_frac and the exit status.
func (r *Report) check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.Failed++
	}
	r.Attempted++
	r.Checks = append(r.Checks, Check{Name: name, Status: status, Detail: detail})
}

// unchecked records a check that has no reference to compare against.
func (r *Report) unchecked(name, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Status: "unchecked", Detail: detail})
}

// ops adds a workload's operation tally to the attempt counts.
func (r *Report) ops(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// named records one of the named end-to-end metrics.
func (r *Report) named(name string, v float64, unit string) {
	if r.Named == nil {
		r.Named = map[string]Metric{}
	}
	r.Named[name] = Metric{Value: v, Unit: unit}
}

// info records a number that gives context to the gated ones.
func (r *Report) info(name string, v float64, unit string) {
	if r.Info == nil {
		r.Info = map[string]Metric{}
	}
	r.Info[name] = Metric{Value: v, Unit: unit}
}

// setE2E fills the end-to-end metrics every workload reports: the median
// of its set-up times (s), its operation latency (µs, the statistic the
// workload chose) and its memory: the median resident set size over the
// run as rss_mb, and the peak beside it as a named metric.
func (r *Report) setE2E(setups []float64, opUs float64, ops int, rss, peak Metric) {
	r.EndToEnd = map[string]Metric{
		"setup_s":       {Value: quantile(setups, 0.5), Unit: "s"},
		"op_latency_us": {Value: opUs, Unit: "us"},
		"rss_mb":        rss,
	}
	if r.Named == nil {
		r.Named = map[string]Metric{}
	}
	r.Named["peak_rss_mb"] = peak
	r.info("operations_timed", float64(ops), "count")
}

// layer records one per-layer metric measured by workload src.
func layer(l map[string]Metric, name string, v float64, unit, src string) {
	l[name] = Metric{Value: v, Unit: unit, Source: src}
}

// resultLine is the last line of standard output: the contract between
// the benchmark and whoever runs it.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *Report) resultLine() resultLine {
	src := r.EndToEnd
	if r.Traced {
		src = r.Layers
	}
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]resultValue{}}
	for name, m := range src {
		if m.Skipped == "" {
			out.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// print writes every metric by name and unit, then the checks.
func (r *Report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, sec := range []struct {
		title string
		m     map[string]Metric
	}{{"end-to-end", r.EndToEnd}, {"named end-to-end", r.Named}, {"info (not gated)", r.Info}, {"per-layer", r.Layers}} {
		if len(sec.m) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", sec.title)
		for _, name := range sortedKeys(sec.m) {
			m := sec.m[name]
			if m.Skipped != "" {
				fmt.Fprintf(w, "    %-34s skipped: %s\n", name, m.Skipped)
				continue
			}
			note := ""
			if m.Source != "" && m.Source != r.Workload {
				note = "  (" + m.Source + ")"
			}
			if m.Moves != "" {
				note += "  moves " + m.Moves
			}
			fmt.Fprintf(w, "    %-34s %14.6g %-12s%s\n", name, m.Value, m.Unit, note)
		}
	}
	if len(r.Reconcile) > 0 {
		fmt.Fprintln(w, "  reconciliation (host ns per simulated instruction):")
		for _, row := range r.Reconcile {
			fmt.Fprintf(w, "    %-22s %9.3f  %s\n", row.Layer, row.NsPerInstr, row.Description)
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check %-40s %s %s\n", c.Name, c.Status, c.Detail)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// procStatusMB reads one kB field of this process's (pid 0) or another's
// /proc status, in MB.
func procStatusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s line %q", field, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no %s", path, field)
}

// peakRSS is a process's high-water resident set size.
func peakRSS(pid int) Metric {
	mb, err := procStatusMB(pid, "VmHWM")
	if err != nil {
		return Metric{Unit: "MB", Skipped: err.Error()}
	}
	return Metric{Value: mb, Unit: "MB"}
}

// rssEvery is how often an rssSampler reads the resident set size.
const rssEvery = 50 * time.Millisecond

// rssSampler reads a process's resident set size every rssEvery until
// it is stopped. rss_mb is the median reading: the peak (VmHWM) of a Go
// process this small moves by a megabyte or two with where the
// collector's cycles fall, the median by far less.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
	err        error
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := procStatusMB(pid, "VmRSS"); err != nil {
				s.err = err
			} else {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler, waits for it, and returns its median reading.
func (s *rssSampler) median() Metric {
	close(s.stop)
	<-s.done
	if len(s.mb) == 0 {
		return Metric{Unit: "MB", Skipped: fmt.Sprintf("no RSS reading: %v", s.err)}
	}
	return Metric{Value: quantile(s.mb, 0.5), Unit: "MB"}
}

func hostInfo() Host {
	h := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", TmpDir: os.TempDir(), TmpFS: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The filesystem of the longest mount point containing TMPDIR.
	if b, err := os.ReadFile("/proc/mounts"); err == nil {
		tmp, _ := filepath.Abs(h.TmpDir)
		best := -1
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (tmp == mp || strings.HasPrefix(tmp, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
				best, h.TmpFS = len(mp), f[2]
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
