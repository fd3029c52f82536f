package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// simd is the picl-simd binary TestMain builds for serve-mixed.
var simd string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		panic(err)
	}
	simd = filepath.Join(dir, "picl-simd")
	build := exec.Command("go", "build", "-o", simd, "picl/cmd/picl-simd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building picl-simd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runQuick runs one quick workload in process and returns its exit
// status, the report it wrote, and its parsed last stdout line.
func runQuick(t *testing.T, extra ...string) (int, *Report, resultLine) {
	t.Helper()
	out := t.TempDir()
	args := append([]string{"-seconds", "1", "-quick", "-out", out, "-simd", simd}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	var line resultLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	paths, _ := filepath.Glob(filepath.Join(out, "*-trace?.json"))
	if len(paths) != 1 {
		t.Fatalf("want one report in %s, got %v", out, paths)
	}
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{}
	if err := json.Unmarshal(b, rep); err != nil {
		t.Fatal(err)
	}
	return code, rep, line
}

func checkMetrics(t *testing.T, where string, got map[string]resultValue, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		v, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", where, name)
		case v.Unit != unit:
			t.Errorf("%s: metric %s unit %q, want %q", where, name, v.Unit, unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", where, name, v.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", where, len(got), len(want))
	}
}

// TestQuickEveryMetric runs every workload at quick size and checks that
// every end-to-end metric appears on the last line, and every named one
// the workload reports in its report, with its unit as a finite number;
// and that a traced run reports every per-layer metric the same way.
func TestQuickEveryMetric(t *testing.T) {
	e2e := map[string]string{}
	for _, d := range endToEnd {
		e2e[d.name] = d.unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, rep, line := runQuick(t, "-workload", w.name, "-seed", "1")
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("exit %d, result %+v, checks %+v", code, line, rep.Checks)
			}
			checkMetrics(t, w.name, line.Metrics, e2e)
			want, got := map[string]string{}, map[string]resultValue{}
			for _, d := range named {
				if d.reports(w.name) {
					want[d.name] = d.unit
				}
			}
			for name, m := range rep.Named {
				if m.Skipped == "" {
					got[name] = resultValue{Value: m.Value, Unit: m.Unit}
				}
			}
			checkMetrics(t, w.name+" named", got, want)
		})
	}
	t.Run("traced", func(t *testing.T) {
		layers := map[string]string{}
		for _, d := range perLayer {
			layers[d.name] = d.unit
		}
		code, rep, line := runQuick(t, "-workload", "durable-commit", "-seed", "1", "-trace", "1")
		if code != 0 || !line.Correct {
			t.Fatalf("exit %d, checks %+v", code, rep.Checks)
		}
		checkMetrics(t, "traced", line.Metrics, layers)
		for _, d := range perLayer {
			if m := rep.Layers[d.name]; m.Moves != d.moves {
				t.Errorf("layer %s moves %q, want %q", d.name, m.Moves, d.moves)
			}
		}
		if _, err := os.Stat(rep.SpanFile); err != nil || rep.Spans == 0 {
			t.Errorf("span file %q (%d spans): %v", rep.SpanFile, rep.Spans, err)
		}
	})
}

// TestCorruptGoldenFails checks that a wrong golden value is a failed
// check: it counts in failed_frac and makes the exit status non-zero.
func TestCorruptGoldenFails(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	g.SimGCC["seed 1, 2 epochs"] = strings.Repeat("0", 64)
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	orig := goldenJSON
	goldenJSON = b
	t.Cleanup(func() { goldenJSON = orig })
	code, rep, line := runQuick(t, "-workload", "sim-gcc", "-seed", "1")
	if code == 0 || line.Correct || line.Failed == 0 {
		t.Errorf("corrupt golden: exit %d, result correct=%v failed=%d", code, line.Correct, line.Failed)
	}
	if ff := rep.Named["failed_frac"].Value; ff <= 0 {
		t.Errorf("failed_frac = %v, want > 0", ff)
	}
}

// TestMeasureSpreadsSetups checks that measure sets up setupReps times,
// first before any operation and the rest spread over the budget, and
// runs operations until the budget is spent.
func TestMeasureSpreadsSetups(t *testing.T) {
	const budget = 90 * time.Millisecond
	start := time.Now()
	var events []string
	var setupAt []time.Duration
	setups, err := measure(budget, func(i int) (time.Duration, error) {
		events = append(events, "setup")
		setupAt = append(setupAt, time.Since(start))
		return time.Duration(i+1) * time.Millisecond, nil
	}, func() error {
		events = append(events, "op")
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(setups) != setupReps || setups[0] != 0.001 || setups[setupReps-1] != float64(setupReps)/1000 {
		t.Fatalf("setup times %v, want 0.001 .. %v", setups, float64(setupReps)/1000)
	}
	if events[0] != "setup" || !slices.Contains(events, "op") {
		t.Errorf("events %v, want a set-up first and some ops", events)
	}
	for i, at := range setupAt {
		if due := time.Duration(i) * budget / setupReps; at < due {
			t.Errorf("set-up %d at %v, before its time %v", i, at, due)
		}
	}
	if elapsed := time.Since(start); elapsed < budget {
		t.Errorf("measure returned after %v, before the budget %v", elapsed, budget)
	}
}

// TestClosedLoopEveryRequestOnce checks that concurrent workers send each
// request exactly once, each after the answer to their previous one.
func TestClosedLoopEveryRequestOnce(t *testing.T) {
	var mu sync.Mutex
	sent := map[int]int{}
	busy := map[int]bool{}
	samples := closedLoop(200, serveConns, func(conn, i int) error {
		mu.Lock()
		sent[i]++
		if busy[conn] {
			t.Errorf("connection %d sent request %d before its last answer", conn, i)
		}
		busy[conn] = true
		mu.Unlock()
		time.Sleep(10 * time.Microsecond)
		mu.Lock()
		busy[conn] = false
		mu.Unlock()
		return nil
	})
	for i, s := range samples {
		if sent[i] != 1 {
			t.Errorf("request %d sent %d times", i, sent[i])
		}
		if s.Done.Before(s.Sent) || s.Err != nil {
			t.Errorf("request %d: %+v", i, s)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "x", unit: "us", better: "lower", bound: 0.10}
	higher := metricDef{name: "y", unit: "1/s", better: "higher", bound: 0.10}
	exact := metricDef{name: "failed_frac", unit: "frac", better: "lower"}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "within"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "better"},
		{lower, steady, []float64{60, 100, 140, 100, 150}, "unresolved"},
		{lower, []float64{50, 100, 150, 100, 60}, []float64{200, 210, 205, 220, 230}, "worse"},
		{exact, []float64{0, 0, 0}, []float64{0, 0, 0}, "within"},
		{exact, []float64{0, 0, 0}, []float64{0, 0.001, 0}, "worse"},
		{exact, []float64{0, 0.001, 0}, []float64{0, 0, 0}, "better"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.better, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// describes the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end_to_end metrics, program has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if i < len(endToEnd) {
			d := endToEnd[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("end_to_end %d is %+v, program has %+v", i, m, d)
			}
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("%d per_layer metrics, program has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if i < len(perLayer) {
			d := perLayer[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("per_layer %d is %+v, program has %+v", i, m, d)
			}
		}
	}
}
