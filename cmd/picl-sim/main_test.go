package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildOnce compiles the picl-sim binary once for all smoke tests.
var (
	buildOnce sync.Once
	buildDir  string
	binPath   string
	buildErr  error
)

// TestMain removes the binary the smoke tests built.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func simBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "picl-sim-smoke")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(buildDir, "picl-sim")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// run executes the binary and returns stdout, stderr, and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(simBin(t), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return stdout.String(), stderr.String(), code
}

// tiny is a sub-second run: 2 epochs at 1/256 scale.
var tiny = []string{"-bench", "gcc", "-epochs", "2", "-factor", "256", "-j", "1"}

func TestSmokeList(t *testing.T) {
	out, _, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, want := range []string{"schemes:", "picl", "benchmarks:", "gcc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeRunGolden(t *testing.T) {
	out, _, code := run(t, tiny...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"scheme        picl", "commits       2", "undo log", "normalized execution time vs ideal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	again, _, _ := run(t, tiny...)
	if out != again {
		t.Fatalf("stdout not reproducible across runs:\n--- first ---\n%s--- second ---\n%s", out, again)
	}
}

func TestSmokeBadMixExits2(t *testing.T) {
	_, stderr, code := run(t, "-mix", "99")
	if code != 2 {
		t.Fatalf("bad mix exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "out of range") {
		t.Fatalf("stderr missing range message: %s", stderr)
	}
}

// TestSmokeBadFlagsExit2: flags that would hang the run, print NaN,
// build a cache geometry that cannot exist or record nothing exit 2
// before any work.
func TestSmokeBadFlagsExit2(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-factor -4", "scale factor -4: want a positive number"},
		{"-factor 0", "scale factor 0: want a positive number"},
		{"-factor 100", `scale factor 100: 1-core hierarchy: cache "l2": set count 5 not a power of two`},
		{"-factor 200 -mix 0", `scale factor 200: 8-core hierarchy: cache "llc": set count 163 not a power of two`},
		{"-epochs -1", "-1 epochs: want at least 1"},
		{"-epochs 0", "0 epochs: want at least 1"},
		{"-factor 1024 -epochs 4611686018427387904", "4611686018427387904 epochs of 29296 instructions: the run length overflows 64 bits"},
		{"-record x.trace -n 0", "-n 0"},
		{"-trace x.json -trace-cap 0", "-trace-cap 0"},
	} {
		out, stderr, code := run(t, strings.Fields(c.args)...)
		if code != 2 || out != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 with %q", c.args, code, out, stderr, c.want)
		}
	}
}

func TestSmokeMetrics(t *testing.T) {
	out, _, code := run(t, append([]string{"-metrics"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"# TYPE picl_cycles counter", "picl_commits 2", "picl_nvm_ops_"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeTraceParallelIdentical is the tentpole acceptance check: the
// -trace export is valid Chrome trace_event JSON and its bytes do not
// depend on the worker-pool width.
func TestSmokeTraceParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	j1, j8 := filepath.Join(dir, "j1.json"), filepath.Join(dir, "j8.json")
	if _, stderr, code := run(t, "-bench", "gcc", "-epochs", "2", "-factor", "256", "-j", "1", "-trace", j1); code != 0 {
		t.Fatalf("-j 1 exit %d: %s", code, stderr)
	}
	if _, stderr, code := run(t, "-bench", "gcc", "-epochs", "2", "-factor", "256", "-j", "8", "-trace", j8); code != 0 {
		t.Fatalf("-j 8 exit %d: %s", code, stderr)
	}
	a, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(j8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("-trace output differs between -j 1 and -j 8")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Fatalf("trace has only %d records", len(doc.TraceEvents))
	}
}
