package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"picl/internal/golden"
)

var (
	buildOnce sync.Once
	buildDir  string
	loadBin   string
	simdBin   string
	buildErr  error
)

// TestMain removes the binaries the smoke tests built.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// bins compiles picl-load and picl-simd once for every smoke test.
func bins(t *testing.T) (string, string) {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "picl-load-smoke")
		if buildErr != nil {
			return
		}
		loadBin = filepath.Join(buildDir, "picl-load")
		simdBin = filepath.Join(buildDir, "picl-simd")
		if out, err := exec.Command("go", "build", "-o", loadBin, ".").CombinedOutput(); err != nil {
			buildErr = err
			loadBin = string(out)
			return
		}
		if out, err := exec.Command("go", "build", "-o", simdBin, "../picl-simd").CombinedOutput(); err != nil {
			buildErr = err
			simdBin = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build: %v\n%s%s", buildErr, loadBin, simdBin)
	}
	return loadBin, simdBin
}

// runLoad runs picl-load with TMPDIR set to tmp (when not empty).
func runLoad(t *testing.T, tmp string, args ...string) (string, string, int) {
	t.Helper()
	lb, _ := bins(t)
	cmd := exec.Command(lb, args...)
	if tmp != "" {
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	}
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

// assertEmpty fails unless dir holds nothing.
func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("picl-load left %d entries in TMPDIR, first %s", len(left), left[0].Name())
	}
}

var tiny = []string{"-n", "20", "-c", "4", "-seed", "3", "-factor", "1024", "-epochs", "2"}

// TestSmokeLoadGolden: a fixed seed produces a byte-identical summary
// table on stdout, run to run — the whole point of splitting the
// deterministic plan from the wall-clock numbers. Each run boots its
// daemon on a store under a fresh TMPDIR and must leave it empty.
func TestSmokeLoadGolden(t *testing.T) {
	_, sb := bins(t)
	args := append([]string{"-spawn", sb}, tiny...)
	tmp := t.TempDir()
	out1, stderr1, code := runLoad(t, tmp, args...)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out1, stderr1)
	}
	assertEmpty(t, tmp)
	for _, want := range []string{
		"picl-load: seed=3 requests=20 cells=4",
		"cell journal/gcc",
		"cell picl/mcf",
		"status 200 = 20",
		"plan digest: ",
		"digests consistent across all responses",
	} {
		if !strings.Contains(out1, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out1)
		}
	}
	if !strings.Contains(stderr1, "req/s") {
		t.Fatalf("stderr missing timing summary:\n%s", stderr1)
	}

	out2, _, code := runLoad(t, tmp, args...)
	if code != 0 {
		t.Fatalf("second run exit %d", code)
	}
	assertEmpty(t, tmp)
	if out1 != out2 {
		t.Fatalf("stdout not byte-identical across runs:\n--- first ---\n%s--- second ---\n%s", out1, out2)
	}
}

// makeLoad is the configuration `make load` gates: the committed
// registry pins its cell and plan digests.
var makeLoad = []string{"-n", "1000", "-c", "8", "-seed", "1", "-factor", "256", "-epochs", "2"}

// TestSmokeCheckSelfBaseline: `make load`'s run gates cleanly against
// the committed registry, end to end, and its -out report names exactly
// the entries it was gated on; that report's entries gate cleanly
// against themselves.
func TestSmokeCheckSelfBaseline(t *testing.T) {
	_, sb := bins(t)
	tmp := t.TempDir()
	report := filepath.Join(t.TempDir(), "report.json")
	_, stderr, code := runLoad(t, tmp, append([]string{"-spawn", sb, "-check", "-out", report}, makeLoad...)...)
	if code != 0 {
		t.Fatalf("check exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "picl-load: check ok") {
		t.Fatalf("stderr missing check verdict:\n%s", stderr)
	}
	assertEmpty(t, tmp)

	var rep Report
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.PlanDigest == "" || len(rep.CellDigests) != 4 || rep.ReqsPerSec <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	got := rep.entries()
	if len(got) != 5 {
		t.Fatalf("entries: %v", got)
	}
	for name, digest := range got {
		if want := golden.Committed[name]; want != digest {
			t.Errorf("entry %q: report %s, registry %q", name, digest, want)
		}
	}
	var w bytes.Buffer
	if code := gate(&w, got, maps.Clone(got).Check); code != 0 || !strings.Contains(w.String(), "check ok") {
		t.Fatalf("self-gate: exit %d\n%s", code, w.String())
	}
}

// TestSmokeCheckCatchesDigestDrift: an expectation that pins one cell
// to another digest fails the gate naming that cell, and a run whose
// digests the registry does not hold fails -check end to end, naming
// every cell.
func TestSmokeCheckCatchesDigestDrift(t *testing.T) {
	rep := Report{Factor: 256, Epochs: 2, Seed: 1, Requests: 1000,
		Cells:       []string{"journal/gcc", "journal/mcf", "picl/gcc", "picl/mcf"},
		CellDigests: map[string]string{}, PlanDigest: "plan"}
	for _, c := range rep.Cells {
		rep.CellDigests[c] = "digest of " + c
	}
	got := rep.entries()
	want := maps.Clone(got)
	want["serve 1/256 epochs=2 picl/gcc"] = strings.Repeat("0", 64)
	var w bytes.Buffer
	if code := gate(&w, got, want.Check); code != 1 || !strings.Contains(w.String(), "FAIL registry entry \"serve 1/256 epochs=2 picl/gcc\"") {
		t.Fatalf("drifted expectation: exit %d, want 1 naming picl/gcc\n%s", code, w.String())
	}

	_, sb := bins(t)
	tmp := t.TempDir()
	_, stderr, code := runLoad(t, tmp, append([]string{"-spawn", sb, "-check"}, tiny...)...)
	if code != 1 {
		t.Fatalf("unregistered run: exit %d, want 1\nstderr: %s", code, stderr)
	}
	for _, c := range rep.Cells {
		if name := "serve 1/1024 epochs=2 " + c; !strings.Contains(stderr, "FAIL registry entry \""+name+"\": missing") {
			t.Errorf("stderr missing failure for %q:\n%s", name, stderr)
		}
	}
	assertEmpty(t, tmp)
}

// TestSmokeCheckScaleMismatch: a daemon at another scale than -factor
// names (here booted at 1/1024 while picl-load expects 1/256) fails
// with one line naming both scales, before any digest is printed or
// gated.
func TestSmokeCheckScaleMismatch(t *testing.T) {
	_, sb := bins(t)
	tmp := t.TempDir()
	out, stderr, code := runLoad(t, tmp, "-spawn", sb, "-spawn-args", "-factor 1024",
		"-check", "-n", "20", "-c", "4", "-factor", "256", "-epochs", "2")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	want := "scale mismatch: the daemon serves epochinstr=29296 instr=58592, but scale 1/256 epochs=2 is epochinstr=117187 instr=234374"
	if strings.Count(stderr, want) != 1 {
		t.Errorf("stderr does not name both scales once (%q):\n%s", want, stderr)
	}
	if strings.Contains(out+stderr, "digest") {
		t.Errorf("a digest was printed or gated:\nstdout: %s\nstderr: %s", out, stderr)
	}
	assertEmpty(t, tmp)
}

// TestSmokeFlagValidation: bad flags exit 2 before any daemon starts,
// so no store directory is made.
func TestSmokeFlagValidation(t *testing.T) {
	if _, stderr, code := runLoad(t, ""); code != 2 || !strings.Contains(stderr, "exactly one of -addr or -spawn") {
		t.Fatalf("missing target: exit %d, stderr %s", code, stderr)
	}
	_, sb := bins(t)
	if _, stderr, code := runLoad(t, "", "-spawn", sb, "-addr", "http://x"); code != 2 {
		t.Fatalf("both targets: exit %d, stderr %s", code, stderr)
	}
	tmp := t.TempDir()
	for _, c := range []struct{ args, want string }{
		{"-n 0", "-n 0: need at least one request"},
		{"-n -3", "-n -3: need at least one request"},
		{"-c 0", "-c 0: need at least one connection"},
		{"-c 0 -soak 1s", "-c 0: need at least one connection"},
		{"-factor 0", "scale factor 0: want a positive number"},
		{"-factor -4", "scale factor -4: want a positive number"},
		{"-factor NaN", "scale factor NaN: want a positive number"},
		{"-epochs 0", "0 epochs: want at least 1"},
	} {
		args := append([]string{"-spawn", sb}, strings.Fields(c.args)...)
		if _, stderr, code := runLoad(t, tmp, args...); code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, want 2 with %q\nstderr: %s", c.args, code, c.want, stderr)
		}
	}
	assertEmpty(t, tmp)
}
