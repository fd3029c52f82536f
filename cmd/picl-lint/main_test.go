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

func lintBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "picl-lint-smoke")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(buildDir, "picl-lint")
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

func runIn(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(lintBin(t), args...)
	cmd.Dir = dir
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

// writeModule lays out a throwaway module named picl (the analyzers'
// scopes key off picl/internal/... import paths) with one source file in
// internal/sim.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module picl\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "sim", "sim.go"), src)
	return dir
}

func writeFile(t *testing.T, path, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeRules(t *testing.T) {
	out, _, code := runIn(t, ".", "-rules")
	if code != 0 {
		t.Fatalf("-rules exit %d", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"determinism", "eidcmp", "lockheld", "walorder", "obshook"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-rules lists %v, want %v:\n%s", got, want, out)
	}
}

func TestSmokeViolationExits1(t *testing.T) {
	dir := writeModule(t, clockViolation)
	out, stderr, code := runIn(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out+stderr, "determinism") {
		t.Fatalf("diagnostic missing rule name:\nstdout: %s\nstderr: %s", out, stderr)
	}
}

func TestSmokeCleanExits0(t *testing.T) {
	dir := writeModule(t, `package sim

func Cycles(n uint64) uint64 { return 2 * n }
`)
	out, stderr, code := runIn(t, dir)
	if code != 0 {
		t.Fatalf("clean module exit = %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
}

// clockViolation is a self-contained module source with one
// determinism finding.
const clockViolation = `package sim

import "time"

func Clock() time.Time { return time.Now() }
`

func TestSmokeSARIF(t *testing.T) {
	dir := writeModule(t, clockViolation)
	sarif := filepath.Join(dir, "lint.sarif")
	_, _, code := runIn(t, dir, "-sarif", sarif)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	b, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatalf("SARIF report not written: %v", err)
	}
	var log map[string]any
	if err := json.Unmarshal(b, &log); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if log["version"] != "2.1.0" {
		t.Fatalf("SARIF version = %v", log["version"])
	}
	if !strings.Contains(string(b), "internal/sim/sim.go") {
		t.Fatalf("SARIF URIs not repo-relative:\n%s", b)
	}
}

// TestSmokeFix: -fix rewrites the file in place, reports the applied
// count, and exits 0 because nothing unfixable remains.
func TestSmokeFix(t *testing.T) {
	dir := writeModule(t, `package sim

import "picl/internal/mem"

func Older(a, b mem.EpochID) bool { return a < b }
`)
	writeFile(t, filepath.Join(dir, "internal", "mem", "mem.go"), `package mem

type EpochID uint64

func (e EpochID) Before(o EpochID) bool { return e < o }
`)
	_, stderr, code := runIn(t, dir, "-fix")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 after fixing everything\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "applied 1 fix(es)") {
		t.Fatalf("missing applied-count report:\n%s", stderr)
	}
	b, err := os.ReadFile(filepath.Join(dir, "internal", "sim", "sim.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "return a.Before(b)") {
		t.Fatalf("file not rewritten to the helper call:\n%s", b)
	}
	// Converged: a second run finds nothing and applies nothing.
	_, stderr, code = runIn(t, dir, "-fix")
	if code != 0 || !strings.Contains(stderr, "applied 0 fix(es)") {
		t.Fatalf("second -fix not a no-op: exit=%d\n%s", code, stderr)
	}
}

// TestSmokeUnusedIgnores: a stale directive fails the gate, and no
// flag turns the report off.
func TestSmokeUnusedIgnores(t *testing.T) {
	dir := writeModule(t, `package sim

//lint:ignore determinism historic: the wall clock read moved away
func Cycles(n uint64) uint64 { return 2 * n }
`)
	out, stderr, code := runIn(t, dir)
	if code != 1 || !strings.Contains(out, "unused-ignore") {
		t.Fatalf("stale directive not reported: exit=%d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	for _, flag := range []string{"-unused-ignores=false", "-json"} {
		if _, _, code := runIn(t, dir, flag); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (no such flag)", flag, code)
		}
	}
}
