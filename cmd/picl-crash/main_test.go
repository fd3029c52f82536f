package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"picl"
	"picl/internal/crashplan"
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

func crashBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "picl-crash-smoke")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(buildDir, "picl-crash")
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

func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(crashBin(t), args...)
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

// TestSmokeCrashPoints SIGKILLs a handful of real child processes and
// requires every recovery to verify. This is the in-tree slice of the
// CI `make crash` gate (100+ points).
func TestSmokeCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	out, stderr, code := run(t, "-points", "8", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d:\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "all 8 SIGKILL crash points recovered bit-exactly") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestSmokeBadPointsExits2: a campaign of no points would report
// success vacuously.
func TestSmokeBadPointsExits2(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		out, stderr, code := run(t, "-points", n)
		if code != 2 || out != "" || !strings.Contains(stderr, "-points "+n) {
			t.Errorf("-points %s: exit %d, stdout %q, stderr %q; want exit 2", n, code, out, stderr)
		}
	}
}

// TestDiedBySIGKILL: the harness only trusts a child that died by its
// own SIGKILL — clean exits, other signals, and a command that never
// started (nil ProcessState) are all verification failures.
func TestDiedBySIGKILL(t *testing.T) {
	never := exec.Command("/nonexistent-binary-for-picl-crash-test")
	_ = never.Run()
	if diedBySIGKILL(never) {
		t.Fatal("a command that never started counted as SIGKILLed")
	}
	clean := exec.Command("true")
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	if diedBySIGKILL(clean) {
		t.Fatal("a clean exit counted as SIGKILLed")
	}
	killed := exec.Command("sh", "-c", "kill -KILL $$")
	_ = killed.Run()
	if !diedBySIGKILL(killed) {
		t.Fatalf("SIGKILL not recognized: %v", killed.ProcessState)
	}
}

// TestVerifyPointInProcess drives the child's exact op stream in-process
// and abandons the store without Close — the same durable state a
// SIGKILL leaves behind — then requires verifyPoint to accept it, and to
// reject the directory once its image, which holds the marker, is
// scribbled.
func TestVerifyPointInProcess(t *testing.T) {
	seed := crashplan.Splitmix64(41)
	dir := filepath.Join(t.TempDir(), "store")
	ops, killAt := crashplan.Plan(seed)
	m, err := picl.Open(dir, machineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[:killAt] {
		if err := m.Write(o.Line*64, o.Val); err != nil {
			t.Fatal(err)
		}
		if o.Commit {
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if o.Sync {
			if _, err := m.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No Close: the machine is abandoned mid-flight like a killed child.
	if msg := verifyPoint(dir, seed); msg != "" {
		t.Fatalf("abandoned store failed verification: %s", msg)
	}
	if err := os.WriteFile(filepath.Join(dir, "image.dat"), bytes.Repeat([]byte{7}, 16), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := verifyPoint(dir, seed); !strings.Contains(msg, "recovery error") {
		t.Fatalf("scribbled image passed verification: %q", msg)
	}
}
