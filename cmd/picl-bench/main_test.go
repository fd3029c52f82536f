package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeBadScaleExits2: a -factor that would hang the run, print
// NaN figures or build caches whose set count is not a power of two
// exits 2 before any simulation.
func TestSmokeBadScaleExits2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "picl-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, factor := range []string{"-4", "0", "NaN", "+Inf", "100"} {
		cmd := exec.Command(bin, "-exp", "f9", "-benches", "gcc", "-factor", factor)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || stdout.Len() != 0 ||
			!strings.Contains(stderr.String(), "scale factor "+factor) {
			t.Errorf("-factor %s: err %v, stdout %q, stderr %q; want exit 2 naming the factor", factor, err, stdout.String(), stderr.String())
		}
	}
}
