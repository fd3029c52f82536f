package main

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"picl/internal/storage/fault"
)

var testGaps = []int{0, 1, 3}

// TestStoragePointsVerify is the in-tree slice of the `make fuzz` gate:
// a band of storage fault schedules must all verify, and the band must
// exercise more than one outcome class (a sweep that only ever sees
// clean closes is not testing recovery).
func TestStoragePointsVerify(t *testing.T) {
	outcomes := map[string]int{}
	for seed := uint64(2018); seed < 2058; seed++ {
		dir := filepath.Join(t.TempDir(), "store")
		msg, outcome, _ := runStoragePoint(dir, seed, testGaps)
		if msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		outcomes[outcome]++
	}
	if len(outcomes) < 3 {
		t.Fatalf("40 seeds hit only %v; fault schedule too tame", outcomes)
	}
}

// TestStorageCampaignCoverage: over `make fuzz`'s storage campaign —
// 200 points from seed 2018 — every fault class injects and every
// outcome class occurs, so a class that stopped firing fails here
// rather than reading 0 in the campaign's summary line.
func TestStorageCampaignCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 200-point storage campaign; skipped in -short")
	}
	var agg fault.Counts
	outcomes := map[string]int{}
	for seed := uint64(2018); seed < 2018+200; seed++ {
		msg, outcome, c := runStoragePoint(filepath.Join(t.TempDir(), "store"), seed, testGaps)
		if msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		agg.Add(c)
		outcomes[outcome]++
	}
	v := reflect.ValueOf(agg)
	for i := range v.NumField() {
		if v.Field(i).Uint() == 0 {
			t.Errorf("no point injected %s: %v", v.Type().Field(i).Name, agg)
		}
	}
	for _, o := range []string{"clean", "cut", "degraded", "rot-detected"} {
		if outcomes[o] == 0 {
			t.Errorf("no point ended %s: %v", o, outcomes)
		}
	}
}

// TestStoragePointDeterministic: the single-seed repro contract — the
// same seed replayed on a fresh directory reaches the same outcome with
// the same injection counts.
func TestStoragePointDeterministic(t *testing.T) {
	for _, seed := range []uint64{2018, 2023, 2031} {
		msgA, outA, cA := runStoragePoint(filepath.Join(t.TempDir(), "a"), seed, testGaps)
		msgB, outB, cB := runStoragePoint(filepath.Join(t.TempDir(), "b"), seed, testGaps)
		if msgA != msgB || outA != outB || cA != cB {
			t.Fatalf("seed %d diverges: (%q %s %v) vs (%q %s %v)", seed, msgA, outA, cA, msgB, outB, cB)
		}
	}
}

// TestSimPointsVerify: a handful of in-simulator crash points across
// the scheme list recover bit-exactly.
func TestSimPointsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short")
	}
	schemes := []string{"picl", "journal", "frm"}
	seen := map[string]int{}
	for seed := uint64(2018); seed < 2028; seed++ {
		msg, scheme := runSimPoint(seed, schemes, testGaps)
		if msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		seen[scheme]++
	}
	if len(seen) < 2 {
		t.Fatalf("10 seeds exercised only %v schemes", seen)
	}
}

// TestSmokeBadPointsExits2: a campaign of no points would pass
// vacuously, so the binary refuses it before any work.
func TestSmokeBadPointsExits2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "picl-fuzz")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, n := range []string{"0", "-1"} {
		out, err := exec.Command(bin, "-points", n).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "-points "+n) {
			t.Errorf("-points %s: err %v, output %q; want exit 2", n, err, out)
		}
	}
}
