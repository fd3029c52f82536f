package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The loader shells out to `go list -export -deps`, which is the
// expensive part; share one across all golden tests. math/rand appears
// only in testdata, so its export data is requested explicitly on top
// of the module's own dependency closure.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, _, loaderErr = NewLoader(".", "./...", "math/rand")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

type expect struct {
	line int
	rule string
}

// runGolden type-checks testdata/src/<dir> as the package asPath, runs
// one analyzer (plus the always-on malformed-ignore reporting in Run),
// and compares the diagnostics against want by (line, rule). Suppressed
// findings are asserted by absence: the testdata files contain
// //lint:ignore'd violations that must not appear here.
func runGolden(t *testing.T, dir, asPath string, a *Analyzer, want []expect) {
	t.Helper()
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("CheckDir(%s): %v", dir, err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	var got []expect
	var rendered strings.Builder
	for _, d := range diags {
		got = append(got, expect{d.Pos.Line, d.Rule})
		rendered.WriteString("\t" + d.String() + "\n")
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d diagnostics, want %d:\n%swant: %v", dir, len(got), len(want), rendered.String(), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: diagnostic %d = %v, want %v", dir, i, got[i], want[i])
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	// The synthetic import path places the package inside the restricted
	// internal/sim subtree; the same files under an unrestricted path
	// produce nothing (see TestDeterminismScope).
	runGolden(t, "determinism", "picl/internal/sim/dtest", Determinism, []expect{
		{7, "determinism"},  // math/rand import
		{13, "determinism"}, // time.Now
		{14, "determinism"}, // time.Since
		{21, "determinism"}, // map range, collected but never sorted
		{57, "ignore"},      // //lint:ignore without a reason
		{58, "determinism"}, // the map range the malformed ignore failed to cover
		{15, "determinism"}, // shard.go: append to captured slice inside a goroutine
	})
}

func TestDeterminismScope(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "determinism"), "picl/internal/undolog/dtest")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{Determinism}) {
		if d.Rule == "determinism" {
			t.Errorf("determinism fired outside its package scope: %s", d)
		}
	}
}

// TestDeterminismServeExempt: the serving layer (internal/serve and
// the two serving binaries) is explicitly exempt — wall clocks, PRNG
// request plans, and unsorted latency maps are its normal business.
func TestDeterminismServeExempt(t *testing.T) {
	for _, asPath := range []string{
		"picl/internal/serve",
		"picl/internal/serve/subpkg",
		"picl/cmd/picl-simd",
		"picl/cmd/picl-load",
	} {
		pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "servepkg"), asPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run([]*Package{pkg}, []*Analyzer{Determinism}) {
			if d.Rule == "determinism" {
				t.Errorf("determinism fired on exempt path %s: %s", asPath, d)
			}
		}
	}
}

// TestDeterminismServeCorpusFiresInSim proves the exemption is scoped,
// not a hole: the identical serve-idiom file inside the sim subtree
// trips every rule.
func TestDeterminismServeCorpusFiresInSim(t *testing.T) {
	runGolden(t, "servepkg", "picl/internal/sim/servepkg", Determinism, []expect{
		{10, "determinism"}, // math/rand import
		{15, "determinism"}, // time.Since in lease check
		{18, "determinism"}, // time.Now
		{31, "determinism"}, // latency map range, never sorted
	})
}

func TestEIDCmpGolden(t *testing.T) {
	runGolden(t, "eidcmp", "picl/lintdata/eidcmp", EIDCmp, []expect{
		{9, "eidcmp"},  // <
		{10, "eidcmp"}, // <=
		{11, "eidcmp"}, // >
		{12, "eidcmp"}, // >=
		{13, "eidcmp"}, // -
		{14, "eidcmp"}, // -=
		{15, "eidcmp"}, // --
		{20, "eidcmp"}, // EpochTag <
	})
}

// TestEIDCmpExemptInMem: the same violations inside internal/mem itself
// are the helper implementations and must not fire.
func TestEIDCmpExemptInMem(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "eidcmp"), "picl/internal/mem")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{EIDCmp}) {
		if d.Rule == "eidcmp" {
			t.Errorf("eidcmp fired inside internal/mem: %s", d)
		}
	}
}

func TestObsHookGolden(t *testing.T) {
	// The synthetic path places the package inside internal/core, one of
	// the two subtrees under the pairing contract.
	runGolden(t, "obshook", "picl/internal/core/otest", ObsHook, []expect{
		{21, "obshook"}, // stats.Handle.Add without emit
		{25, "obshook"}, // Counters.Add without emit
		{29, "obshook"}, // Counters.Set without emit
		{33, "obshook"}, // nvm.Stats field ++ without emit
		{37, "obshook"}, // indexed nvm.Stats field += without emit
	})
}

// TestObsHookScope: the same violations outside internal/core and
// internal/nvm are aggregation code and must not fire.
func TestObsHookScope(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "obshook"), "picl/internal/exp/otest")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{ObsHook}) {
		if d.Rule == "obshook" {
			t.Errorf("obshook fired outside its package scope: %s", d)
		}
	}
}

// TestModuleClean is the gate's own gate: the checked-in tree must stay
// free of unsuppressed diagnostics, so `go test` catches a regression
// even when someone runs it without `make ci`.
func TestModuleClean(t *testing.T) {
	pkgs, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; expected the whole module", len(pkgs))
	}
	// The tree must be clean of both findings and stale suppressions.
	for _, d := range Run(pkgs, All()) {
		t.Errorf("unsuppressed diagnostic in checked-in tree: %s", d)
	}
}

func TestAllRuleNames(t *testing.T) {
	want := []string{"determinism", "eidcmp", "lockheld", "walorder", "obshook"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q missing Doc", a.Name)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
	}
}
