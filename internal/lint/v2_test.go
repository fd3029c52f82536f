package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestWALOrderGolden covers all three ordering rules: W1 directly (29)
// and through a call chain (60); W2 with no log sync (81), with the
// image synced instead of the log (91: unordered and split), with the
// image synced ahead of the commit (112), through a helper that syncs
// it (129) and ahead of a helper that commits (286), and the bulk
// commit taken by an ACS-gap scan, directly (300) and through a helper
// the bulk ACS shares (316); W3's truncating rewrite (192), renaming
// marker (201, plus its rename at 206 twice: no file fsync and no dir
// fsync), unsynced positional write (213), non-staging rename (224),
// O_TRUNC reopen (235), a commit helper that truncates the image
// (278) and a positional write through a FileOps field with no fsync
// (330). The clean shapes — GoodDirect, the unsynced AppendOnly,
// evictOrdered, GoodMarker, the zero-marker reset, both ForcePersists
// reaching the bulk commit, the in-place goodMarker.Set, sealMarker.Set
// committing through the image log, syncedOpsMarker.Set fsyncing its
// FileOps, the createLayout replace and the suppressed migrateRaw — are
// asserted by absence.
func TestWALOrderGolden(t *testing.T) {
	runGolden(t, "walorder", "picl/internal/storage/wtest", WALOrder, []expect{
		{29, "walorder"},  // BadDirect: write, no undo coverage
		{60, "walorder"},  // evictViaHelper -> mirror chain
		{81, "walorder"},  // BadMarker: no log sync before Set
		{91, "walorder"},  // HalfMarker: log sync missing
		{91, "walorder"},  // HalfMarker: image synced ahead of the commit
		{112, "walorder"}, // SplitMarker: image synced ahead of the commit
		{129, "walorder"}, // splitViaHelper: syncBoth synced the image
		{192, "walorder"}, // tornMarker.Set: truncating rewrite
		{201, "walorder"}, // lazyMarker.Set: renames the marker
		{206, "walorder"}, // lazyMarker rename: staging file not fsynced
		{206, "walorder"}, // lazyMarker rename: no directory fsync
		{213, "walorder"}, // looseMarker.Set: positional write, no fsync
		{224, "walorder"}, // publish renames a non-staging source
		{235, "walorder"}, // truncMarker.Set reopens with O_TRUNC
		{278, "walorder"}, // shrinkMarker.Set: its commit helper truncates
		{286, "walorder"}, // splitBeforeHelper: image synced, then GoodMarker
		{300, "walorder"}, // store.EpochBoundary takes the bulk commit
		{316, "walorder"}, // engine.EpochBoundary shares seal with ForcePersist
		{330, "walorder"}, // opsMarker.Set: write through FileOps, no fsync
	})
}

// TestWALOrderScope: the same package under a path outside
// storage/core/checkpoint is one of the baseline schemes and must not
// fire.
func TestWALOrderScope(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "walorder"), "picl/internal/baseline/wtest")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{WALOrder}) {
		if d.Rule == "walorder" {
			t.Errorf("walorder fired outside its package scope: %s", d)
		}
	}
}

// TestWALOrderChain: the interprocedural finding names the chain down
// to the primitive write.
func TestWALOrderChain(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "walorder"), "picl/internal/storage/wtest")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{WALOrder}) {
		if d.Pos.Line != 60 {
			continue
		}
		if len(d.Related) == 0 {
			t.Fatalf("chain violation carries no related positions: %s", d)
		}
		if !strings.Contains(d.Related[0].Message, "mirror") {
			t.Errorf("related chain does not name the intermediate callee: %s", d)
		}
		if d.Code != "image-unordered" {
			t.Errorf("chain violation Code = %q, want image-unordered", d.Code)
		}
		return
	}
	t.Fatal("no diagnostic at the chain call site (line 60)")
}

// TestLockHeldGolden covers both corpus files. bad.go: Locked calls
// without the lock, the double-lock shapes, and the idioms that stay
// clean (defer-unlock, early-return unlock, sibling objects,
// Locked-to-Locked calls). box.go: guarded fields touched by a method
// holding no lock, by a non-method, after mu.Unlock() (which the
// lock-anywhere check accepted), on an object whose mu is not the one
// held, from a goroutine, from a closure called while the lock is held
// (function literals start with no lock held), and from a
// package-level initializer; the deferred closure that locks mu
// itself, the Locked method, the unguarded field and the composite
// literal are asserted by absence.
func TestLockHeldGolden(t *testing.T) {
	runGolden(t, "lockheld", "picl/lintdata/lhtest", LockHeld, []expect{
		{32, "lockheld"}, // Bad: Locked call, no lock held
		{38, "lockheld"}, // free: cross-function lock-free Locked call
		{45, "lockheld"}, // Deadlock: bump() re-acquires held mu
		{54, "lockheld"}, // DeadChain: re-acquisition two hops down
		{69, "lockheld"}, // DoubleDirect: second Lock
		{28, "lockheld"}, // box.go bad: method reads b.n without locking
		{34, "lockheld"}, // box.go peek: non-method reads b.n
		{47, "lockheld"}, // box.go Released: read after mu.Unlock()
		{54, "lockheld"}, // box.go Merge: o.n under b's mu only
		{61, "lockheld"}, // box.go Spawn: goroutine holds no lock
		{75, "lockheld"}, // box.go total: package-level initializer
		{82, "lockheld"}, // box.go Each: closure called under the lock
	})
}

// TestLockHeldAcrossPackages runs lockheld over testdata/lockmod, a
// module of its own whose package user sees package own's lock owner
// through export data, as picl-lint sees one module package from
// another. Each misuse is found in user as it is in own: the Locked
// call with no lock held, the guarded field read from outside the
// owner, and the same field promoted through an embedding; the locking
// method and the unguarded field are asserted by absence.
func TestLockHeldAcrossPackages(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "lockmod"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	type finding struct {
		file string
		line int
		code string
	}
	want := []finding{
		{"own.go", 24, "locked-no-lock"}, // Bad
		{"user.go", 9, "locked-no-lock"}, // Use: t.SizeLocked()
		{"user.go", 9, "field-foreign"},  // Use: t.N
		{"user.go", 19, "field-foreign"}, // Wrapped.Count: w.N
	}
	var got []finding
	for _, d := range Run(pkgs, []*Analyzer{LockHeld}) {
		got = append(got, finding{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Code})
	}
	sort.SliceStable(got, func(i, j int) bool {
		if got[i].file != got[j].file {
			return got[i].file < got[j].file
		}
		return got[i].line < got[j].line
	})
	if !slices.Equal(got, want) {
		t.Errorf("findings = %v, want %v", got, want)
	}
}

// TestLockDisciplineGolden pins the guarded-field half of lockheld, the
// contract the former lockdiscipline analyzer checked on its own: in
// box.go, by finding code, bad's unlocked read and peek's non-method
// read (the two lines lockdiscipline reported) plus the path-sensitive
// cases it missed. The //lint:ignore'd read in suppressed is asserted
// by absence.
func TestLockDisciplineGolden(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "lockheld"), "picl/lintdata/lhtest")
	if err != nil {
		t.Fatal(err)
	}
	type finding struct {
		line int
		code string
	}
	want := []finding{
		{28, "field-unlocked"}, // bad: method reads b.n without locking
		{34, "field-foreign"},  // peek: non-method reads b.n
		{47, "field-unlocked"}, // Released: read after mu.Unlock()
		{54, "field-unlocked"}, // Merge: o.n under b's mu only
		{61, "field-unlocked"}, // Spawn: goroutine holds no lock
		{75, "field-foreign"},  // total: package-level initializer
		{82, "field-unlocked"}, // Each: closure called under the lock
	}
	var got []finding
	for _, d := range Run([]*Package{pkg}, []*Analyzer{LockHeld}) {
		if filepath.Base(d.Pos.Filename) == "box.go" {
			got = append(got, finding{d.Pos.Line, d.Code})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("box.go: got %d findings %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("box.go: finding %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLockHeldChain: the two-hop double-lock names the path to the
// inner Lock.
func TestLockHeldChain(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "lockheld"), "picl/lintdata/lhtest")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{LockHeld}) {
		if d.Pos.Line != 54 {
			continue
		}
		if d.Code != "double-lock" {
			t.Errorf("Code = %q, want double-lock", d.Code)
		}
		if len(d.Related) < 2 {
			t.Fatalf("chain double-lock carries %d related positions, want >= 2: %s", len(d.Related), d)
		}
		if !strings.Contains(d.Message, "helper") {
			t.Errorf("diagnostic does not name the re-acquiring callee: %s", d)
		}
		last := d.Related[len(d.Related)-1]
		if !strings.Contains(last.Message, "locks mu") {
			t.Errorf("chain does not end at the inner Lock: %s", d)
		}
		return
	}
	t.Fatal("no diagnostic at the chained double-lock (line 54)")
}

// TestUnusedIgnores: a stale directive is reported only when its rule
// ran.
func TestUnusedIgnores(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "unusedignore"), "picl/lintdata/uitest")
	if err != nil {
		t.Fatal(err)
	}

	diags := Run([]*Package{pkg}, []*Analyzer{EIDCmp, Determinism})
	if len(diags) != 1 || diags[0].Rule != "unused-ignore" || diags[0].Pos.Line != 13 {
		t.Fatalf("with eidcmp+determinism: got %v, want one unused-ignore at line 13", diags)
	}

	// The eidcmp directive is load-bearing (it suppresses line 10), so
	// it must never be called stale; determinism's is invisible when
	// determinism did not run.
	if diags := Run([]*Package{pkg}, []*Analyzer{EIDCmp}); len(diags) != 0 {
		t.Fatalf("with eidcmp only: got %v, want none (determinism did not run)", diags)
	}
}

// TestFixCorpus: applying the suggested fixes to the corrupted corpus
// must yield byte-identical output to the committed goldens, and every
// finding in the corpus must be fixable. Regenerate goldens with
// UPDATE_GOLDEN=1 go test ./internal/lint -run TestFixCorpus.
func TestFixCorpus(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "fixcorpus"), "picl/lintdata/fixtest")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{EIDCmp})
	if len(diags) == 0 {
		t.Fatal("fix corpus produced no diagnostics")
	}
	for _, d := range diags {
		if d.Fix == nil {
			t.Errorf("corpus finding has no fix: %s", d)
		}
	}
	fixed, n, err := ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if n != len(diags) {
		t.Errorf("applied %d fixes, want %d", n, len(diags))
	}
	if len(fixed) != 1 {
		t.Fatalf("fixed %d files, want 1", len(fixed))
	}
	for file, got := range fixed {
		golden := filepath.Join("testdata", "fix", filepath.Base(file)+".golden")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fixed output differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
				filepath.Base(file), got, want)
		}
	}
}

// TestFixedCorpusClean: the goldens themselves must carry no eidcmp
// findings — -fix converges in one step.
func TestFixedCorpusClean(t *testing.T) {
	dir := t.TempDir()
	goldens, err := filepath.Glob(filepath.Join("testdata", "fix", "*.golden"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens found: %v", err)
	}
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(g), ".golden")
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := testLoader(t).CheckDir(dir, "picl/lintdata/fixtest")
	if err != nil {
		t.Fatalf("goldens do not type-check: %v", err)
	}
	if diags := Run([]*Package{pkg}, []*Analyzer{EIDCmp}); len(diags) != 0 {
		t.Errorf("fixed corpus still has findings: %v", diags)
	}
}

func TestSARIFOutput(t *testing.T) {
	pkg, err := testLoader(t).CheckDir(filepath.Join("testdata", "src", "walorder"), "picl/internal/storage/wtest")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{WALOrder})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, wd, All(), diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					Physical struct {
						Artifact struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "picl-lint" {
		t.Fatalf("bad tool block: %+v", log.Runs)
	}
	if len(log.Runs[0].Results) != len(diags) {
		t.Fatalf("SARIF has %d results, want %d", len(log.Runs[0].Results), len(diags))
	}
	seenCode := false
	for _, r := range log.Runs[0].Results {
		if strings.HasPrefix(r.RuleID, "walorder/") {
			seenCode = true
		}
		loc := r.Locations[0].Physical
		if filepath.IsAbs(loc.Artifact.URI) || strings.Contains(loc.Artifact.URI, "\\") {
			t.Errorf("URI not repo-relative slash-form: %q", loc.Artifact.URI)
		}
		if loc.Region.StartLine == 0 {
			t.Errorf("result missing startLine: %+v", r)
		}
	}
	if !seenCode {
		t.Error("no walorder/<code> rule IDs in SARIF output")
	}
	if len(log.Runs[0].Tool.Driver.Rules) == 0 {
		t.Error("SARIF driver carries no rule metadata")
	}
}
