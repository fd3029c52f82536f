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
	"picl/internal/storage"
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

func recoverBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "picl-recover-smoke")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(buildDir, "picl-recover")
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
	cmd := exec.Command(recoverBin(t), args...)
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

// TestSmokeSingleTrial: one pinned-instant crash recovers bit-exactly,
// and the audit's stdout is reproducible run to run (the crash-point RNG
// is seeded).
func TestSmokeSingleTrial(t *testing.T) {
	args := []string{"-trials", "1", "-at", "50000", "-seed", "7"}
	out, stderr, code := run(t, args...)
	if code != 0 {
		t.Fatalf("exit %d:\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "recovered epoch") || !strings.Contains(out, "all 1 trials recovered bit-exactly") {
		t.Fatalf("unexpected audit output:\n%s", out)
	}
	again, _, _ := run(t, args...)
	if out != again {
		t.Fatalf("audit output not reproducible:\n--- first ---\n%s--- second ---\n%s", out, again)
	}
}

// TestSmokeBadTrialsExits2: an audit of no trials would report success
// vacuously.
func TestSmokeBadTrialsExits2(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		out, stderr, code := run(t, "-trials", n)
		if code != 2 || out != "" || !strings.Contains(stderr, "-trials "+n) {
			t.Errorf("-trials %s: exit %d, stdout %q, stderr %q; want exit 2", n, code, out, stderr)
		}
	}
}

func TestSmokeUnknownBenchExits2(t *testing.T) {
	_, stderr, code := run(t, "-bench", "nonesuch")
	if code != 2 {
		t.Fatalf("unknown bench exit = %d, want 2 (stderr: %s)", code, stderr)
	}
}

// runIn is run with a working directory, so -log can be handed a
// relative path and the audit output stays byte-identical across runs.
func runIn(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(recoverBin(t), args...)
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

// buildStore produces a deterministic on-disk durable store: a fixed
// workload through picl.Open, cleanly closed. The simulation is
// deterministic, so the store bytes — and therefore the audit output —
// are identical on every run.
func buildStore(t *testing.T, dir string) {
	t.Helper()
	cfg := picl.DefaultConfig()
	cfg.ACSGap = 1
	cfg.BufferEntries = 4
	m, err := picl.Open(dir, picl.WithSmallCaches(), picl.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 60; i++ {
		if err := m.Write(i%24*64, i+1000); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeLogAudit: -log mode recovers a real store directory and the
// report golden-matches byte for byte.
func TestSmokeLogAudit(t *testing.T) {
	work := t.TempDir()
	buildStore(t, filepath.Join(work, "store"))

	out, stderr, code := runIn(t, work, "-log", "store")
	if code != 0 {
		t.Fatalf("exit %d:\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	const golden = `durable store audit: store
  marker epoch:       7
  log blocks read:    17
  image padding:      63880 zero bytes behind the sealed batches, kept for later commits to overwrite
  undo scan:          0 entries applied over 0 blocks
  recovered lines:    24
  image records:      68 for 24 live lines (more than 2 per line: the next Open compacts the image)
store consistent: recovery reproduces the epoch-7 checkpoint
`
	if out != golden {
		t.Fatalf("audit output differs from golden:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
}

// TestSmokeLogAuditTorn: the same store with unsynced blocks behind the
// log prefix its last commit names — one that never landed (zeros) and
// one torn partway as garbage — drops them on open: the audit reports
// the ignored bytes and still verifies consistent. Cutting into the
// named prefix instead is rot, and the audit fails.
func TestSmokeLogAuditTorn(t *testing.T) {
	work := t.TempDir()
	store := filepath.Join(work, "store")
	buildStore(t, store)
	logPath := filepath.Join(store, "undo.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	suffix := append(make([]byte, 2048), bytes.Repeat([]byte{0xA5}, 100)...)
	if err := os.WriteFile(logPath, append(bytes.Clone(raw), suffix...), 0o644); err != nil {
		t.Fatal(err)
	}

	out, stderr, code := runIn(t, work, "-log", "store")
	if code != 0 {
		t.Fatalf("exit %d:\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	const golden = `durable store audit: store
  marker epoch:       7
  log blocks read:    17
  log tail ignored:   2148 bytes past the 17-block prefix the marker's commit names
  image padding:      63880 zero bytes behind the sealed batches, kept for later commits to overwrite
  undo scan:          0 entries applied over 0 blocks
  recovered lines:    24
  image records:      68 for 24 live lines (more than 2 per line: the next Open compacts the image)
store consistent: recovery reproduces the epoch-7 checkpoint
`
	if out != golden {
		t.Fatalf("torn audit output differs from golden:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}

	if err := os.WriteFile(logPath, raw[:len(raw)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = runIn(t, work, "-log", "store")
	if code != 1 || !strings.Contains(stderr, "media rot") {
		t.Fatalf("log cut into its named prefix: exit %d, stderr %q; want 1 naming media rot", code, stderr)
	}
}

// TestSmokeLogAuditTornBatch: the same store with a torn commit batch
// behind its image — the later part of an append that reached the disk
// ahead of its earlier part, which reads as zeros — drops it on open;
// the audit adds the torn-batch line naming the commit record the
// marker came from, and still verifies consistent.
func TestSmokeLogAuditTornBatch(t *testing.T) {
	work := t.TempDir()
	store := filepath.Join(work, "store")
	buildStore(t, store)
	// Commit one more line, then put the image back as it was but for
	// bytes 30..48 of that commit's 48-byte batch (the line record and
	// the commit record sealing it): the part that landed.
	path := filepath.Join(store, storage.ImageFileName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := storage.OpenDir(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Img.WriteLine(3, 77); err != nil {
		t.Fatal(err)
	}
	if err := d.Mk.Set(8); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(bytes.TrimRight(before, "\x00")) // the sealed end
	copy(before[end+30:end+48], after[end+30:])
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}

	out, stderr, code := runIn(t, work, "-log", "store")
	if code != 0 {
		t.Fatalf("exit %d:\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	const golden = `durable store audit: store
  marker epoch:       7
  log blocks read:    17
  image torn batch:   48 bytes dropped; the marker is the commit record at byte 1616
  image padding:      63832 zero bytes behind the torn batch, dropped with it
  undo scan:          0 entries applied over 0 blocks
  recovered lines:    24
  image records:      68 for 24 live lines (more than 2 per line: the next Open compacts the image)
store consistent: recovery reproduces the epoch-7 checkpoint
`
	if out != golden {
		t.Fatalf("torn-batch audit output differs from golden:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
}

// TestSmokeLogAuditImageTorn: the same store with a partial record
// at its image's sealed end, over the zero padding — the trace of a
// crash early in a commit — drops it on open with the padding behind
// it; the audit adds the torn-batch line and still verifies consistent.
func TestSmokeLogAuditImageTorn(t *testing.T) {
	work := t.TempDir()
	store := filepath.Join(work, "store")
	buildStore(t, store)
	f, err := os.OpenFile(filepath.Join(store, storage.ImageFileName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0xA5, 0xA5, 0xA5}, 1640); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, stderr, code := runIn(t, work, "-log", "store")
	if code != 0 {
		t.Fatalf("exit %d:\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	const golden = `durable store audit: store
  marker epoch:       7
  log blocks read:    17
  image torn batch:   11 bytes dropped; the marker is the commit record at byte 1616
  image padding:      63869 zero bytes behind the torn batch, dropped with it
  undo scan:          0 entries applied over 0 blocks
  recovered lines:    24
  image records:      68 for 24 live lines (more than 2 per line: the next Open compacts the image)
store consistent: recovery reproduces the epoch-7 checkpoint
`
	if out != golden {
		t.Fatalf("image-torn audit output differs from golden:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
}

// TestSmokeLogAuditCorrupt: a store whose log superblock is garbage is
// unrecoverable — exit 1 with the corruption on stderr.
func TestSmokeLogAuditCorrupt(t *testing.T) {
	work := t.TempDir()
	store := filepath.Join(work, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store, "undo.log"), make([]byte, 200), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runIn(t, work, "-log", "store")
	if code != 1 {
		t.Fatalf("corrupt store exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "superblock") {
		t.Fatalf("stderr does not name the superblock: %s", stderr)
	}
}
