package picl

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"picl/internal/storage"
)

// reopenLines is the footprint of the stores the reopen tests build:
// every line is populated, then commits rewrite random ones.
const reopenLines = 1 << 12

// populateStore writes every line of a fresh store, committing every
// 256 lines, and returns the open machine.
func populateStore(t *testing.T, dir string) *Machine {
	t.Helper()
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(reopenLines) {
		if err := m.Write(i*64, i*0x9e3779b97f4a7c15|1); err != nil {
			t.Fatal(err)
		}
		if i%256 == 255 {
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// commitWrites makes one commit's 64 writes to pseudo-random lines of
// the footprint, advancing the generator state x.
func commitWrites(t *testing.T, m *Machine, x *uint64) {
	t.Helper()
	for range 64 {
		*x = *x*6364136223846793005 + 1442695040888963407
		if err := m.Write((*x>>33)%reopenLines*64, *x|1); err != nil {
			t.Fatal(err)
		}
	}
}

// openAlloc reports the bytes Open allocates reopening the store in dir.
func openAlloc(t *testing.T, dir string) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Open(dir, WithSmallCaches())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if img, _ := m.Recovered(); img.Lines() != reopenLines {
		t.Fatalf("reopen recovered %d lines, want %d", img.Lines(), reopenLines)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestReopenAllocBoundedByImage: what Open allocates is bounded by the
// image, not by the log. Two stores with one footprint take 2000 and
// 8000 commits of 64 writes each at CommitEpoch, whose ACS-gap scans
// sync the log and name all of it (a Sync would rewind the log and
// reuse its blocks), the last ones leaving undo entries of later
// epochs for recovery to apply; each then loses power. Reopening the
// store with a log four times as long allocates about as much as
// reopening the shorter one.
func TestReopenAllocBoundedByImage(t *testing.T) {
	if testing.Short() {
		t.Skip("10000 fsynced commits; skipped in -short")
	}
	alloc := map[int]uint64{}
	var logBytes [2]int64
	for i, commits := range []int{2000, 8000} {
		dir := filepath.Join(t.TempDir(), "store")
		m := populateStore(t, dir)
		x := uint64(commits)
		for range commits {
			commitWrites(t, m, &x)
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		m.Crash()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, storage.LogFileName))
		if err != nil {
			t.Fatal(err)
		}
		logBytes[i] = fi.Size()
		alloc[commits] = openAlloc(t, dir)
	}
	if logBytes[1] < 3*logBytes[0] {
		t.Fatalf("the logs hold %d and %d bytes: the longer session did not grow its log", logBytes[0], logBytes[1])
	}
	if bound := alloc[2000] + alloc[2000]/4 + 1<<20; alloc[8000] > bound {
		t.Fatalf("reopening a %d-byte log allocated %d bytes, a %d-byte log %d: Open grows with the log (bound %d)",
			logBytes[1], alloc[8000], logBytes[0], alloc[2000], bound)
	}
}

// TestOpenCompactionDeterministic: the compaction Open writes is a
// function of the recovered content, so two Opens of byte-identical
// copies of one store leave byte-identical image files.
func TestOpenCompactionDeterministic(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base")
	m := populateStore(t, base)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var images [2][]byte
	for i := range images {
		dir := filepath.Join(t.TempDir(), "copy")
		copyStore(t, base, dir)
		m, err := Open(dir, WithSmallCaches())
		if err != nil {
			t.Fatal(err)
		}
		images[i], err = os.ReadFile(filepath.Join(dir, storage.ImageFileName))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatalf("two Opens of one store compacted it to different image files (%d and %d bytes)", len(images[0]), len(images[1]))
	}
}
