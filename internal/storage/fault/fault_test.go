package fault

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"

	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// openWrapped opens a store directory and wraps it with an injector.
func openWrapped(t *testing.T, seed uint64, prof Profile) (*storage.Dir, *Injector) {
	t.Helper()
	d, err := storage.OpenDir(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	in := New(seed, prof)
	d.Wrap(in)
	return d, in
}

// driveOps pushes a deterministic mixed workload through the wrapped
// store: block appends with periodic syncs, image line writes, marker
// advances. Returns the per-op error trace (nil entries included) so
// determinism can be compared exactly.
func driveOps(d *storage.Dir, n int) []error {
	trace := make([]error, 0, n)
	epoch := mem.EpochID(0)
	for i := 0; i < n; i++ {
		switch i % 8 {
		case 3:
			trace = append(trace, d.Log.Sync())
		case 5:
			trace = append(trace, d.Img.WriteLine(mem.LineAddr(i), mem.Word(i*7)))
		case 7:
			epoch++
			trace = append(trace, d.Mk.Set(epoch))
		default:
			raw, err := undolog.EncodeBlock(undolog.Block{
				Entries:      []undolog.Entry{{Line: mem.LineAddr(i), ValidFrom: epoch, ValidTill: epoch + 1, Old: mem.Word(i)}},
				MaxValidTill: epoch + 1,
			})
			if err != nil {
				trace = append(trace, err)
				continue
			}
			trace = append(trace, d.Log.AppendBlock(raw))
		}
	}
	return trace
}

// TestDeterministic: the same seed and profile produce the identical
// error sequence and identical counts on two independent directories —
// the campaign's single-seed repro contract.
func TestDeterministic(t *testing.T) {
	prof := Default()
	prof.CrashAtMin, prof.CrashWindow = 60, 40
	var traces [2][]error
	var counts [2]Counts
	for r := 0; r < 2; r++ {
		d, in := openWrapped(t, 12345, prof)
		traces[r] = driveOps(d, 200)
		counts[r] = in.Counts()
		d.Close()
	}
	if counts[0] != counts[1] {
		t.Fatalf("counts diverge:\n  %v\n  %v", counts[0], counts[1])
	}
	for i := range traces[0] {
		a, b := fmt.Sprint(traces[0][i]), fmt.Sprint(traces[1][i])
		if a != b {
			t.Fatalf("op %d: error diverges: %q vs %q", i, a, b)
		}
	}
	if counts[0].PowerCuts != 1 {
		t.Fatalf("scheduled cut did not fire: %v", counts[0])
	}
}

// TestScheduledCut: the cut fires at exactly CrashAt ops, rewinds the
// log to the acknowledged watermark, and every later operation fails
// with ErrPowerLost.
func TestScheduledCut(t *testing.T) {
	prof := Profile{CrashAtMin: 25, CrashWindow: 10}
	d, in := openWrapped(t, 7, prof)
	defer d.Close()
	at := in.CrashAt()
	if at < 25 || at >= 35 {
		t.Fatalf("CrashAt = %d outside [25,35)", at)
	}
	trace := driveOps(d, 100)
	if !in.Crashed() {
		t.Fatal("cut never fired")
	}
	firstFail := -1
	for i, err := range trace {
		if err != nil {
			firstFail = i
			break
		}
	}
	if firstFail < 0 || !errors.Is(trace[firstFail], storage.ErrPowerLost) {
		t.Fatalf("first failure at %d = %v, want ErrPowerLost", firstFail, trace[firstFail])
	}
	for _, err := range trace[firstFail:] {
		if !errors.Is(err, storage.ErrPowerLost) {
			t.Fatalf("post-cut op returned %v, want ErrPowerLost", err)
		}
	}
	if in.Ops() != at {
		t.Fatalf("ops advanced to %d past the cut at %d", in.Ops(), at)
	}
}

// TestCutPreservesAcknowledgedSyncs: blocks covered by an acknowledged
// sync survive the cut; unacknowledged appends are gone (or torn).
func TestCutPreservesAcknowledgedSyncs(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		prof := Profile{CrashAtMin: 20, CrashWindow: 30}
		d, in := openWrapped(t, seed, prof)
		var acked uint64
		for i := 0; i < 200 && !in.Crashed(); i++ {
			raw, _ := undolog.EncodeBlock(undolog.Block{
				Entries:      []undolog.Entry{{Line: mem.LineAddr(i), ValidTill: 1}},
				MaxValidTill: 1,
			})
			if err := d.Log.AppendBlock(raw); err != nil {
				break
			}
			if i%4 == 3 {
				if err := d.Log.Sync(); err == nil {
					acked = d.Log.Blocks()
				}
			}
		}
		if !in.Crashed() {
			d.Close()
			continue
		}
		path := d.Path()
		d.Close()
		lf, err := storage.OpenFile(filepath.Join(path, "undo.log"), 0)
		if err != nil {
			t.Fatalf("seed %d: reopen after cut: %v", seed, err)
		}
		if lf.Blocks() < acked {
			t.Fatalf("seed %d: %d blocks survive the cut, acknowledged %d", seed, lf.Blocks(), acked)
		}
		raw, err := lf.ReadAll()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lf.Close()
		if _, _, err := undolog.ReadLog(bytes.NewReader(raw), 0); err != nil {
			t.Fatalf("seed %d: surviving log unreadable: %v", seed, err)
		}
	}
}

// TestBitRotDetected: with rot forced on every append, recovery of the
// closed directory must fail loudly with ErrCorruptBlock — rot never
// silently passes as a torn tail.
func TestBitRotDetected(t *testing.T) {
	prof := Profile{RotEvery: 1}
	d, in := openWrapped(t, 99, prof)
	for i := 0; i < 64; i++ {
		raw, _ := undolog.EncodeBlock(undolog.Block{
			Entries:      []undolog.Entry{{Line: mem.LineAddr(i), ValidTill: 1}},
			MaxValidTill: 1,
		})
		if err := d.Log.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
		if err := d.Log.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if in.Counts().RotBits == 0 {
		t.Fatal("no rot injected despite RotEvery=1")
	}
	path := d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := storage.RecoverDir(path)
	if !errors.Is(err, undolog.ErrCorruptBlock) {
		t.Fatalf("recovery of a rotted log = %v, want ErrCorruptBlock", err)
	}
}

// TestPermanentSyncFailure: from PermanentSyncFrom on, every log sync
// fails with an ErrInjected-wrapped EIO.
func TestPermanentSyncFailure(t *testing.T) {
	d, _ := openWrapped(t, 5, Profile{PermanentSyncFrom: 1})
	defer d.Close()
	for i := 0; i < 5; i++ {
		err := d.Log.Sync()
		if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %d = %v, want ErrInjected wrapping EIO", i, err)
		}
	}
}

// TestMarkerTearRecovers: a cut that tears the marker's next slot
// recovers the last marker Set that completed before the cut, reports
// the tear, and leaves no file behind to sweep.
func TestMarkerTearRecovers(t *testing.T) {
	tears := 0
	for seed := uint64(0); seed < 64; seed++ {
		prof := Profile{CrashAtMin: 10, CrashWindow: 40}
		d, in := openWrapped(t, seed, prof)
		trace := driveOps(d, 60)
		c := in.Counts()
		path := d.Path()
		d.Close()
		if c.MarkerTears == 0 {
			continue
		}
		tears++
		// driveOps sets epoch k at op 8k-1; the last nil one completed.
		var last mem.EpochID
		for i := 7; i < len(trace); i += 8 {
			if trace[i] == nil {
				last = mem.EpochID(i/8 + 1)
			}
		}
		_, info, err := storage.RecoverDir(path)
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		if info.Marker != last || !info.MarkerTorn {
			t.Fatalf("seed %d: recovered marker %d torn=%v, want %d with the tear reported (%v)",
				seed, info.Marker, info.MarkerTorn, last, c)
		}
		if tmps, _ := filepath.Glob(filepath.Join(path, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("seed %d: tmp files after a marker tear: %v", seed, tmps)
		}
	}
	if tears == 0 {
		t.Fatal("no seed in 0..63 produced a marker tear; widen the window")
	}
}
