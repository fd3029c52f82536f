package fault

import (
	"bytes"
	"errors"
	"fmt"
	"os"
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
// sync survive the cut whole; unacknowledged appends land in any shape,
// and across the seeds some land behind one that did not.
func TestCutPreservesAcknowledgedSyncs(t *testing.T) {
	var reorders uint64
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
		reorders += in.Counts().LogReorders
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
		_, read, err := undolog.ReadLog(bytes.NewReader(raw[:undolog.SuperBytes+acked*undolog.BlockBytes]), 0)
		if err != nil || uint64(read) != acked {
			t.Fatalf("seed %d: acknowledged prefix reads %d of %d blocks: %v", seed, read, acked, err)
		}
	}
	if reorders == 0 {
		t.Fatal("no cut landed an unsynced block behind a damaged one")
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
		if err := d.PersistMarker(mem.EpochID(i + 1)); err != nil {
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

// TestMarkerTearRecovers: a cut that tears the commit append in flight
// — in order or out of it — recovers the last marker Set that completed
// before the cut, reports the torn batch, and leaves no file behind to
// sweep.
func TestMarkerTearRecovers(t *testing.T) {
	tears, reorders := 0, 0
	for seed := uint64(0); seed < 64; seed++ {
		prof := Profile{CrashAtMin: 10, CrashWindow: 40}
		d, in := openWrapped(t, seed, prof)
		trace := driveOps(d, 60)
		c := in.Counts()
		path := d.Path()
		d.Close()
		if c.ImageTears == 0 {
			continue
		}
		tears++
		reorders += int(c.ImgReorders)
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
		if info.Marker != last || info.ImageTornBytes == 0 {
			t.Fatalf("seed %d: recovered marker %d torn=%d, want %d with the torn batch reported (%v)",
				seed, info.Marker, info.ImageTornBytes, last, c)
		}
		if tmps, _ := filepath.Glob(filepath.Join(path, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("seed %d: tmp files after a torn commit: %v", seed, tmps)
		}
	}
	if tears == 0 || reorders == 0 || reorders == tears {
		t.Fatalf("seeds 0..63 tore %d commits, %d out of order; want both kinds", tears, reorders)
	}
}

// TestImageCutDiscardsStaged: the power cut drops the image's staged
// records — at most a torn commit append reaches the file, past every
// sealed record — and Close after ErrPowerLost writes nothing to
// image.dat. Recovery reads the sealed records and reports the tear.
func TestImageCutDiscardsStaged(t *testing.T) {
	tears := 0
	for seed := uint64(0); seed < 32; seed++ {
		// Ops 1..3 stage lines, op 4 commits them, ops 5..7 stage more,
		// and the cut lands on op 8.
		d, in := openWrapped(t, seed, Profile{CrashAtMin: 8, CrashWindow: 1})
		path := filepath.Join(d.Path(), storage.ImageFileName)
		var sealed []byte
		for op := 1; op <= 8; op++ {
			var err error
			if op == 4 {
				err = d.Mk.Set(1)
				sealed, _ = os.ReadFile(path)
			} else {
				err = d.Img.WriteLine(mem.LineAddr(op), mem.Word(op))
			}
			if (op == 8) != errors.Is(err, storage.ErrPowerLost) {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		cut, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := len(cut) - len(sealed)
		if torn < 0 || torn > 4*24 || !bytes.Equal(cut[:len(sealed)], sealed) {
			t.Fatalf("seed %d: the cut left %d bytes over %d sealed ones", seed, len(cut), len(sealed))
		}
		if torn > 0 {
			tears++
		}
		if got := in.Counts().ImageTears; got != uint64(min(torn, 1)) {
			t.Fatalf("seed %d: %d bytes torn, counted %d tears", seed, torn, got)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, cut) {
			t.Fatalf("seed %d: Close after the cut wrote to the image", seed)
		}
		img, info, err := storage.RecoverDir(d.Path())
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		if img.Len() != 3 || info.Marker != 1 || info.ImageTornBytes != uint64(torn) {
			t.Fatalf("seed %d: recovered %d lines at marker %d, image torn %d; want 3 at 1 and %d",
				seed, img.Len(), info.Marker, info.ImageTornBytes, torn)
		}
	}
	if tears == 0 || tears == 32 {
		t.Fatalf("%d of 32 cuts tore the image; want some of each", tears)
	}
}

// TestImageRotDetected: with image rot forced after every commit,
// recovery of the closed directory must fail loudly with
// ErrCorruptImage.
func TestImageRotDetected(t *testing.T) {
	d, in := openWrapped(t, 99, Profile{ImgRotEvery: 1})
	for i := 0; i < 16; i++ {
		if err := d.Img.WriteLine(mem.LineAddr(i), mem.Word(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Mk.Set(mem.EpochID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if in.Counts().ImgRotBits == 0 {
		t.Fatal("no image rot injected despite ImgRotEvery=1")
	}
	path := d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := storage.RecoverDir(path); !errors.Is(err, storage.ErrCorruptImage) {
		t.Fatalf("recovery of a rotted image = %v, want ErrCorruptImage", err)
	}
}

// TestCommitFailRetries: an injected commit failure leaves the last
// completed Set standing and the records staged, so the retry seals the
// same batch and recovery reads every line.
func TestCommitFailRetries(t *testing.T) {
	d, in := openWrapped(t, 5, Profile{MarkerFailEvery: 2})
	fails := 0
	for e := mem.EpochID(1); e <= 8; e++ {
		if err := d.Img.WriteLine(mem.LineAddr(e), mem.Word(e)); err != nil {
			t.Fatal(err)
		}
		for {
			err := d.Mk.Set(e)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
				t.Fatalf("set %d = %v, want ErrInjected wrapping EIO", e, err)
			}
			fails++
			if got, _ := d.Mk.Get(); got != e-1 {
				t.Fatalf("after a failed set %d the marker reads %d", e, got)
			}
		}
	}
	if fails == 0 || in.Counts().MarkerFails != uint64(fails) {
		t.Fatalf("%d failed commits, %d counted", fails, in.Counts().MarkerFails)
	}
	path := d.Path()
	d.Close()
	img, info, err := storage.RecoverDir(path)
	if err != nil || info.Marker != 8 || img.Len() != 8 {
		t.Fatalf("recovered %d lines at marker %d (err %v), want 8 at 8", img.Len(), info.Marker, err)
	}
}

// TestRewindLandsStale: after a rewind the watermark follows the append
// point down, and a cut can leave an unsynced overwrite as the stale
// block it overwrote — whole and valid, past every block that was
// acknowledged.
func TestRewindLandsStale(t *testing.T) {
	var stale uint64
	for seed := uint64(0); seed < 32 && stale == 0; seed++ {
		d, in := openWrapped(t, seed, Profile{})
		block := func(v mem.Word) []byte {
			raw, _ := undolog.EncodeBlock(undolog.Block{Entries: []undolog.Entry{{Line: 1, ValidTill: 1, Old: v}}, MaxValidTill: 1})
			return raw
		}
		for v := range mem.Word(6) {
			if err := d.Log.AppendBlock(block(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Log.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := d.Log.Rewind(2); err != nil {
			t.Fatal(err)
		}
		for v := range mem.Word(3) {
			if err := d.Log.AppendBlock(block(100 + v)); err != nil {
				t.Fatal(err)
			}
		}
		in.crash()
		if err := d.Log.Rewind(0); !errors.Is(err, storage.ErrPowerLost) {
			t.Fatalf("rewind after the cut: %v, want ErrPowerLost", err)
		}
		path := d.Path()
		d.Close()
		raw, err := os.ReadFile(filepath.Join(path, "undo.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw[undolog.SuperBytes:undolog.SuperBytes+2*undolog.BlockBytes], append(block(0), block(1)...)) {
			t.Fatalf("seed %d: the cut damaged the blocks below the rewind", seed)
		}
		if in.Counts().LogStale == 0 {
			continue
		}
		stale++
		found := false
		for b := 2; b < 5; b++ {
			at := undolog.SuperBytes + b*undolog.BlockBytes
			found = found || len(raw) >= at+undolog.BlockBytes && bytes.Equal(raw[at:at+undolog.BlockBytes], block(mem.Word(b)))
		}
		if !found {
			t.Fatalf("seed %d: a stale landing counted, but no overwritten block holds its old bytes", seed)
		}
	}
	if stale == 0 {
		t.Fatal("32 seeds never left an overwrite as the stale block")
	}
}
