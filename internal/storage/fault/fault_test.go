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

// block encodes a one-entry undo block for line l holding old.
func block(l mem.LineAddr, old mem.Word) []byte {
	raw, _ := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: l, ValidTill: 1, Old: old}},
		MaxValidTill: 1,
	})
	return raw
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
			trace = append(trace, d.Log.AppendBlock(block(mem.LineAddr(i), mem.Word(i))))
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
	var images [2][]byte
	for r := 0; r < 2; r++ {
		d, in := openWrapped(t, 12345, prof)
		traces[r] = driveOps(d, 200)
		counts[r] = in.Counts()
		d.Close()
		images[r], _ = os.ReadFile(filepath.Join(d.Path(), storage.LogFileName))
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
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("the cut left different logs")
	}
	if counts[0].PowerCuts != 1 {
		t.Fatalf("scheduled cut did not fire: %v", counts[0])
	}
}

// TestNeighbouringSeedsIndependent: the decision streams of seeds s and
// s+1 are not one stream shifted by an operation, so a campaign's
// consecutive points draw independent schedules.
func TestNeighbouringSeedsIndependent(t *testing.T) {
	a, b := New(2018, Profile{}), New(2019, Profile{})
	same := 0
	for op := uint64(1); op < 400; op++ {
		a.op, b.op = op, op-1
		if a.rand(classSyncFail) == b.rand(classSyncFail) {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("seed 2019 repeats %d of seed 2018's 399 decisions one operation earlier", same)
	}
}

// TestScheduledCut: the cut fires at exactly CrashAt ops, and every
// later write fails with ErrPowerLost.
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
	for i, err := range trace[firstFail:] {
		// Appends and commits write; a line write only stages, and a log
		// sync with nothing appended does no I/O.
		if op := (firstFail + i) % 8; op != 3 && op != 5 && !errors.Is(err, storage.ErrPowerLost) {
			t.Fatalf("post-cut op %d returned %v, want ErrPowerLost", firstFail+i, err)
		}
	}
	if in.Ops() != at {
		t.Fatalf("ops advanced to %d past the cut at %d", in.Ops(), at)
	}
}

// TestCutReach: at a cut, the writes no fsync followed can all be lost
// — an extension of the file and an overwrite in place alike — while
// the bytes an fsync covered and no later write touched cannot.
func TestCutReach(t *testing.T) {
	a, b, c := bytes.Repeat([]byte{'a'}, 2048), bytes.Repeat([]byte{'b'}, 2048), bytes.Repeat([]byte{'c'}, 512)
	landed := append(append(bytes.Clone(a[:512]), c...), append(bytes.Clone(a[1024:]), b...)...)
	allLost, allLanded := 0, 0
	for seed := uint64(0); seed < 32; seed++ {
		path := filepath.Join(t.TempDir(), "f")
		osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		in := New(seed, Profile{})
		f := in.interpose(osf)
		if _, err := f.WriteAt(a, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.WriteAt(b, 2048) // extends the file
		f.WriteAt(c, 512)  // overwrites in place
		in.crash()
		if _, err := f.WriteAt(a, 0); !errors.Is(err, storage.ErrPowerLost) {
			t.Fatalf("seed %d: write after the cut = %v, want ErrPowerLost", seed, err)
		}
		f.Close()
		got, _ := os.ReadFile(path)
		if !bytes.Equal(got[:512], a[:512]) || !bytes.Equal(got[1024:2048], a[1024:]) {
			t.Fatalf("seed %d: the cut changed synced bytes no write touched", seed)
		}
		if sec := got[512:1024]; !bytes.Equal(sec, a[:512]) && !bytes.Equal(sec, c) {
			t.Fatalf("seed %d: the overwritten sector holds neither version", seed)
		}
		switch {
		case bytes.Equal(got, a):
			allLost++
		case bytes.Equal(got, landed):
			allLanded++
		}
	}
	if allLost == 0 || allLanded == 0 {
		t.Fatalf("32 cuts lost every unsynced write %d times and landed them all %d times; want both", allLost, allLanded)
	}
}

// TestCutPreservesAcknowledgedSyncs: blocks covered by an acknowledged
// sync survive the cut whole; the sectors appended since land or not,
// and across the seeds both happen.
func TestCutPreservesAcknowledgedSyncs(t *testing.T) {
	var c Counts
	for seed := uint64(0); seed < 32; seed++ {
		prof := Profile{CrashAtMin: 20, CrashWindow: 30}
		d, in := openWrapped(t, seed, prof)
		var acked uint64
		for i := 0; i < 200 && !in.Crashed(); i++ {
			if err := d.Log.AppendBlock(block(mem.LineAddr(i), 0)); err != nil {
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
		c.Add(in.Counts())
		path := d.Path()
		d.Close()
		raw, err := os.ReadFile(filepath.Join(path, storage.LogFileName))
		if err != nil {
			t.Fatal(err)
		}
		n := undolog.SuperBytes + acked*undolog.BlockBytes
		if uint64(len(raw)) < n {
			t.Fatalf("seed %d: %d bytes survive the cut, acknowledged %d", seed, len(raw), n)
		}
		_, read, err := undolog.ReadLog(bytes.NewReader(raw[:n]), 0)
		if err != nil || uint64(read) != acked {
			t.Fatalf("seed %d: acknowledged prefix reads %d of %d blocks: %v", seed, read, acked, err)
		}
	}
	if c.Landed == 0 || c.Lost == 0 || c.LenLost == 0 {
		t.Fatalf("no cut both landed and lost unsynced sectors, and lost a length: %v", c)
	}
}

// TestBitRotDetected: with rot forced after every fsync of a store whose
// named log prefix dwarfs its image, recovery of the closed directory
// must fail loudly with ErrCorruptBlock — rot never silently passes as
// an unsynced block.
func TestBitRotDetected(t *testing.T) {
	d, in := openWrapped(t, 99, Profile{RotEvery: 1})
	for i := 0; i < 64; i++ {
		if err := d.Log.AppendBlock(block(mem.LineAddr(i), 0)); err != nil {
			t.Fatal(err)
		}
		if err := d.PersistMarker(mem.EpochID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(in.LogRot()) == 0 {
		t.Fatalf("no log rot injected despite RotEvery=1: %v", in.Counts())
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

// TestImageRotDetected: with rot forced after every commit of a store
// with no log, recovery of the closed directory must fail loudly with
// ErrCorruptImage.
func TestImageRotDetected(t *testing.T) {
	d, in := openWrapped(t, 99, Profile{RotEvery: 1})
	for i := 0; i < 16; i++ {
		if err := d.Img.WriteLine(mem.LineAddr(i), mem.Word(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Mk.Set(mem.EpochID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if in.Counts().RotBits == 0 || len(in.LogRot()) != 0 {
		t.Fatalf("want image rot alone despite RotEvery=1: %v", in.Counts())
	}
	path := d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := storage.RecoverDir(path); !errors.Is(err, storage.ErrCorruptImage) {
		t.Fatalf("recovery of a rotted image = %v, want ErrCorruptImage", err)
	}
}

// TestWrappedRecover: Dir.Recover runs the log's ReadBlocks on a
// goroutine of its own beside the image's Load; through the injector's
// pass-throughs (race-checked under -race) it recovers what the
// unwrapped store recovers.
func TestWrappedRecover(t *testing.T) {
	d, _ := openWrapped(t, 5, Profile{})
	for i := 0; i < 64; i++ {
		raw, _ := undolog.EncodeBlock(undolog.Block{
			Entries:      []undolog.Entry{{Line: mem.LineAddr(i), ValidTill: mem.EpochID(i + 1)}},
			MaxValidTill: mem.EpochID(i + 1),
		})
		if err := d.Log.AppendBlock(raw); err != nil {
			t.Fatal(err)
		}
		if err := d.Img.WriteLine(mem.LineAddr(i), mem.Word(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := d.PersistMarker(mem.EpochID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	path := d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want, wantInfo, err := storage.RecoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	if wantInfo.BlocksRead == 0 || want.Len() == 0 {
		t.Fatalf("store names %d log blocks and holds %d lines; want both non-zero", wantInfo.BlocksRead, want.Len())
	}
	wd, err := storage.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Close()
	wd.Wrap(New(5, Profile{}))
	got, info, err := wd.Recover()
	if err != nil || !got.Equal(want) || info != wantInfo {
		t.Fatalf("wrapped Recover: %+v, err %v; unwrapped: %+v", info, err, wantInfo)
	}
}

// TestPermanentSyncFailure: from PermanentSyncFrom on, every fsync
// fails with an ErrInjected-wrapped EIO.
func TestPermanentSyncFailure(t *testing.T) {
	d, in := openWrapped(t, 5, Profile{PermanentSyncFrom: 1})
	defer d.Close()
	if err := d.Log.AppendBlock(block(1, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := d.Log.Sync()
		if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %d = %v, want ErrInjected wrapping EIO", i, err)
		}
	}
	if err := d.Mk.Set(1); !errors.Is(err, syscall.EIO) {
		t.Fatalf("commit = %v, want its fsync's EIO", err)
	}
	if got := in.Counts().SyncFails; got != 6 {
		t.Fatalf("%d failed fsyncs counted, want 6", got)
	}
}

// TestMarkerTearRecovers: a cut between a commit's write and its fsync
// tears the batch at sector boundaries — in order or out of it — and
// recovery lands on the last commit that completed, reporting the torn
// batch; only a batch that landed whole recovers the commit in flight.
// No file is left behind to sweep.
func TestMarkerTearRecovers(t *testing.T) {
	tears, reorders := 0, 0
	for seed := uint64(0); seed < 64; seed++ {
		// Each round: two appends, a log sync, 40 staged lines and a
		// commit (write, fsync; the first one extends the file first).
		d, in := openWrapped(t, seed, Profile{CrashAtMin: 10, CrashWindow: 40})
		var completed, inFlight mem.EpochID
		for e := mem.EpochID(1); !in.Crashed(); e++ {
			d.Log.AppendBlock(block(1, 1))
			d.Log.AppendBlock(block(2, 2))
			d.Log.Sync()
			for l := range mem.LineAddr(40) {
				d.Img.WriteLine(1+l, mem.Word(e))
			}
			inFlight = e
			if d.Mk.Set(e) == nil {
				completed = e
			}
		}
		path := d.Path()
		d.Close()
		raw, _ := os.ReadFile(filepath.Join(path, storage.ImageFileName))
		_, info, err := storage.RecoverDir(path)
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		switch {
		case info.Marker == completed:
		case info.Marker == inFlight && info.ImageTornBytes == 0:
			continue // the batch landed whole before its fsync returned
		default:
			t.Fatalf("seed %d: recovered marker %d, want %d or a whole %d (%v)", seed, info.Marker, completed, inFlight, in.Counts())
		}
		if info.ImageTornBytes == 0 {
			continue
		}
		tears++
		end := info.MarkerAt + 24 // the sealed end: the torn batch starts here
		if raw[end] == 0 {
			reorders++ // its head never landed, a later sector did
		}
		if tmps, _ := filepath.Glob(filepath.Join(path, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("seed %d: tmp files after a torn commit: %v", seed, tmps)
		}
	}
	if tears == 0 || reorders == 0 || reorders == tears {
		t.Fatalf("seeds 0..63 tore %d commits, %d out of order; want both kinds", tears, reorders)
	}
}

// TestImageCutDiscardsStaged: a cut at a commit's write drops the
// image's staged records — nothing of the batch reaches the file — and
// Close after ErrPowerLost writes nothing to image.dat. Recovery reads
// the sealed records.
func TestImageCutDiscardsStaged(t *testing.T) {
	// Ops 1..3 are the first commit (extend, write, fsync); op 4 is the
	// second commit's write.
	d, _ := openWrapped(t, 1, Profile{CrashAtMin: 4, CrashWindow: 1})
	path := filepath.Join(d.Path(), storage.ImageFileName)
	for l := range mem.LineAddr(3) {
		d.Img.WriteLine(1+l, 1)
	}
	if err := d.Mk.Set(1); err != nil {
		t.Fatal(err)
	}
	sealed, _ := os.ReadFile(path)
	for l := range mem.LineAddr(3) {
		d.Img.WriteLine(4+l, 2)
	}
	if err := d.Mk.Set(2); !errors.Is(err, storage.ErrPowerLost) {
		t.Fatalf("the cut commit = %v, want ErrPowerLost", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, sealed) {
		t.Fatal("the cut or Close after it wrote to the image")
	}
	img, info, err := storage.RecoverDir(d.Path())
	if err != nil || img.Len() != 3 || info.Marker != 1 || info.ImageTornBytes != 0 {
		t.Fatalf("recovered %d lines at marker %d, image torn %d, err %v; want 3 at 1 and nothing torn",
			img.Len(), info.Marker, info.ImageTornBytes, err)
	}
}

// TestImageCutLosesExtension: a cut between the write and the fsync of
// a commit whose batch runs past the image file's length either keeps
// the zero padding extension the commit made first, or loses the
// file's new length, and then whatever of the batch lay past the old
// length with it; either way recovery lands on the last sealed commit,
// or on the new one if its batch landed whole.
func TestImageCutLosesExtension(t *testing.T) {
	// One commit of 2727 lines leaves 40 bytes of padding: the next
	// batch, two lines and its commit record, runs past it. Ops 1..3 are
	// the first commit; the second extends (4), writes (5), and the cut
	// takes its fsync (6).
	const lines = 2727
	lost, extended := 0, 0
	for seed := uint64(0); seed < 32; seed++ {
		d, in := openWrapped(t, seed, Profile{CrashAtMin: 6, CrashWindow: 1})
		path := filepath.Join(d.Path(), storage.ImageFileName)
		for l := range mem.LineAddr(lines) {
			d.Img.WriteLine(l, mem.Word(l+1))
		}
		if err := d.Mk.Set(1); err != nil {
			t.Fatal(err)
		}
		before, _ := os.ReadFile(path)
		d.Img.WriteLine(lines, 1)
		d.Img.WriteLine(lines+1, 1)
		if err := d.Mk.Set(2); !errors.Is(err, storage.ErrPowerLost) {
			t.Fatalf("seed %d: the cut commit = %v, want ErrPowerLost", seed, err)
		}
		d.Close()
		cut, _ := os.ReadFile(path)
		c := in.Counts()
		switch {
		case c.LenLost > 0:
			lost++
			if len(cut) != len(before) {
				t.Fatalf("seed %d: the length was lost but the image holds %d bytes, want its previous %d", seed, len(cut), len(before))
			}
		case len(cut) > len(before):
			extended++
		}
		sealed := bytes.TrimRight(before, "\x00")
		if !bytes.Equal(cut[:len(sealed)], sealed) {
			t.Fatalf("seed %d: the cut changed sealed bytes", seed)
		}
		img, info, err := storage.RecoverDir(d.Path())
		whole := info.Marker == 2 && img.Len() == lines+2 && info.ImageTornBytes == 0
		if err != nil || !whole && (info.Marker != 1 || img.Len() != lines ||
			info.ImageTornBytes != uint64(len(bytes.TrimRight(cut, "\x00"))-len(sealed))) {
			t.Fatalf("seed %d: recovered %d lines at marker %d, torn %d, err %v; want %d at 1 with the tear reported (%v)",
				seed, img.Len(), info.Marker, info.ImageTornBytes, err, lines, c)
		}
	}
	if lost == 0 || extended == 0 {
		t.Fatalf("32 cuts lost %d lengths and kept %d extensions; want both", lost, extended)
	}
}

// TestCommitFailRetries: an injected failure of a commit's write or
// fsync leaves the last completed Set standing and the records staged,
// so the retry seals the same batch and recovery reads every line.
func TestCommitFailRetries(t *testing.T) {
	d, in := openWrapped(t, 5, Profile{WriteFailEvery: 3, SyncFailEvery: 3})
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
			if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) && !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("set %d = %v, want ErrInjected wrapping EIO or ENOSPC", e, err)
			}
			fails++
			if got, _ := d.Mk.Get(); got != e-1 {
				t.Fatalf("after a failed set %d the marker reads %d", e, got)
			}
		}
	}
	c := in.Counts()
	if c.WriteFails == 0 || c.SyncFails == 0 || c.WriteFails+c.SyncFails != uint64(fails) {
		t.Fatalf("%d failed commits, counted %v", fails, c)
	}
	path := d.Path()
	d.Close()
	img, info, err := storage.RecoverDir(path)
	if err != nil || info.Marker != 8 || img.Len() != 8 {
		t.Fatalf("recovered %d lines at marker %d (err %v), want 8 at 8", img.Len(), info.Marker, err)
	}
}

// TestRewindLandsStale: after a rewind the appends overwrite stale
// blocks in place, and a cut can leave an overwritten sector as the
// stale bytes it held, past every block that was acknowledged.
func TestRewindLandsStale(t *testing.T) {
	stale := 0
	for seed := uint64(0); seed < 32 && stale == 0; seed++ {
		d, in := openWrapped(t, seed, Profile{})
		for v := range mem.Word(6) {
			if err := d.Log.AppendBlock(block(1, v)); err != nil {
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
			if err := d.Log.AppendBlock(block(1, 100+v)); err != nil {
				t.Fatal(err)
			}
		}
		in.crash()
		if err := d.Log.AppendBlock(block(1, 9)); !errors.Is(err, storage.ErrPowerLost) {
			t.Fatalf("append after the cut: %v, want ErrPowerLost", err)
		}
		path := d.Path()
		d.Close()
		raw, err := os.ReadFile(filepath.Join(path, storage.LogFileName))
		if err != nil {
			t.Fatal(err)
		}
		at := func(b int) int { return undolog.SuperBytes + b*undolog.BlockBytes }
		if !bytes.Equal(raw[at(0):at(2)], append(block(1, 0), block(1, 1)...)) {
			t.Fatalf("seed %d: the cut damaged the blocks below the rewind", seed)
		}
		for b := 2; b < 5; b++ {
			got, fresh, old := raw[at(b):at(b+1)], block(1, mem.Word(98+b)), block(1, mem.Word(b))
			for s := 0; s < undolog.BlockBytes; s += sectorBytes {
				if bytes.Equal(got[s:s+sectorBytes], old[s:s+sectorBytes]) && !bytes.Equal(old[s:s+sectorBytes], fresh[s:s+sectorBytes]) {
					stale++
				}
			}
		}
	}
	if stale == 0 {
		t.Fatal("32 seeds never left an overwritten sector stale")
	}
}
