package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// TestTornTailMatrix is the exhaustive torn-write matrix the durable
// stack's crash argument rests on: a SIGKILL (or power failure) can cut
// the tail block's 2 KB write at ANY byte offset. For every offset
// 0..BlockBytes we truncate a healthy 3-block log mid-tail-block,
// reopen it, and require that (a) OpenFile repairs the file to whole
// blocks, reporting exactly the torn byte count, (b) ReadLog reads the
// surviving whole blocks with no error, and (c) recovery to an epoch
// the torn block does not cover is bit-exact against the same recovery
// on the untorn log.
func TestTornTailMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("2049-point matrix; skipped in -short")
	}
	l := fixtureLog(3) // block i covers epoch i only
	var full bytes.Buffer
	if _, err := l.WriteTo(&full); err != nil {
		t.Fatal(err)
	}

	// Golden recovery at marker epoch 1: blocks 0..1 participate; the
	// tail block (epoch 2 coverage) must not be needed.
	const marker = mem.EpochID(1)
	want := mem.NewImage()
	l.ApplyTo(want, marker)

	dir := t.TempDir()
	for off := 0; off <= undolog.BlockBytes; off++ {
		cut := undolog.SuperBytes + 2*undolog.BlockBytes + off
		path := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(path, full.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lf, err := OpenFile(path, 0)
		if err != nil {
			t.Fatalf("off %d: open: %v", off, err)
		}
		wantBlocks := uint64(2)
		if off == undolog.BlockBytes {
			wantBlocks = 3 // the full block survives whole
		}
		if lf.Blocks() != wantBlocks || lf.TornBytes() != uint64(off%undolog.BlockBytes) {
			t.Fatalf("off %d: blocks=%d torn=%d", off, lf.Blocks(), lf.TornBytes())
		}
		raw := fileBytes(t, lf)
		if err := lf.Close(); err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		rl, read, err := undolog.ReadLog(bytes.NewReader(raw), 0)
		if err != nil || uint64(read) != wantBlocks {
			t.Fatalf("off %d: read=%d err=%v", off, read, err)
		}
		got := mem.NewImage()
		rl.ApplyTo(got, marker)
		if !got.Equal(want) {
			t.Fatalf("off %d: recovery differs: %v", off, got.Diff(want, 5))
		}
	}
}

// TestTornThenAppend: after torn-tail repair the file accepts new
// appends at the repaired watermark — the log a recovered machine keeps
// writing is well-formed.
func TestTornThenAppend(t *testing.T) {
	l := fixtureLog(3)
	var full bytes.Buffer
	if _, err := l.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "undo.log")
	cut := undolog.SuperBytes + 2*undolog.BlockBytes + 777
	if err := os.WriteFile(path, full.Bytes()[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	lf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	raw, err := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 99, ValidFrom: 2, ValidTill: 3, Old: 7}},
		MaxValidTill: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.AppendBlock(raw); err != nil {
		t.Fatal(err)
	}
	if err := lf.Sync(); err != nil {
		t.Fatal(err)
	}
	rl, read, err := undolog.ReadLog(bytes.NewReader(fileBytes(t, lf)), 0)
	if err != nil || read != 3 || rl.Blocks() != 3 {
		t.Fatalf("read=%d blocks=%d err=%v", read, rl.Blocks(), err)
	}
	last := rl.Last()
	if len(last.Entries) != 1 || last.Entries[0].Line != 99 {
		t.Fatalf("appended block not recovered: %+v", last)
	}
}

// TestTornInteriorCorruption: bit rot (not a torn tail) inside an
// interior block is a hard ErrCorruptBlock error — an interior block was
// fully written once, so its corruption cannot be a crash artifact, and
// silently dropping the blocks behind it would discard committed undo
// coverage. Sampled every 64 bytes to keep the matrix cheap.
func TestTornInteriorCorruption(t *testing.T) {
	l := fixtureLog(3)
	var full bytes.Buffer
	if _, err := l.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	base := undolog.SuperBytes + undolog.BlockBytes // corrupt block 1
	for off := 0; off < undolog.BlockBytes; off += 64 {
		raw := append([]byte(nil), full.Bytes()...)
		raw[base+off] ^= 0xFF
		_, read, err := undolog.ReadLog(bytes.NewReader(raw), 0)
		if !errors.Is(err, undolog.ErrCorruptBlock) {
			t.Fatalf("off %d: err=%v, want ErrCorruptBlock (media rot must not pass as a torn tail)", off, err)
		}
		if read != 1 {
			t.Fatalf("off %d: read=%d blocks before the rot, want 1", off, read)
		}
	}
}
