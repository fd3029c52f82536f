package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/undolog"
)

func digestOf(s string) [32]byte { return sha256.Sum256([]byte(s)) }

func TestResultsRoundTripMem(t *testing.T) {
	r, err := OpenResults(NewMem(undolog.Super{RegionBytes: undolog.DefaultRegionBytes}))
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string]string{
		"a": "tiny",
		"b": string(bytes.Repeat([]byte("x"), undolog.BlockBytes)),   // spans 2 blocks
		"c": string(bytes.Repeat([]byte("y"), 3*undolog.BlockBytes)), // spans 4
		"d": "",
	}
	for k, v := range payloads {
		if err := r.Put(digestOf(k), []byte(v)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	for k, v := range payloads {
		got, ok := r.Get(digestOf(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%s): ok=%v len=%d want len=%d", k, ok, len(got), len(v))
		}
	}
	if _, ok := r.Get(digestOf("missing")); ok {
		t.Fatal("Get of unknown digest reported ok")
	}
	if r.Len() != len(payloads) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(payloads))
	}
}

func TestResultsReopenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	f, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenResults(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Put(digestOf(fmt.Sprint(i)), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OpenResults(f2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", r2.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := r2.Get(digestOf(fmt.Sprint(i)))
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("reopened Get(%d) = %q, %v", i, got, ok)
		}
	}
	// First-seen order survives the round trip.
	order := r2.Digests()
	if len(order) != 10 || order[0] != digestOf("0") || order[9] != digestOf("9") {
		t.Fatalf("digest order not preserved: %d entries", len(order))
	}
}

// TestResultsTornTailRepair truncates the file at every byte offset
// inside the final record and verifies open drops exactly that record,
// repairs the region, and appends cleanly afterwards.
func TestResultsTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	build := func(path string) int64 {
		f, err := OpenFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenResults(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Put(digestOf("keep"), []byte("the survivor")); err != nil {
			t.Fatal(err)
		}
		if err := r.Put(digestOf("torn"), bytes.Repeat([]byte("z"), undolog.BlockBytes+100)); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	probe := filepath.Join(dir, "probe.log")
	full := build(probe)
	firstRecEnd := int64(undolog.SuperBytes + undolog.BlockBytes) // record 1 = 1 block
	// Sample cut points across the second record, including mid-header
	// and exactly at a block boundary.
	for cut := firstRecEnd; cut < full; cut += 97 {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		build(path)
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFile(path, 0)
		if err != nil {
			t.Fatalf("cut %d: OpenFile: %v", cut, err)
		}
		r, err := OpenResults(f)
		if err != nil {
			t.Fatalf("cut %d: OpenResults: %v", cut, err)
		}
		if _, ok := r.Get(digestOf("keep")); !ok {
			t.Fatalf("cut %d: surviving record lost", cut)
		}
		if _, ok := r.Get(digestOf("torn")); ok {
			t.Fatalf("cut %d: torn record resurrected", cut)
		}
		// The repaired region accepts new appends at the clean boundary.
		if err := r.Put(digestOf("after"), []byte("post-repair")); err != nil {
			t.Fatalf("cut %d: Put after repair: %v", cut, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		f2, err := OpenFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := OpenResults(f2)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := r2.Get(digestOf("after")); !ok || string(got) != "post-repair" {
			t.Fatalf("cut %d: post-repair record lost on reopen", cut)
		}
		r2.Close()
	}
}

// TestResultsCorruptTailCRC flips a bit in the final record; open must
// drop it (CRC) and keep the prefix.
func TestResultsCorruptTailCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.log")
	f, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenResults(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(digestOf("first"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(digestOf("second"), []byte("to be rotted")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[undolog.SuperBytes+undolog.BlockBytes+resultHeaderBytes+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OpenResults(f2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Get(digestOf("first")); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := r2.Get(digestOf("second")); ok {
		t.Fatal("bit-rotted record served")
	}
}

// TestResultsRefreshCrossProcess models a second process appending to
// the shared region: a reader's Refresh picks the new record up without
// reopening, and never truncates a foreign in-flight tail.
func TestResultsRefreshCrossProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.log")
	wf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := OpenResults(wf)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(digestOf("boot"), []byte("v0")); err != nil {
		t.Fatal(err)
	}

	rf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := OpenResults(rf)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if reader.Len() != 1 {
		t.Fatalf("reader booted with %d records, want 1", reader.Len())
	}

	// "Other process" appends two records.
	if err := writer.Put(digestOf("late-1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(digestOf("late-2"), bytes.Repeat([]byte("w"), 3000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.Get(digestOf("late-1")); ok {
		t.Fatal("reader saw a foreign append without Refresh")
	}
	if err := reader.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"boot", "late-1", "late-2"} {
		if _, ok := reader.Get(digestOf(k)); !ok {
			t.Fatalf("after Refresh, %q missing", k)
		}
	}

	// A foreign torn tail (append in flight) must not break Refresh or
	// get truncated away by the reader.
	if err := wf.TearTail(bytes.Repeat([]byte{0xab}, undolog.BlockBytes), 700); err != nil {
		t.Fatal(err)
	}
	if err := reader.Refresh(); err != nil {
		t.Fatalf("Refresh over foreign torn tail: %v", err)
	}
	if reader.Len() != 3 {
		t.Fatalf("torn tail changed reader index: %d records", reader.Len())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= undolog.SuperBytes {
		t.Fatal("reader truncated the shared file")
	}
	writer.Close()
}

// TestResultsPutCutsDeadWritersTail: appends are serialized, so the
// whole blocks a Refresh finds past the last complete record are a dead
// writer's partial record, not an append in flight. Put cuts them before
// appending: behind them, its record would be cut with them at the next
// open.
func TestResultsPutCutsDeadWritersTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.log")
	df, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := OpenResults(wf)
	if err != nil {
		t.Fatal(err)
	}
	// The dead writer landed the first block of a three-block record.
	first := make([]byte, undolog.BlockBytes)
	copy(first, resultMagic[:])
	binary.LittleEndian.PutUint32(first[4:8], 5000)
	if err := df.AppendBlock(first); err != nil {
		t.Fatal(err)
	}
	df.Close()
	if err := writer.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(digestOf("after"), []byte("acknowledged")); err != nil {
		t.Fatal(err)
	}
	writer.Close()
	rf, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenResults(rf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, ok := r.Get(digestOf("after")); !ok || string(got) != "acknowledged" || r.Blocks() != 1 {
		t.Fatalf("reopened log holds %d blocks and %q (found: %v); want the acknowledged record alone", r.Blocks(), got, ok)
	}
}

// TestResultsPutBounds rejects oversized payloads before touching the
// backend.
func TestResultsPutBounds(t *testing.T) {
	r, err := OpenResults(NewMem(undolog.Super{RegionBytes: undolog.DefaultRegionBytes}))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(digestOf("big"), make([]byte, MaxResultBytes+1)); err == nil {
		t.Fatal("oversized Put accepted")
	}
	if r.Len() != 0 {
		t.Fatal("failed Put left index entries")
	}
}

// TestResultsDuplicatePut: a re-appended digest serves the newest
// payload, in process and across a reopen.
func TestResultsDuplicatePut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.log")
	f, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenResults(f)
	if err != nil {
		t.Fatal(err)
	}
	d := digestOf("cell")
	if err := r.Put(d, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(d, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get(d); string(got) != "v2" {
		t.Fatalf("in-process Get = %q, want v2", got)
	}
	if r.Len() != 1 {
		t.Fatalf("duplicate digest double-counted: Len=%d", r.Len())
	}
	r.Close()
	f2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OpenResults(f2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got, _ := r2.Get(d); string(got) != "v2" {
		t.Fatalf("reopened Get = %q, want v2 (last write wins)", got)
	}
}
