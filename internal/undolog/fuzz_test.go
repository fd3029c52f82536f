package undolog

import (
	"bytes"
	"testing"

	"picl/internal/mem"
)

// FuzzDecodeBlock ensures the durable-block parser never panics, never
// accepts a mutated block as valid unless the mutation left the CRC'd
// region untouched, and accepts exactly what CheckBlock accepts.
func FuzzDecodeBlock(f *testing.F) {
	good, _ := EncodeBlock(Block{
		Entries: []Entry{
			{Line: 1, ValidFrom: 0, ValidTill: 1, Old: 42},
			{Line: 9, ValidFrom: 1, ValidTill: 3, Old: 7},
		},
		MaxValidTill: 3,
	})
	f.Add(good)
	f.Add(make([]byte, BlockBytes))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := DecodeBlock(raw)
		if cerr := CheckBlock(raw); (cerr == nil) != (err == nil) {
			t.Fatalf("CheckBlock = %v, DecodeBlock = %v: the validator and the decoder disagree", cerr, err)
		}
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the identical bytes
		// (the format is canonical).
		re, err := EncodeBlock(b)
		if err != nil {
			t.Fatalf("decoded block fails re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatal("decode/encode not canonical")
		}
	})
}

// FuzzReadLog feeds whole durable log regions — valid, torn, truncated,
// and scribbled — through the log reader. It must never panic, must
// refuse regions without a valid superblock, and whatever it accepts
// must re-serialize canonically: a second read of the re-written bytes
// sees the identical block count, numbering, and recovery behavior.
func FuzzReadLog(f *testing.F) {
	l := NewLog(1 << 16)
	l.AppendBlock([]Entry{{Line: 1, ValidFrom: 0, ValidTill: 1, Old: 42}})
	l.AppendBlock([]Entry{{Line: 9, ValidFrom: 1, ValidTill: 3, Old: 7}})
	var whole bytes.Buffer
	if _, err := l.WriteTo(&whole); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	f.Add(whole.Bytes()[:SuperBytes+BlockBytes+100]) // torn tail
	f.Add(whole.Bytes()[:SuperBytes])                // empty valid region
	f.Add(whole.Bytes()[:10])                        // torn superblock
	f.Add([]byte{})
	f.Add(make([]byte, SuperBytes+2*BlockBytes))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, read, err := ReadLog(bytes.NewReader(raw), 0)
		if err != nil {
			return
		}
		if uint64(read) != got.Blocks()-got.Start() {
			t.Fatalf("read %d blocks but log holds %d", read, got.Blocks()-got.Start())
		}
		// Recovery over whatever was accepted must not panic.
		img := mem.NewImage()
		got.ApplyTo(img, 1)

		// Canonicalization: re-serialize and re-read; the second pass
		// must agree with the first bit for bit on recovery behavior.
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatalf("accepted log fails re-serialization: %v", err)
		}
		again, reread, err := ReadLog(&buf, 0)
		if err != nil || reread != read {
			t.Fatalf("re-read: blocks %d err=%v, first pass read %d", reread, err, read)
		}
		if again.Blocks() != got.Blocks() || again.Start() != got.Start() {
			t.Fatalf("re-read renumbered: %d/%d vs %d/%d",
				again.Start(), again.Blocks(), got.Start(), got.Blocks())
		}
		img2 := mem.NewImage()
		again.ApplyTo(img2, 1)
		if !img.Equal(img2) {
			t.Fatal("re-read log recovers differently")
		}
	})
}

// FuzzApplyTo exercises the recovery scan against arbitrary entry soup:
// it must never panic and must never write outside the entries' lines.
func FuzzApplyTo(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(2), uint64(99), uint64(1))
	f.Fuzz(func(t *testing.T, line, from, till, old, persisted uint64) {
		l := NewLog(0)
		l.AppendBlock([]Entry{{
			Line:      mem.LineAddr(line),
			ValidFrom: mem.EpochID(from),
			ValidTill: mem.EpochID(till),
			Old:       mem.Word(old),
		}})
		img := mem.NewImage()
		l.ApplyTo(img, mem.EpochID(persisted))
		if img.Len() > 1 {
			t.Fatal("recovery wrote lines not present in the log")
		}
		if img.Len() == 1 && img.Read(mem.LineAddr(line)) != mem.Word(old) {
			t.Fatal("recovery wrote a value not present in the log")
		}
	})
}
