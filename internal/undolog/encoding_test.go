package undolog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"picl/internal/mem"
)

func randomEntries(r *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		from := mem.EpochID(r.Intn(100))
		out[i] = Entry{
			Line:      mem.LineAddr(r.Uint64()),
			ValidFrom: from,
			ValidTill: from + mem.EpochID(r.Intn(5)+1),
			Old:       mem.Word(r.Uint64()),
		}
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(n8) % (EntriesPerBlock + 1)
		entries := randomEntries(r, n)
		var maxTill mem.EpochID
		for _, e := range entries {
			if e.ValidTill > maxTill {
				maxTill = e.ValidTill
			}
		}
		raw, err := EncodeBlock(Block{Entries: entries, MaxValidTill: maxTill})
		if err != nil {
			return false
		}
		if len(raw) != BlockBytes {
			return false
		}
		got, err := DecodeBlock(raw)
		if err != nil {
			return false
		}
		if got.MaxValidTill != maxTill || len(got.Entries) != n {
			return false
		}
		for i := range entries {
			if got.Entries[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsOverfullBlock(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := EncodeBlock(Block{Entries: randomEntries(r, EntriesPerBlock+1)}); err == nil {
		t.Fatal("overfull block encoded")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	raw, err := EncodeBlock(Block{Entries: randomEntries(r, 5), MaxValidTill: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong size.
	if _, err := DecodeBlock(raw[:100]); err == nil {
		t.Fatal("short block decoded")
	}
	// Flip one payload bit: CRC must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[100] ^= 1
	if _, err := DecodeBlock(flipped); err == nil {
		t.Fatal("bit flip not detected")
	}
	// Bad magic.
	noMagic := append([]byte(nil), raw...)
	noMagic[0] = 'X'
	if _, err := DecodeBlock(noMagic); err == nil {
		t.Fatal("bad magic not detected")
	}
}

// TestCheckBlock: the check-only validator accepts exactly what
// DecodeBlock accepts, and every rejection is ErrCorruptBlock once the
// size is right — an entry count past a block's capacity included,
// even under a matching CRC.
func TestCheckBlock(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	raw, err := EncodeBlock(Block{Entries: randomEntries(r, 5), MaxValidTill: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBlock(raw); err != nil {
		t.Fatalf("good block: %v", err)
	}
	if err := CheckBlock(raw[:100]); err == nil {
		t.Fatal("short block passed")
	}
	flipped := bytes.Clone(raw)
	flipped[100] ^= 1
	noMagic := bytes.Clone(raw)
	noMagic[0] = 'X'
	overfull := bytes.Clone(raw)
	overfull[4] = EntriesPerBlock + 1
	binary.LittleEndian.PutUint32(overfull[blockCRCOffset:], crc32.Checksum(overfull[:blockCRCOffset], castagnoli))
	for name, bad := range map[string][]byte{"bit flip": flipped, "bad magic": noMagic, "entry count": overfull} {
		if err := CheckBlock(bad); !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("%s: CheckBlock = %v, want ErrCorruptBlock", name, err)
		}
		if _, err := DecodeBlock(bad); !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("%s: DecodeBlock = %v, want ErrCorruptBlock", name, err)
		}
	}
}

// TestReadLogKeepsStoredBlocks: ReadLog keeps each block as stored — an
// expiration tag past its entries' and an empty block included — so
// the recovery scan stops where the stored tags say and the log
// re-serializes to the bytes it was read from.
func TestReadLogKeepsStoredBlocks(t *testing.T) {
	var region bytes.Buffer
	region.Write(EncodeSuper(Super{Version: SuperVersion, RegionBytes: 1 << 20}))
	for _, b := range []Block{
		{Entries: []Entry{{Line: 1, ValidFrom: 0, ValidTill: 1, Old: 10}}, MaxValidTill: 3},
		{MaxValidTill: 4},
		{Entries: []Entry{{Line: 2, ValidFrom: 3, ValidTill: 5, Old: 20}}, MaxValidTill: 5},
	} {
		raw, err := EncodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		region.Write(raw)
	}
	l, read, err := ReadLog(bytes.NewReader(region.Bytes()), 0)
	if err != nil || read != 3 || l.Blocks() != 3 {
		t.Fatalf("read=%d blocks=%d err=%v, want 3 and 3", read, l.Blocks(), err)
	}
	var again bytes.Buffer
	if _, err := l.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), region.Bytes()) {
		t.Fatal("the log does not re-serialize to the bytes it was read from")
	}
	img := mem.NewImage()
	if applied, scanned := l.ApplyTo(img, 2); applied != 0 || scanned != 3 {
		t.Fatalf("recovery to epoch 2 applied %d over %d blocks, want 0 over 3 (the stored tags keep the scan going)", applied, scanned)
	}
}

func TestWriteToReadLogRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	l := NewLog(0)
	till := mem.EpochID(1)
	for b := 0; b < 20; b++ {
		entries := randomEntries(r, r.Intn(EntriesPerBlock)+1)
		for i := range entries {
			entries[i].ValidTill = till // keep expiration tags ordered
			entries[i].ValidFrom = till - 1
		}
		if r.Intn(3) == 0 {
			till++
		}
		l.AppendBlock(entries)
	}
	var buf bytes.Buffer
	n, err := l.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(SuperBytes+20*BlockBytes) {
		t.Fatalf("wrote %d bytes", n)
	}
	got, read, err := ReadLog(&buf, 0)
	if err != nil || read != 20 {
		t.Fatalf("read=%d err=%v", read, err)
	}
	if got.Blocks() != l.Blocks() || got.Start() != l.Start() {
		t.Fatalf("watermark lost: got blocks=%d start=%d, want %d/%d",
			got.Blocks(), got.Start(), l.Blocks(), l.Start())
	}
	// Recovery equivalence: both logs patch identically for every epoch.
	for e := mem.EpochID(0); e <= till; e++ {
		a, b := mem.NewImage(), mem.NewImage()
		l.ApplyTo(a, e)
		got.ApplyTo(b, e)
		if !a.Equal(b) {
			t.Fatalf("epoch %d: reconstructed log recovers differently", e)
		}
	}
}

func TestReadLogStopsAtTornTail(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	l := NewLog(0)
	l.AppendBlock(randomEntries(r, 3))
	l.AppendBlock(randomEntries(r, 3))
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Torn tail: the crash interrupted the last 2 KB row write.
	torn := buf.Bytes()[:SuperBytes+BlockBytes+700]
	got, read, err := ReadLog(bytes.NewReader(torn), 0)
	if err != nil || read != 1 {
		t.Fatalf("read=%d err=%v, want the single whole block", read, err)
	}
	if got.Blocks() != 1 {
		t.Fatalf("blocks = %d", got.Blocks())
	}
	// Corrupt tail (full-size but scribbled): also a clean stop.
	scribbled := append([]byte(nil), buf.Bytes()...)
	scribbled[SuperBytes+BlockBytes+50] ^= 0xff
	got, read, err = ReadLog(bytes.NewReader(scribbled), 0)
	if err != nil || read != 1 {
		t.Fatalf("corrupt tail: read=%d err=%v", read, err)
	}
	_ = got
}

// TestSuperRoundTrip pins the superblock codec: geometry and version
// survive, corruption is detected, and the wrong version is rejected.
func TestSuperRoundTrip(t *testing.T) {
	s := Super{Version: SuperVersion, RegionBytes: 1 << 20, Start: 17}
	raw := EncodeSuper(s)
	if len(raw) != SuperBytes {
		t.Fatalf("superblock is %d bytes", len(raw))
	}
	got, err := DecodeSuper(raw)
	if err != nil || got != s {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[9] ^= 1
	if _, err := DecodeSuper(flipped); !errors.Is(err, ErrCorruptSuper) {
		t.Fatalf("bit flip err = %v, want ErrCorruptSuper", err)
	}
	if _, err := DecodeSuper(raw[:10]); !errors.Is(err, ErrCorruptSuper) {
		t.Fatalf("short super err = %v, want ErrCorruptSuper", err)
	}
	// A future format version must be refused, CRC-valid or not.
	vnext := EncodeSuper(Super{Version: SuperVersion + 1, RegionBytes: 4096})
	if _, err := DecodeSuper(vnext); !errors.Is(err, ErrCorruptSuper) {
		t.Fatalf("future version err = %v, want ErrCorruptSuper", err)
	}
}

// TestGCPrefixRoundTrip is the fidelity fix this format version exists
// for: a log whose prefix was garbage-collected must re-read with the
// same block numbering (start index), so durable watermarks computed
// before serialization (Blocks, TruncateTo arguments) stay meaningful.
func TestGCPrefixRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	l := NewLog(0)
	for till := mem.EpochID(1); till <= 10; till++ {
		entries := randomEntries(r, EntriesPerBlock)
		for i := range entries {
			entries[i].ValidFrom = till - 1
			entries[i].ValidTill = till
		}
		l.AppendBlock(entries)
	}
	if freed := l.GC(4); freed != 4*BlockBytes {
		t.Fatalf("GC freed %d bytes", freed)
	}
	if l.Start() != 4 || l.Blocks() != 10 {
		t.Fatalf("start=%d blocks=%d after GC", l.Start(), l.Blocks())
	}

	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, read, err := ReadLog(&buf, 0)
	if err != nil || read != 6 {
		t.Fatalf("read=%d err=%v", read, err)
	}
	if got.Start() != 4 || got.Blocks() != 10 {
		t.Fatalf("round trip renumbered: start=%d blocks=%d, want 4/10", got.Start(), got.Blocks())
	}
	// The restored watermark must accept the same TruncateTo arguments.
	got.TruncateTo(8)
	if got.Blocks() != 8 {
		t.Fatalf("TruncateTo(8) left %d blocks", got.Blocks())
	}
	for e := mem.EpochID(4); e <= 8; e++ {
		a, b := mem.NewImage(), mem.NewImage()
		l.ApplyTo(a, e)
		reread, _, _ := ReadLog(func() *bytes.Buffer { var bb bytes.Buffer; l.WriteTo(&bb); return &bb }(), 0)
		reread.ApplyTo(b, e)
		if !a.Equal(b) {
			t.Fatalf("epoch %d: GC'd log recovers differently after round trip", e)
		}
	}
}

// TestReadLogEmptyAndHeaderless: an empty region is an empty log; a
// region with garbage where the superblock belongs is unusable.
func TestReadLogEmptyAndHeaderless(t *testing.T) {
	l, read, err := ReadLog(bytes.NewReader(nil), 0)
	if err != nil || read != 0 || l.Blocks() != 0 {
		t.Fatalf("empty: read=%d blocks=%d err=%v", read, l.Blocks(), err)
	}
	if _, _, err := ReadLog(bytes.NewReader(make([]byte, 30)), 0); !errors.Is(err, ErrCorruptSuper) {
		t.Fatalf("short header err = %v, want ErrCorruptSuper", err)
	}
	garbage := make([]byte, SuperBytes+BlockBytes)
	for i := range garbage {
		garbage[i] = byte(i * 7)
	}
	if _, _, err := ReadLog(bytes.NewReader(garbage), 0); !errors.Is(err, ErrCorruptSuper) {
		t.Fatalf("garbage header err = %v, want ErrCorruptSuper", err)
	}
}
