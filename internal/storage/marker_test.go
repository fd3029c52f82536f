package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
)

// markerAfter returns a marker file at a fresh path after Set(1) and
// Set(2): slot 1 holds epoch 1 (sequence 1), slot 0 epoch 2 (sequence
// 2), and the next Set writes slot 1.
func markerAfter(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), MarkerFileName)
	mk, err := OpenMarker(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []mem.EpochID{1, 2} {
		if err := mk.Set(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := mk.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// getMarker opens the marker file at path and reads it.
func getMarker(t *testing.T, path string) (mem.EpochID, bool, error) {
	t.Helper()
	mk, err := OpenMarker(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mk.Close()
	e, err := mk.Get()
	return e, mk.Torn(), err
}

// TestMarkerTornSlotMatrix is the marker's crash matrix: a power cut
// during Set(3) can leave any prefix of the new record over the older
// slot, or that slot full of garbage, and media rot can strike the
// older slot. In every case Get returns the last completed epoch (2) and
// reports the tear; the slot holding it is never written.
func TestMarkerTornSlotMatrix(t *testing.T) {
	path, base := markerAfter(t)
	rec := encodeMarker(3, 3)
	type slotCase struct {
		name  string
		write []byte // bytes landing at the start of slot 1
	}
	var cases []slotCase
	for n := 1; n < markerRecBytes; n++ {
		cases = append(cases, slotCase{"prefix", rec[:n]})
	}
	cases = append(cases,
		slotCase{"garbage", bytes.Repeat([]byte{0xA5}, markerRecBytes)},
		slotCase{"zeroed", make([]byte, markerRecBytes)},
	)
	for bit := 0; bit < markerRecBytes*8; bit += 7 {
		rot := append([]byte(nil), base[markerSlotStride:markerSlotStride+markerRecBytes]...)
		rot[bit/8] ^= 1 << (bit % 8)
		cases = append(cases, slotCase{"rot", rot})
	}
	for i, c := range cases {
		raw := append([]byte(nil), base...)
		copy(raw[markerSlotStride:], c.write)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, torn, err := getMarker(t, path)
		if err != nil || e != 2 || !torn {
			t.Fatalf("case %d (%s, %d bytes): got epoch %d torn=%v err=%v, want 2 torn",
				i, c.name, len(c.write), e, torn, err)
		}
	}
	// The whole record landing is a completed Set.
	raw := append([]byte(nil), base...)
	copy(raw[markerSlotStride:], rec[:])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if e, torn, err := getMarker(t, path); err != nil || e != 3 || torn {
		t.Fatalf("completed set: got %d torn=%v err=%v, want 3", e, torn, err)
	}
}

// TestMarkerRotNewest: rot in the slot holding the newest marker looks
// like a torn Set, so Get lands one marker back and reports the tear
// (DESIGN.md §10.2 says why that checkpoint is still consistent).
func TestMarkerRotNewest(t *testing.T) {
	path, raw := markerAfter(t)
	raw[3] ^= 0x10 // slot 0: epoch 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if e, torn, err := getMarker(t, path); err != nil || e != 1 || !torn {
		t.Fatalf("got %d torn=%v err=%v, want 1 torn", e, torn, err)
	}
}

// TestMarkerRejectsInvalid: both slots invalid, a file of the wrong
// size, or a 16-byte marker of the older rename-replaced format is an
// error from Get and from Set — never epoch 0, never overwritten.
func TestMarkerRejectsInvalid(t *testing.T) {
	_, good := markerAfter(t)
	both := append([]byte(nil), good...)
	both[0] ^= 1
	both[markerSlotStride] ^= 1
	legacy := make([]byte, 16) // epoch 7, its CRC32C, padding
	binary.LittleEndian.PutUint64(legacy[0:8], 7)
	binary.LittleEndian.PutUint32(legacy[8:12], crc32.Checksum(legacy[0:8], castagnoli))
	cases := map[string][]byte{
		"both slots invalid": both,
		"short":              good[:markerFileBytes-1],
		"long":               append(append([]byte(nil), good...), 0),
		"empty":              {},
		"legacy 16-byte":     legacy,
	}
	for name, raw := range cases {
		path := filepath.Join(t.TempDir(), MarkerFileName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if e, _, err := getMarker(t, path); err == nil {
			t.Errorf("%s: Get = %d with no error", name, e)
		}
		mk, err := OpenMarker(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := mk.Set(9); err == nil {
			t.Errorf("%s: Set over an invalid marker succeeded", name)
		}
		mk.Close()
		if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
			t.Errorf("%s: invalid marker file was modified", name)
		}
	}
}

// TestMarkerCreationCrash: a crash while OpenMarker builds the layout
// leaves the marker absent, with no marker.tmp or a marker.tmp holding
// any prefix of the layout (the rename is the commit point, and the tmp
// is fsynced before it). Each such store recovers epoch 0 with no tear
// and no tmp left behind; so does one whose rename landed.
func TestMarkerCreationCrash(t *testing.T) {
	var layout [markerFileBytes]byte
	rec := encodeMarker(0, 0)
	copy(layout[0:], rec[:])
	copy(layout[markerSlotStride:], rec[:])
	for _, n := range []int{-1, 0, 1, markerRecBytes - 1, markerRecBytes, markerSlotStride,
		markerSlotStride + markerRecBytes, markerFileBytes - 1, markerFileBytes} {
		for _, renamed := range []bool{false, true} {
			if renamed && n != markerFileBytes {
				continue
			}
			dir := t.TempDir()
			name := MarkerFileName + ".tmp"
			if renamed {
				name = MarkerFileName
			}
			if n >= 0 {
				if err := os.WriteFile(filepath.Join(dir, name), layout[:n], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, info, err := RecoverDir(dir)
			if err != nil || !info.Marker.AtMost(0) || info.MarkerTorn {
				t.Fatalf("tmp %d bytes renamed=%v: marker %d torn=%v err=%v, want 0",
					n, renamed, info.Marker, info.MarkerTorn, err)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("tmp %d bytes: %v survive", n, tmps)
			}
			if raw, err := os.ReadFile(filepath.Join(dir, MarkerFileName)); err != nil || !bytes.Equal(raw, layout[:]) {
				t.Fatalf("tmp %d bytes: marker is not the fresh layout (err=%v)", n, err)
			}
		}
	}
}

// BenchmarkMarkerSet times one durable marker advance: a positional
// write of one slot and an fsync of the marker file.
func BenchmarkMarkerSet(b *testing.B) {
	mk, err := OpenMarker(filepath.Join(b.TempDir(), MarkerFileName))
	if err != nil {
		b.Fatal(err)
	}
	defer mk.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mk.Set(mem.EpochID(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}
