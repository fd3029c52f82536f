package mem

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// swapRef is the reference an Image is checked against: a plain map of
// the non-zero lines, and the map as it stood at each history mark.
type swapRef struct {
	lines map[LineAddr]Word
	marks []map[LineAddr]Word
}

// runSwapOps drives im and a reference map through the operations
// encoded in ops, three bytes each: an opcode, a line among four pages
// (so consecutive writes stay on the memoized page or leave it), and a
// word that is zero half the time (so pages drop out of the table and
// come back). After every operation im must hold exactly the
// reference's lines.
func runSwapOps(t *testing.T, ops []byte) {
	t.Helper()
	im := NewImage()
	ref := swapRef{lines: map[LineAddr]Word{}}
	set := func(l LineAddr, w Word) {
		if w == 0 {
			delete(ref.lines, l)
		} else {
			ref.lines[l] = w
		}
	}
	for i := 0; i+3 <= len(ops); i += 3 {
		op, a, v := ops[i], ops[i+1], ops[i+2]
		l := PageAddr(a&3).FirstLine() + LineAddr(a>>2)
		w := Word(v) * Word(v&1)
		switch op % 6 {
		case 0, 1:
			if old := im.Swap(l, w); old != ref.lines[l] {
				t.Fatalf("op %d: Swap(%v, %d) = %d, want %d", i/3, l, w, old, ref.lines[l])
			}
			set(l, w)
		case 2:
			im.Write(l, w)
			set(l, w)
		case 3:
			if got := im.Read(l); got != ref.lines[l] {
				t.Fatalf("op %d: Read(%v) = %d, want %d", i/3, l, got, ref.lines[l])
			}
		case 4:
			// A clone starts with no memo of its own, and writing it
			// leaves the original alone.
			c := im.Clone()
			c.Write(l, ref.lines[l]+1)
			want := maps.Clone(ref.lines)
			want[l] = ref.lines[l] + 1
			checkSwapRef(t, c, want)
		case 5:
			if !im.track {
				im.EnableHistory()
				ref.marks = []map[LineAddr]Word{maps.Clone(ref.lines)}
			} else {
				im.Mark()
				ref.marks = append(ref.marks, maps.Clone(ref.lines))
			}
		}
		checkSwapRef(t, im, ref.lines)
	}
	for k, want := range ref.marks {
		checkSwapRef(t, im.At(k), want)
	}
}

// checkSwapRef checks that im holds exactly the lines of ref: by Read,
// by Len, by Each in ascending order, and by Equal against an image
// built from ref one line at a time in descending order.
func checkSwapRef(t *testing.T, im *Image, ref map[LineAddr]Word) {
	t.Helper()
	if im.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", im.Len(), len(ref))
	}
	want := make([]LineAddr, 0, len(ref))
	for l := range ref {
		want = append(want, l)
	}
	slices.Sort(want)
	var got []LineAddr
	im.Each(func(l LineAddr, w Word) {
		if ref[l] != w {
			t.Fatalf("Each: line %v holds %d, want %d", l, w, ref[l])
		}
		got = append(got, l)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Each visits %v, want %v", got, want)
	}
	built := NewImage()
	for i := len(want) - 1; i >= 0; i-- {
		l := want[i]
		if im.Read(l) != ref[l] {
			t.Fatalf("Read(%v) = %d, want %d", l, im.Read(l), ref[l])
		}
		built.Write(l, ref[l])
	}
	if !im.Equal(built) || !built.Equal(im) {
		t.Fatalf("image differs from one built line by line: %v", im.Diff(built, 4))
	}
}

// TestImageSwapDifferential runs seeded random operation sequences
// through runSwapOps.
func TestImageSwapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		ops := make([]byte, 3*(1+rng.Intn(300)))
		rng.Read(ops)
		runSwapOps(t, ops)
	}
}

// FuzzImageSwap is TestImageSwapDifferential's coverage-guided form.
func FuzzImageSwap(f *testing.F) {
	f.Add([]byte{0, 4, 7, 0, 4, 0, 0, 8, 9, 3, 8, 0})          // drop the page, re-create it
	f.Add([]byte{5, 0, 0, 0, 1, 3, 5, 0, 0, 2, 1, 0, 4, 2, 1}) // history, a drop, a clone
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 0, 0, 0, 1, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runSwapOps(t, ops)
	})
}
