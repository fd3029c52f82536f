package mem

import (
	"slices"
	"testing"
)

// TestImageEach: Each visits exactly the non-zero lines, once apiece;
// a line deleted by writing zero is not visited.
func TestImageEach(t *testing.T) {
	im := NewImage()
	im.Write(3, 30)
	im.Write(5, 50)
	im.Write(9, 90)
	im.Write(5, 0) // delete

	got := map[LineAddr]Word{}
	im.Each(func(l LineAddr, w Word) {
		if _, dup := got[l]; dup {
			t.Fatalf("line %d visited twice", l)
		}
		got[l] = w
	})
	if len(got) != 2 || got[3] != 30 || got[9] != 90 {
		t.Fatalf("Each visited %v", got)
	}
}

// TestImageEachAscending: Each visits lines in ascending address order
// whatever order they were written in, across and within pages, so two
// images with one content serialize identically.
func TestImageEachAscending(t *testing.T) {
	lines := []LineAddr{5 * LinesPerPage, 3, 2*LinesPerPage + 7, 0, LinesPerPage - 1, 2 * LinesPerPage, 1 << 40}
	a, b := NewImage(), NewImage()
	for i, l := range lines {
		a.Write(l, Word(l+1))
		b.Write(lines[len(lines)-1-i], Word(lines[len(lines)-1-i]+1))
	}
	visit := func(im *Image) []LineAddr {
		var got []LineAddr
		im.Each(func(l LineAddr, w Word) {
			if w != Word(l+1) {
				t.Fatalf("line %d holds %d, want %d", l, w, l+1)
			}
			got = append(got, l)
		})
		return got
	}
	got := visit(a)
	if !slices.IsSorted(got) || len(got) != len(lines) {
		t.Fatalf("Each visited %v, want the %d lines ascending", got, len(lines))
	}
	if !slices.Equal(got, visit(b)) {
		t.Fatal("two images with one content visit differently")
	}
}

// TestImagePages: a page leaves the table when its last non-zero line
// is zeroed, so Len, Equal and Diff see only content, and a clone's
// pages (one slab) are detached from the source's and from each other.
func TestImagePages(t *testing.T) {
	im := NewImage()
	im.Write(LinesPerPage+1, 7)
	im.Write(LinesPerPage+2, 8)
	im.Write(0, 0) // a zero write to an absent page allocates nothing
	if im.Len() != 2 || len(im.pages) != 1 {
		t.Fatalf("Len %d over %d pages, want 2 over 1", im.Len(), len(im.pages))
	}
	c := im.Clone()
	im.Write(LinesPerPage+1, 0)
	im.Write(LinesPerPage+2, 0)
	if im.Len() != 0 || len(im.pages) != 0 || !im.Equal(NewImage()) {
		t.Fatalf("zeroed image: Len %d over %d pages, want an empty table", im.Len(), len(im.pages))
	}
	if c.Len() != 2 || c.Read(LinesPerPage+1) != 7 {
		t.Fatal("clearing the source reached the clone")
	}
	c.Write(3*LinesPerPage, 9)
	c.Write(LinesPerPage+2, 0)
	if got := c.Diff(NewImage(), 10); !slices.Equal(got, []LineAddr{LinesPerPage + 1, 3 * LinesPerPage}) {
		t.Fatalf("Diff against empty = %v", got)
	}
}
