package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCountersAddGet(t *testing.T) {
	c := NewCounters()
	c.Add("reads", 3)
	c.Add("reads", 4)
	if got := c.Get("reads"); got != 7 {
		t.Fatalf("Get = %d, want 7", got)
	}
	if got := c.Get("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	c.Set("reads", 1)
	if got := c.Get("reads"); got != 1 {
		t.Fatalf("after Set, Get = %d, want 1", got)
	}
}

func TestCountersMergeAndNames(t *testing.T) {
	// A handle's pending increments merge into the bag's Add total for
	// the same name on every read.
	a := NewCounters()
	a.Add("x", 1)
	a.Handle("x").Add(2)
	a.Handle("y").Add(5)
	if a.Get("x") != 3 || a.Get("y") != 5 {
		t.Fatalf("merge result x=%d y=%d", a.Get("x"), a.Get("y"))
	}
	names := a.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Names = %v", names)
	}
	if !strings.Contains(a.String(), "x") {
		t.Fatal("String omits counter name")
	}
}

// TestCountersClone: a clone holds the values at the time it was taken,
// pending handle increments included, and neither bag sees the other's
// later increments.
func TestCountersClone(t *testing.T) {
	a := NewCounters()
	a.Add("x", 1)
	h := a.Handle("y")
	h.Add(2)
	b := a.Clone()
	a.Add("x", 10)
	h.Add(20)
	b.Add("z", 3)
	if b.Get("x") != 1 || b.Get("y") != 2 || b.Get("z") != 3 {
		t.Fatalf("clone reads x=%d y=%d z=%d, want 1 2 3", b.Get("x"), b.Get("y"), b.Get("z"))
	}
	if a.Get("x") != 11 || a.Get("y") != 22 || a.Get("z") != 0 {
		t.Fatalf("original reads x=%d y=%d z=%d, want 11 22 0", a.Get("x"), a.Get("y"), a.Get("z"))
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v, want 0", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("GeoMean(ones) = %v, want 1", got)
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Property: min <= geomean <= max for positive samples.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "A", "B")
	tb.AddRow("one", 1, 2)
	tb.AddRow("two", 3, 4)
	tb.AddGeoMeanRow()
	s := tb.String()
	for _, want := range []string{"Demo", "one", "two", "GMean", "A", "B"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	if tb.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", tb.Rows())
	}
	label, vals := tb.Row(2)
	if label != "GMean" {
		t.Fatalf("Row(2) label = %q", label)
	}
	if math.Abs(vals[0]-math.Sqrt(3)) > 1e-9 {
		t.Fatalf("GMean col A = %v, want sqrt(3)", vals[0])
	}
}

func TestTableColumnAndMeanRow(t *testing.T) {
	tb := NewTable("", "X")
	tb.AddRow("r1", 2)
	tb.AddRow("r2", 4)
	col := tb.Column("X")
	if len(col) != 2 || col[0] != 2 || col[1] != 4 {
		t.Fatalf("Column = %v", col)
	}
	if got := tb.Column("nope"); got != nil {
		t.Fatalf("missing Column = %v, want nil", got)
	}
	tb.AddMeanRow()
	label, vals := tb.Row(2)
	if label != "AMean" || vals[0] != 3 {
		t.Fatalf("AMean row = %q %v", label, vals)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("short", 1) // missing column B should render blank, not panic
	if s := tb.String(); !strings.Contains(s, "short") {
		t.Fatalf("short row missing: %s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "A", "B")
	tb.AddRow("r1", 1.5, 2)
	tb.AddRow("short", 3)
	csv := tb.CSV()
	want := "label,A,B\nr1,1.5,2\nshort,3,\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestCountersConcurrent(t *testing.T) {
	// Writers and readers race on the same bag; run under -race this
	// enforces the bag's locking discipline.
	src := NewCounters()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				src.Add("ops", 1)
				src.Set("gauge", uint64(i))
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = src.Get("ops")
			_ = src.Names()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = src.String()
			_ = src.Snapshot()
		}
	}()
	wg.Wait()
	if got := src.Get("ops"); got != 4000 {
		t.Fatalf("ops = %d, want 4000", got)
	}
}
