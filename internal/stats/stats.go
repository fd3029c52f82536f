// Package stats provides the metric containers and table rendering shared
// by the simulator, the experiment harness, and the benchmarks. The
// paper's figures are ratios (execution time, commit counts, IOPS
// normalized to an ideal-NVM baseline), so the package centers on counter
// sets plus geometric-mean aggregation, which is what the paper's GMean
// columns use.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counters is a named bag of monotonically increasing uint64 metrics.
// All methods are safe for concurrent use: a simulation's scheme writes
// its own bag from one goroutine while the experiment harness reads
// completed bags from worker threads (internal/exp runs the evaluation
// matrix across a pool), so the bag carries its own lock rather than
// relying on callers to serialize.
type Counters struct {
	mu      sync.Mutex
	m       map[string]uint64
	handles map[string]*uint64
}

// NewCounters returns an empty counter bag.
func NewCounters() *Counters { return &Counters{m: make(map[string]uint64)} }

// Handle is a live reference to a single counter. Hot paths bump it with
// one atomic add, bypassing the bag's mutex and the per-call map hashing
// of Add; the accumulated value is folded into the bag on every read
// (Get, Snapshot, Names, String). A handle counter materializes in
// the bag only once a nonzero total has been added — unlike Add, which
// creates the name even at delta zero — so reserve handles for event
// paths that always count at least one.
type Handle struct{ p *uint64 }

// Add increments the handle's counter.
func (h Handle) Add(delta uint64) { atomic.AddUint64(h.p, delta) }

// Handle returns the hot-path handle for name, creating it on first use.
// Handles for the same name share one accumulator.
func (c *Counters) Handle(name string) Handle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.handles == nil {
		c.handles = make(map[string]*uint64)
	}
	p, ok := c.handles[name]
	if !ok {
		p = new(uint64)
		c.handles[name] = p
	}
	return Handle{p: p}
}

// foldLocked drains pending handle increments into the map; mu is held.
func (c *Counters) foldLocked() {
	for k, p := range c.handles {
		if v := atomic.SwapUint64(p, 0); v != 0 {
			c.m[k] += v
		}
	}
}

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta uint64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Set overwrites counter name, discarding any pending handle increments.
func (c *Counters) Set(name string, v uint64) {
	c.mu.Lock()
	if p, ok := c.handles[name]; ok {
		atomic.StoreUint64(p, 0)
	}
	c.m[name] = v
	c.mu.Unlock()
}

// Get returns counter name (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked()
	return c.m[name]
}

// Names returns all counter names in sorted order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	c.foldLocked()
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// Snapshot returns a point-in-time copy of the bag's contents.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Clone returns a new bag holding a point-in-time copy of c's values:
// later increments to c do not reach it.
func (c *Counters) Clone() *Counters { return &Counters{m: c.Snapshot()} }

// String renders the counters one per line, sorted by name.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-28s %d\n", k, snap[k])
	}
	return b.String()
}

// PromText renders metrics in the Prometheus text exposition format:
// one `# TYPE` header and one sample per metric, prefixed (typically
// "picl_") and sorted by name so output bytes are deterministic. Metric
// names are sanitized to the Prometheus charset ([a-z0-9_], lowercase).
// The engine's metrics are all monotone counts, so every metric is
// exposed as a counter.
func PromText(prefix string, metrics map[string]uint64) string {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		name := prefix + sanitizeMetricName(k)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, metrics[k])
	}
	return b.String()
}

// sanitizeMetricName maps an arbitrary counter name onto the Prometheus
// metric-name charset.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// GeoMean returns the geometric mean of xs. Non-positive samples are
// clamped to a tiny epsilon so a pathological zero does not collapse the
// whole mean; the paper's normalized ratios are always positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (the paper's Fig. 13 uses AMean).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table accumulates rows of labeled float columns and renders them as an
// aligned text table, the output format of cmd/picl-bench.
type Table struct {
	Title   string
	Columns []string
	rows    []row
	format  string
}

type row struct {
	label string
	vals  []float64
}

// NewTable creates a table with the given title and column headers.
// Values render with %8.3f by default; use SetFormat to change.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns, format: "%10.3f"}
}

// SetFormat overrides the per-cell printf verb (e.g. "%10.1f", "%10.0f").
func (t *Table) SetFormat(f string) { t.format = f }

// AddRow appends a labeled row. Missing values render blank; extra values
// beyond the declared columns are dropped.
func (t *Table) AddRow(label string, vals ...float64) {
	t.rows = append(t.rows, row{label: label, vals: vals})
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Row returns the label and values of row i.
func (t *Table) Row(i int) (string, []float64) { return t.rows[i].label, t.rows[i].vals }

// Column extracts one column as a slice (rows lacking the column are
// skipped), used to compute GMean rows.
func (t *Table) Column(name string) []float64 {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	var out []float64
	for _, r := range t.rows {
		if idx < len(r.vals) {
			out = append(out, r.vals[idx])
		}
	}
	return out
}

// AddGeoMeanRow appends a "GMean" row computed over all current rows.
func (t *Table) AddGeoMeanRow() {
	vals := make([]float64, len(t.Columns))
	for i, c := range t.Columns {
		vals[i] = GeoMean(t.Column(c))
	}
	t.rows = append(t.rows, row{label: "GMean", vals: vals})
}

// AddMeanRow appends an "AMean" row computed over all current rows.
func (t *Table) AddMeanRow() {
	vals := make([]float64, len(t.Columns))
	for i, c := range t.Columns {
		vals[i] = Mean(t.Column(c))
	}
	t.rows = append(t.rows, row{label: "AMean", vals: vals})
}

// CSV renders the table as comma-separated values (label column first).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(r.label)
		for i := range t.Columns {
			b.WriteByte(',')
			if i < len(r.vals) {
				fmt.Fprintf(&b, "%g", r.vals[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	labelW := 12
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.label)
		for i := range t.Columns {
			if i < len(r.vals) {
				fmt.Fprintf(&b, " "+t.format, r.vals[i])
			} else {
				fmt.Fprintf(&b, " %10s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
