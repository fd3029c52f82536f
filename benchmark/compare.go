package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// compareDirs prints, for each workload and each end-to-end metric it
// reports (endToEnd and named), the medians and quartiles of the reports
// in two directories and B's verdict against A (see verdict). It fails
// when a metric is worse, and counts the unresolved ones.
func compareDirs(dirA, dirB string, stdout, stderr io.Writer) int {
	a, err := loadReports(dirA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := loadReports(dirB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defs := append(append([]metricDef(nil), endToEnd...), named...)
	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-15s %-20s %5s %12s %25s %5s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "n(A)", "median(A)", "[q1, q3](A)", "n(B)", "median(B)", "[q1, q3](B)", "change", "bound", "verdict")
	for _, w := range workloads {
		if len(a[w.name]) == 0 || len(b[w.name]) == 0 {
			fmt.Fprintf(stdout, "%-15s skipped: no untraced runs in one of the directories\n", w.name)
			continue
		}
		for _, d := range defs {
			if !d.reports(w.name) {
				continue
			}
			va, vb := values(a[w.name], d.name), values(b[w.name], d.name)
			if len(va) == 0 || len(vb) == 0 {
				counts["unresolved"]++
				fmt.Fprintf(stdout, "%-15s %-20s %5d %12s %25s %5d %12s %25s %8s %5.0f%%  unresolved (not measured)\n",
					w.name, d.name, len(va), "-", "-", len(vb), "-", "-", "-", d.bound*100)
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			v := verdict(d, va, vb)
			counts[v]++
			change := "n/a"
			if ma > 0 {
				change = fmt.Sprintf("%+.2f%%", (mb-ma)/ma*100)
			}
			fmt.Fprintf(stdout, "%-15s %-20s %5d %12.5g %25s %5d %12.5g %25s %8s %5.0f%%  %s\n",
				w.name, d.name, len(va), ma, iqr(va), len(vb), mb, iqr(vb), change, d.bound*100, v)
		}
	}
	fmt.Fprintf(stdout, "verdicts: %d within, %d better, %d worse, %d unresolved\n",
		counts["within"], counts["better"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

func iqr(xs []float64) string {
	return fmt.Sprintf("[%.5g, %.5g]", quantile(xs, 0.25), quantile(xs, 0.75))
}

// verdict judges B against A for one metric: worse or better when B's
// median moved past the bound, within when it did not, and unresolved
// when either side's quartile spread is wider than the bound, unless
// every run of one side beats every run of the other. A metric with
// bound 0 (exact, or failures) compares the worst run of each side.
func verdict(d metricDef, a, b []float64) string {
	if d.bound <= 0 {
		worse := worstOf(d, b) - worstOf(d, a)
		if d.better == "higher" {
			worse = -worse
		}
		switch {
		case worse > 0:
			return "worse"
		case worse < 0:
			return "better"
		}
		return "within"
	}
	ma, mb := quantile(a, 0.5), quantile(b, 0.5)
	worse := (mb - ma) / ma // share by which B is worse than A
	if d.better == "higher" {
		worse = -worse
	}
	spreadA := (quantile(a, 0.75) - quantile(a, 0.25)) / ma
	spreadB := (quantile(b, 0.75) - quantile(b, 0.25)) / mb
	if spreadA > d.bound || spreadB > d.bound {
		switch {
		case allBetter(d, b, a):
			return "better"
		case allBetter(d, a, b):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > d.bound:
		return "worse"
	case -worse > d.bound:
		return "better"
	}
	return "within"
}

// worstOf returns the worst of xs for metric d.
func worstOf(d metricDef, xs []float64) float64 {
	if d.better == "lower" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// allBetter reports whether every value of x is better than every value
// of y.
func allBetter(d metricDef, x, y []float64) bool {
	for _, vx := range x {
		for _, vy := range y {
			if (d.better == "higher" && vx <= vy) || (d.better == "lower" && vx >= vy) {
				return false
			}
		}
	}
	return true
}

func values(reps []*Report, name string) []float64 {
	var out []float64
	for _, r := range reps {
		for _, m := range []map[string]Metric{r.EndToEnd, r.Named} {
			if v, ok := m[name]; ok && v.Skipped == "" {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// loadReports reads the untraced reports of a directory, by workload.
func loadReports(dir string) (map[string][]*Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*Report{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &Report{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced reports in %s", dir)
	}
	return out, nil
}
