package exp

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"strings"
	"testing"

	"picl/internal/golden"
)

// The rendered evaluation outputs are pinned by SHA-256 in the model
// registry (internal/golden), under the entries these tests name. The
// Fig. 9 digests were captured before the first performance work and
// must survive every optimization byte for byte: any change to
// eviction order, LRU tie-breaks, RNG draw sequence, scheduler
// interleaving, or table formatting shows up here first.
var (
	goldenSubset      = []string{"gcc", "bzip2", "mcf", "astar", "lbm", "libquantum", "gamess", "povray"}
	goldenShortSubset = []string{"gcc", "lbm"}
)

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// verifyGolden renders each output at scale s at -j 1 and at -j jobs,
// requires the two to agree byte for byte, and checks the renderings
// against the registry; render returns each output's registry entry
// and rendering.
func verifyGolden(t *testing.T, s Scale, jobs int, render func(r *Runner) (map[string]string, error)) {
	t.Helper()
	var runs []golden.Registry
	var texts map[string]string
	for _, j := range []int{1, jobs} {
		r := NewRunner(s)
		r.Jobs = j
		out, err := render(r)
		if err != nil {
			t.Fatal(err)
		}
		got := golden.Registry{}
		for name, text := range out {
			got[name] = sha(text)
		}
		runs, texts = append(runs, got), out
	}
	if !maps.Equal(runs[0], runs[1]) {
		t.Fatalf("-j 1 and -j %d render different bytes: %v vs %v", jobs, runs[0], runs[1])
	}
	if fails := golden.Verify(runs[0]); len(fails) > 0 {
		for _, f := range fails {
			t.Error(f)
		}
		for name, text := range texts {
			t.Logf("%s:\n%s", name, text)
		}
	}
}

// TestGoldenOutputDigests renders Fig. 9 and Table 5 at the real
// miniature scale, serially and with a parallel worker pool. Beside each
// table it pins the exact cycle count of every cell behind it, which
// the table's three decimals would round away. In -short mode (and
// under the race detector, where the eight-benchmark subset costs
// minutes) only the two-workload subset runs; otherwise both do, the
// small one from the runner's memo.
func TestGoldenOutputDigests(t *testing.T) {
	subsets := [][]string{goldenShortSubset, goldenSubset}
	if testing.Short() || raceEnabled {
		subsets = subsets[:1]
	}
	verifyGolden(t, Scaled(), 8, func(r *Runner) (map[string]string, error) {
		out := map[string]string{"table5": Table5()}
		for _, subset := range subsets {
			tb, err := r.Fig9(subset)
			if err != nil {
				return nil, err
			}
			inputs := r.Scale.Name + " " + strings.Join(subset, ",")
			out["fig9 "+inputs] = tb.String()
			var cycles strings.Builder
			for _, b := range subset {
				for _, s := range append([]string{"ideal"}, Schemes...) {
					res := r.MustRun(s, []string{b})
					fmt.Fprintf(&cycles, "%s %s %d\n", b, s, res.Cycles)
				}
			}
			out["fig9-cycles "+inputs] = cycles.String()
		}
		return out, nil
	})
}

// TestFig10GoldenDigest pins the multicore figure byte for byte at the
// unit-test scale, serially and with a parallel worker pool: the cells
// are the paper's shared-LLC machines, so any change to contention in
// the shared hierarchy or the NVM queue shows up here.
func TestFig10GoldenDigest(t *testing.T) {
	verifyGolden(t, testScale(), 2, func(r *Runner) (map[string]string, error) {
		tb, err := r.Fig10()
		if err != nil {
			return nil, err
		}
		return map[string]string{"fig10 " + r.Scale.Name: tb.String()}, nil
	})
}
