package exp

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// Committed SHA-256 digests of the rendered evaluation outputs at the
// paper's miniature scale (Scaled, 1/64). The fig9 digests were captured
// BEFORE the PR 4 performance work and must survive it and every future
// optimization byte for byte: any change to eviction order, LRU
// tie-breaks, RNG draw sequence, scheduler interleaving, or table
// formatting shows up here first. cmd/picl-perf records the same digests
// into BENCH_PR4.json, so CI cross-checks them on every run.
const (
	// Fig9 over goldenSubset (the bench_test.go benchSubset).
	goldenFig9SHA = "60a33812fa4860dc8896c037523ede10f69b678fae84b5463f1e32dda98b8a02"
	// Fig9 over goldenShortSubset (the cheap CI subset).
	goldenFig9ShortSHA = "9d85443942e10cc518eb2c5118daabd58f4a85ebf2d06658c7e670b3805d4d89"
	// Table5 (workload mix table; scale-independent).
	goldenTable5SHA = "777eca81ed9d0f6d9f8473b7d4657bea1fb7f0845bceb165c4ed23cb0e15c18e"
	// Fig10 at testScale: the eight 8-core mixes contending for one
	// shared LLC and NVM controller (paper §VI-B).
	goldenFig10TestSHA = "36e148180626c62ad4dfcd78f0914b6a7645018587e2b9359c6970a63382c0df"
)

var (
	goldenSubset      = []string{"gcc", "bzip2", "mcf", "astar", "lbm", "libquantum", "gamess", "povray"}
	goldenShortSubset = []string{"gcc", "lbm"}
)

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// TestGoldenOutputDigests renders Fig. 9 and Table 5 at the real
// miniature scale, serially and with a parallel worker pool, and pins
// every rendering to the committed pre-optimization digests. In -short
// mode (and under the race detector, where a full-subset run costs
// minutes) only the two-workload subset runs; the full subset is the
// default `go test` path.
func TestGoldenOutputDigests(t *testing.T) {
	subset, want := goldenSubset, goldenFig9SHA
	if testing.Short() || raceEnabled {
		subset, want = goldenShortSubset, goldenFig9ShortSHA
	}
	for _, jobs := range []int{1, 8} {
		r := NewRunner(Scaled())
		r.Jobs = jobs
		tb, err := r.Fig9(subset)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(tb.String()); got != want {
			t.Errorf("Fig9(%d benches) -j %d digest %s, want committed %s\n%s",
				len(subset), jobs, got, want, tb.String())
		}
	}
	if got := sha(Table5()); got != goldenTable5SHA {
		t.Errorf("Table5 digest %s, want committed %s", got, goldenTable5SHA)
	}
}

// TestFig10GoldenDigest pins the multicore figure byte for byte at the
// unit-test scale, serially and with a parallel worker pool: the cells
// are the paper's shared-LLC machines, so any change to contention in
// the shared hierarchy or the NVM queue shows up here.
func TestFig10GoldenDigest(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		r := NewRunner(testScale())
		r.Jobs = jobs
		tb, err := r.Fig10()
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(tb.String()); got != goldenFig10TestSHA {
			t.Errorf("Fig10 -j %d digest %s, want committed %s\n%s",
				jobs, got, goldenFig10TestSHA, tb.String())
		}
	}
}
