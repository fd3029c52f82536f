package storage

import (
	"math/rand"
	"path/filepath"
	"testing"

	"picl/internal/mem"
	"picl/internal/undolog"
)

// benchImage opens an image of 2^16 lines, each holding one record.
func benchImage(b *testing.B) *ImageFile {
	b.Helper()
	im, err := OpenImage(filepath.Join(b.TempDir(), ImageFileName))
	if err != nil {
		b.Fatal(err)
	}
	for l := 0; l < 1<<16; l++ {
		if err := im.WriteLine(mem.LineAddr(l), mem.Word(l)|1); err != nil {
			b.Fatal(err)
		}
	}
	if err := im.commit(1); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { im.Close() })
	return im
}

// BenchmarkImageSync is one durable commit's image layer: stage the 64
// lines a commit writes back into a 2^16-line image, then write them
// at the sealed end, sealed by a commit record (the marker Set). random
// draws the lines uniformly, as the durable-commit workload does;
// adjacent writes 64 consecutive lines from a random start.
func BenchmarkImageSync(b *testing.B) {
	for _, tc := range []struct {
		name     string
		adjacent bool
	}{{"random", false}, {"adjacent", true}} {
		b.Run(tc.name, func(b *testing.B) {
			im := benchImage(b)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := rng.Intn(1<<16 - 64)
				for k := 0; k < 64; k++ {
					l := start + k
					if !tc.adjacent {
						l = rng.Intn(1 << 16)
					}
					if err := im.WriteLine(mem.LineAddr(l), mem.Word(i)|1); err != nil {
						b.Fatal(err)
					}
				}
				if err := im.commit(mem.EpochID(i + 2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogAppendSync is the undo log's share of a flush: one 2 KB
// block append to a storage.File, then Sync.
func BenchmarkLogAppendSync(b *testing.B) {
	lf, err := OpenFile(filepath.Join(b.TempDir(), LogFileName), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer lf.Close()
	raw, err := undolog.EncodeBlock(undolog.Block{
		Entries:      []undolog.Entry{{Line: 1, ValidTill: 1, Old: 7}},
		MaxValidTill: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lf.AppendBlock(raw); err != nil {
			b.Fatal(err)
		}
		if err := lf.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
