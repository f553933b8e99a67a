package sweep

import (
	"testing"

	"impact/internal/cache"
	"impact/internal/smith"
)

// BenchmarkTable1DirectMapped measures Table 1's 16 direct-mapped
// organisations (smith.CacheSizes × smith.BlockSizes) on one synthetic
// trace: "plan" is the path every caller takes (sweep.NewPlan, which
// puts them all in one forest), "replay" the broadcast replay that
// measured them before the forest, for comparing simulator kernels
// with go test -bench.
func BenchmarkTable1DirectMapped(b *testing.B) {
	var cfgs []cache.Config
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			cfgs = append(cfgs, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1})
		}
	}
	tr := genTrace(1989, 40000)
	b.Run("plan", func(b *testing.B) {
		b.SetBytes(int64(tr.Instrs) * cache.WordBytes)
		for i := 0; i < b.N; i++ {
			pl, err := NewPlan(cfgs...)
			if err != nil {
				b.Fatal(err)
			}
			tr.Replay(pl)
			pl.Stats()
		}
	})
	b.Run("replay", func(b *testing.B) {
		b.SetBytes(int64(tr.Instrs) * cache.WordBytes)
		for i := 0; i < b.N; i++ {
			s, err := cache.NewSinkSimulator(cfgs...)
			if err != nil {
				b.Fatal(err)
			}
			tr.Replay(s)
			s.Stats()
		}
	})
}
