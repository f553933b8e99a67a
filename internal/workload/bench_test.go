package workload

import (
	"testing"

	"impact/internal/core"
	"impact/internal/interp"
	"impact/internal/layout"
	"impact/internal/profile"
)

// The substrate micro-benchmarks: generation, execution, profiling,
// and the placement pipeline, all on one mid-sized benchmark.

func BenchmarkGenerateSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Suite(0.1)
	}
}

func BenchmarkExecutionEngine(b *testing.B) {
	bench := ByName("yacc", 0.1)
	eng := interp.NewEngine(bench.Prog)
	cfg := bench.EvalConfig()
	counts := eng.NewCounts()
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Count(uint64(i), cfg, counts)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(instrs)/float64(b.N)/1e6, "Minstrs/run")
	}
}

func BenchmarkProfileRun(b *testing.B) {
	bench := ByName("yacc", 0.1)
	cfg := profile.Config{Seeds: bench.ProfileSeeds[:2], Interp: bench.InterpConfig()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := profile.Profile(bench.Prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizePipeline(b *testing.B) {
	bench := ByName("yacc", 0.1)
	cfg := core.DefaultConfig(bench.ProfileSeeds...)
	cfg.Interp = bench.InterpConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(bench.Prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	bench := ByName("yacc", 0.1)
	lay := layout.Natural(bench.Prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _, err := layout.Trace(lay, bench.EvalSeed, bench.EvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(tr.Instrs) * 4)
	}
}
