// Package impact's root benchmark harness regenerates every table of
// the paper (Tables 1-9) and the ablation studies as Go benchmarks —
// one benchmark per table, as the repository's DESIGN.md experiment
// index specifies.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The dynamic trace scale defaults to 0.25 of the full experiment (a
// few hundred thousand to ~1.5M instructions per benchmark); set
// IMPACT_BENCH_SCALE=1.0 for full-length traces.
//
// Each benchmark reports the headline number of its table as a custom
// metric so trends are visible straight from the bench output:
//
//	miss2K%    suite-average miss ratio at 2KB/64B (Tables 6/7 rows)
//	traffic2K% suite-average traffic ratio
package impact

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/core/globallayout"
	"impact/internal/experiments"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/paging"
	"impact/internal/profile"
	"impact/internal/search"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		scale := 0.25
		if env := os.Getenv("IMPACT_BENCH_SCALE"); env != "" {
			if v, err := strconv.ParseFloat(env, 64); err == nil && v > 0 {
				scale = v
			}
		}
		suite, suiteErr = experiments.Prepare(scale)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkTable1DesignTarget regenerates Table 1: Smith's design
// target miss ratios vs. the measured fully associative baseline and
// the optimized direct-mapped cache.
func BenchmarkTable1DesignTarget(b *testing.B) {
	s := benchSuite(b)
	var last []experiments.Table1Cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
		last = cells
	}
	b.StopTimer()
	for _, c := range last {
		if c.CacheBytes == 2048 && c.BlockBytes == 64 {
			b.ReportMetric(c.OptimizedDM*100, "optDM2K/64miss%")
			b.ReportMetric(c.Smith*100, "smith2K/64miss%")
		}
	}
}

// BenchmarkTable2Profile regenerates Table 2: benchmark profile
// characteristics.
func BenchmarkTable2Profile(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(s)
	}
	b.StopTimer()
	var instrs uint64
	for _, r := range rows {
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/1e6, "profiledMinstrs")
}

// BenchmarkTable3Inline regenerates Table 3: inline expansion results.
func BenchmarkTable3Inline(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(s)
	}
	b.StopTimer()
	var dec float64
	for _, r := range rows {
		dec += r.CallDec
	}
	b.ReportMetric(dec/float64(len(rows))*100, "avgCallDec%")
}

// BenchmarkTable4TraceSelect regenerates Table 4: trace selection
// results.
func BenchmarkTable4TraceSelect(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(s)
	}
	b.StopTimer()
	var des float64
	for _, r := range rows {
		des += r.Desirable
	}
	b.ReportMetric(des/float64(len(rows))*100, "avgDesirable%")
}

// BenchmarkTable5Sizes regenerates Table 5: static and dynamic code
// sizes.
func BenchmarkTable5Sizes(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table5(s)
	}
	b.StopTimer()
	var eff, total int
	for _, r := range rows {
		eff += r.EffectiveStaticBytes
		total += r.TotalStaticBytes
	}
	b.ReportMetric(float64(eff)/float64(total)*100, "effective%")
}

// BenchmarkTable6CacheSize regenerates Table 6: miss and traffic vs
// cache size (64B blocks, direct-mapped, optimized layout).
func BenchmarkTable6CacheSize(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Table6Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table6(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var m, tr float64
	for _, r := range rows {
		m += r.Results[2048].Miss
		tr += r.Results[2048].Traffic
	}
	n := float64(len(rows))
	b.ReportMetric(m/n*100, "miss2K%")
	b.ReportMetric(tr/n*100, "traffic2K%")
}

// BenchmarkTable7BlockSize regenerates Table 7: miss and traffic vs
// block size (2KB cache, direct-mapped, optimized layout).
func BenchmarkTable7BlockSize(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Table7Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table7(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var m16, m128 float64
	for _, r := range rows {
		m16 += r.Results[16].Miss
		m128 += r.Results[128].Miss
	}
	n := float64(len(rows))
	b.ReportMetric(m16/n*100, "miss16B%")
	b.ReportMetric(m128/n*100, "miss128B%")
}

// BenchmarkTable8Traffic regenerates Table 8: block sectoring and
// partial loading.
func BenchmarkTable8Traffic(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Table8Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table8(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var secT, parT float64
	for _, r := range rows {
		secT += r.Sector.Traffic
		parT += r.Partial.Traffic
	}
	n := float64(len(rows))
	b.ReportMetric(secT/n*100, "sectorTraffic%")
	b.ReportMetric(parT/n*100, "partialTraffic%")
}

// BenchmarkTable9CodeScaling regenerates Table 9: the code scaling
// experiment. This re-runs the entire pipeline per scale factor, so it
// is the most expensive table.
func BenchmarkTable9CodeScaling(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Table9Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table9(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var lo, hi float64
	for _, r := range rows {
		lo += r.Results[0.5].Miss
		hi += r.Results[1.1].Miss
	}
	n := float64(len(rows))
	b.ReportMetric(lo/n*100, "miss@0.5%")
	b.ReportMetric(hi/n*100, "miss@1.1%")
}

// BenchmarkAblationLayoutStrategy runs ablation A1: natural vs random
// vs partial pipelines vs the full pipeline.
func BenchmarkAblationLayoutStrategy(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.AblationLayoutRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationLayout(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var full, nat float64
	for _, r := range rows {
		full += r.Miss["full"]
		nat += r.Miss["natural"]
	}
	n := float64(len(rows))
	b.ReportMetric(full/n*100, "fullMiss2K%")
	b.ReportMetric(nat/n*100, "naturalMiss2K%")
}

// BenchmarkAblationAssociativity runs ablation A2: the optimized
// direct-mapped cache vs higher associativities on both layouts.
func BenchmarkAblationAssociativity(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.AblationAssocRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationAssoc(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var optDM, natFA float64
	for _, r := range rows {
		optDM += r.Optimized[1]
		natFA += r.Natural[0]
	}
	n := float64(len(rows))
	b.ReportMetric(optDM/n*100, "optDMmiss%")
	b.ReportMetric(natFA/n*100, "natFAmiss%")
}

// BenchmarkAblationMinProb runs ablation A3: MIN_PROB sensitivity on a
// three-benchmark subset (it re-runs steps 3-5 on the prepared profile
// per threshold).
func BenchmarkAblationMinProb(b *testing.B) {
	s := benchSuite(b)
	small := &experiments.Suite{Items: []*experiments.Prepared{
		s.Items[0], s.Items[3], s.Items[9],
	}}
	var rows []experiments.AblationMinProbRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationMinProb(small)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var at07 float64
	for _, r := range rows {
		at07 += r.Miss[0.7]
	}
	b.ReportMetric(at07/float64(len(rows))*100, "miss@0.7%")
}

// BenchmarkAblationGlobalLayout runs ablation A4: the DFS global
// function order vs declaration order, with everything else fixed.
func BenchmarkAblationGlobalLayout(b *testing.B) {
	s := benchSuite(b)
	var withDFS, withoutDFS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, wo, err := experiments.AblationGlobal(s)
		if err != nil {
			b.Fatal(err)
		}
		withDFS, withoutDFS = w, wo
	}
	b.StopTimer()
	b.ReportMetric(withDFS*100, "dfsMiss2K%")
	b.ReportMetric(withoutDFS*100, "declOrderMiss2K%")
}

// BenchmarkExtTiming runs extension E1: effective access time under
// the section 4.2.1 timing model across block sizes.
func BenchmarkExtTiming(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.TimingRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtTiming(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var fwd64 float64
	for _, r := range rows {
		fwd64 += r.ForwardEAT[64]
	}
	b.ReportMetric(fwd64/float64(len(rows)), "eat64Bcycles")
}

// BenchmarkExtPaging runs extension E2: instruction paging footprint
// and working sets for both layouts.
func BenchmarkExtPaging(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.PagingRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtPaging(s, experiments.ExtPagingConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var opt, nat float64
	for _, r := range rows {
		opt += float64(r.OptPages)
		nat += float64(r.NatPages)
	}
	n := float64(len(rows))
	b.ReportMetric(opt/n, "optPages")
	b.ReportMetric(nat/n, "natPages")
}

// BenchmarkExtPrefetch runs extension E3: next-block prefetch vs plain
// demand fetch on the optimized layout.
func BenchmarkExtPrefetch(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.PrefetchRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtPrefetch(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var acc float64
	for _, r := range rows {
		acc += r.Accuracy
	}
	b.ReportMetric(acc/float64(len(rows))*100, "pfAccuracy%")
}

// BenchmarkExtHierarchy runs extension E4: the two-level cache
// hierarchy on both layouts.
func BenchmarkExtHierarchy(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.HierarchyRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtHierarchy(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var g float64
	for _, r := range rows {
		g += r.OptGlobal
	}
	b.ReportMetric(g/float64(len(rows))*100, "optGlobalMiss%")
}

// BenchmarkExtExtendedSuite runs extension E5: the >30-program
// expansion the paper announces, at a reduced scale (the prepare step
// runs the whole pipeline per benchmark).
func BenchmarkExtExtendedSuite(b *testing.B) {
	var rows []experiments.ExtendedRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtExtendedSuite(0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var m float64
	for _, r := range rows {
		m += r.OptMiss
	}
	b.ReportMetric(m/float64(len(rows))*100, "optMiss2K%")
}

// BenchmarkAblationReplacement runs ablation A5: LRU vs FIFO vs random
// replacement on the optimized layout.
func BenchmarkAblationReplacement(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.AblationReplacementRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationReplacement(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = rows
}

// BenchmarkAblationGlobalAlgo runs ablation A6: the Appendix DFS
// global order vs Pettis-Hansen chain merging.
func BenchmarkAblationGlobalAlgo(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.AblationGlobalAlgoRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationGlobalAlgo(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var d, p float64
	for _, r := range rows {
		d += r.DFSMiss
		p += r.PHMiss
	}
	n := float64(len(rows))
	b.ReportMetric(d/n*100, "dfsMiss%")
	b.ReportMetric(p/n*100, "phMiss%")
}

// BenchmarkStreamSimulate times the end-to-end streaming pipeline:
// every benchmark's natural-layout evaluation run regenerates straight
// into the cache simulator (layout.Stream → cache.SinkSimulator) with
// no trace materialized anywhere — the zero-copy path the commands
// use. Compare with BenchmarkAnalyzeSimulate, which only replays an
// already-materialized trace.
func BenchmarkStreamSimulate(b *testing.B) {
	s := benchSuite(b)
	geom := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	b.ResetTimer()
	var misses uint64
	for i := 0; i < b.N; i++ {
		misses = 0
		for _, p := range s.Items {
			sim, err := cache.NewSinkSimulator(geom)
			if err != nil {
				b.Fatal(err)
			}
			_, err = layout.Stream(layout.Natural(p.Bench.Prog), p.Bench.EvalSeed, p.Bench.EvalConfig(), sim)
			if err != nil {
				b.Fatal(err)
			}
			misses += sim.Stats()[0].Misses
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(misses)/1e6, "missesM")
}

// BenchmarkAnalyzeStatic times the static must/may analyzer over every
// benchmark's optimized layout: the cost of miss bounds computed from
// the IR, profile, and addresses alone, with no trace decoded (see
// docs/ANALYSIS.md). The Analyze* benchmarks run at 4KB/64B — the
// largest Table-1 cache, where the analyzer is the layout search's
// inner loop and its cost matters most. Compare with
// BenchmarkAnalyzeSimulate for the analyzer-vs-simulation wall time.
func BenchmarkAnalyzeStatic(b *testing.B) {
	s := benchSuite(b)
	geom := cache.Config{SizeBytes: 4096, BlockBytes: 64, Assoc: 1}
	// The profile is the analyzer's input contract, not its cost.
	weights := make([]*profile.Weights, len(s.Items))
	for i, p := range s.Items {
		w, err := p.EvalWeights()
		if err != nil {
			b.Fatal(err)
		}
		weights[i] = w
	}
	b.ResetTimer()
	var lower, upper uint64
	for i := 0; i < b.N; i++ {
		lower, upper = 0, 0
		for j, p := range s.Items {
			res, err := analysis.Analyze(p.Opt.Layout, weights[j], analysis.Config{Cache: geom})
			if err != nil {
				b.Fatal(err)
			}
			lower += res.Bounds.Lower
			upper += res.Bounds.Upper
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lower)/1e6, "lowerM")
	b.ReportMetric(float64(upper)/1e6, "upperM")
}

// BenchmarkAnalyzePages times the page-level analysis over every
// benchmark's optimized layout at the default 4KB/8-frame paging
// geometry: the page-fault bounds and conflict report computed from
// the IR, profile, and addresses alone. The page-frame abstraction has
// one set, so this is the cheap end of the analyzer family — and the
// page term's cost in the combined search objective.
func BenchmarkAnalyzePages(b *testing.B) {
	s := benchSuite(b)
	pcfg := paging.Config{PageBytes: 4096, Frames: 8}
	weights := make([]*profile.Weights, len(s.Items))
	for i, p := range s.Items {
		w, err := p.EvalWeights()
		if err != nil {
			b.Fatal(err)
		}
		weights[i] = w
	}
	b.ResetTimer()
	var lower, upper uint64
	for i := 0; i < b.N; i++ {
		lower, upper = 0, 0
		for j, p := range s.Items {
			res, err := analysis.AnalyzePages(p.Opt.Layout, weights[j], analysis.PageConfig{Paging: pcfg})
			if err != nil {
				b.Fatal(err)
			}
			lower += res.Bounds.Lower
			upper += res.Bounds.Upper
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lower)/1e3, "lowerK")
	b.ReportMetric(float64(upper)/1e3, "upperK")
}

// BenchmarkAnalyzeIncremental times the incremental re-analyzer on
// single-function moves: for every benchmark, one analysis.Incremental
// scores an adjacent global-order swap of the optimized layout and
// reverts it — the propose/score/reject cycle of the layout search
// (internal/search), where each candidate differs from the incumbent
// by one function move. Compare ns/op with BenchmarkAnalyzeStatic (a
// from-scratch analysis of each layout) — the ratio is the per-move
// speedup the search rides on.
func BenchmarkAnalyzeIncremental(b *testing.B) {
	s := benchSuite(b)
	geom := cache.Config{SizeBytes: 4096, BlockBytes: 64, Assoc: 1}
	engines := make([]*analysis.Incremental, len(s.Items))
	moves := make([][]*layout.Layout, len(s.Items))
	for i, p := range s.Items {
		w, err := p.EvalWeights()
		if err != nil {
			b.Fatal(err)
		}
		inc, err := analysis.NewIncremental(p.Opt.Layout, w, analysis.Config{Cache: geom})
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = inc
		// Four adjacent global-order swaps per benchmark, recomposed
		// exactly as the pipeline composes (single-function moves).
		for k := 0; k < 4 && k+1 < len(p.Opt.GlobalOrder.Funcs); k++ {
			g := globallayout.Order{Funcs: append([]ir.FuncID(nil), p.Opt.GlobalOrder.Funcs...)}
			g.Funcs[k], g.Funcs[k+1] = g.Funcs[k+1], g.Funcs[k]
			lay, err := search.Compose(p.Opt.Prog, p.Opt.Orders, g, true)
			if err != nil {
				b.Fatal(err)
			}
			moves[i] = append(moves[i], lay)
		}
		if len(moves[i]) == 0 {
			moves[i] = append(moves[i], p.Opt.Layout)
		}
	}
	b.ResetTimer()
	var upper uint64
	for i := 0; i < b.N; i++ {
		upper = 0
		for j := range s.Items {
			res, err := engines[j].Update(moves[j][i%len(moves[j])])
			if err != nil {
				b.Fatal(err)
			}
			upper += res.Bounds.Upper
			if err := engines[j].Revert(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(upper)/1e6, "upperM")
}

// BenchmarkAnalyzeSimulate times the trace-driven simulator on the
// same layouts and geometry, bypassing the sweep engine's memo — the
// measurement the static bounds bracket, priced for comparison.
func BenchmarkAnalyzeSimulate(b *testing.B) {
	s := benchSuite(b)
	geom := cache.Config{SizeBytes: 4096, BlockBytes: 64, Assoc: 1}
	b.ResetTimer()
	var misses uint64
	for i := 0; i < b.N; i++ {
		misses = 0
		for _, p := range s.Items {
			st, err := cache.Simulate(geom, p.OptTrace)
			if err != nil {
				b.Fatal(err)
			}
			misses += st.Misses
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(misses)/1e6, "missesM")
}

// BenchmarkSearchParallel times the portfolio layout search with the
// machine's full parallelism: eight independent climbs raced across
// GOMAXPROCS workers on cloned incremental analyzers. The result — and
// therefore the upperM metric — is bit-identical for every worker
// count (see docs/SEARCH.md), so only ns/op varies across hosts.
func BenchmarkSearchParallel(b *testing.B) {
	s := benchSuite(b)
	p := s.Items[0]
	w, err := p.EvalWeights()
	if err != nil {
		b.Fatal(err)
	}
	in := search.Input{
		Prog: p.Opt.Prog, Weights: w,
		Orders: p.Opt.Orders, Global: p.Opt.GlobalOrder,
		SplitCold: true,
	}
	cfg := search.Config{
		Cache:    cache.Config{SizeBytes: 512, BlockBytes: 64, Assoc: 1},
		Seed:     1,
		Budget:   96,
		Restarts: 7,
		Workers:  runtime.GOMAXPROCS(0),
	}
	b.ResetTimer()
	var upper uint64
	for i := 0; i < b.N; i++ {
		res, err := search.Optimize(in, cfg)
		if err != nil {
			b.Fatal(err)
		}
		upper = res.Analysis.Bounds.Upper
	}
	b.StopTimer()
	b.ReportMetric(float64(upper)/1e6, "upperM")
}
