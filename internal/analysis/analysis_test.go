package analysis

import (
	"math"
	"strings"
	"testing"

	"impact/internal/cache"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/obs"
	"impact/internal/profile"
)

// straightLine builds main -> (loop xN over two blocks) -> exit with a
// call to a tiny leaf each iteration, and returns it with single-run
// profile weights.
func buildLoopProgram(t *testing.T) (*ir.Program, *profile.Weights) {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 3)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	entry := main.NewBlock()
	loop := main.NewBlock()
	exit := main.NewBlock()
	main.Fill(entry, 2)
	main.Jump(entry, loop)
	main.Fill(loop, 4)
	main.Call(loop, leaf.ID())
	main.Branch(loop, ir.Arc{To: loop, Prob: 0.9}, ir.Arc{To: exit, Prob: 0.1})
	main.Fill(exit, 1)
	main.Ret(exit)
	pb.SetEntry(main.ID())
	p := pb.Build()
	w := profileOne(t, p, 7)
	return p, w
}

// profileOne profiles p over exactly one completed run.
func profileOne(t *testing.T, p *ir.Program, seed uint64) *profile.Weights {
	t.Helper()
	w, runs, err := profile.Profile(p, profile.Config{Seeds: []uint64{seed}})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if !runs[0].Completed {
		t.Fatalf("profiling run hit the step cap")
	}
	return w
}

func mustAnalyze(t *testing.T, lay *layout.Layout, w *profile.Weights, cfg Config) *Result {
	t.Helper()
	res, err := Analyze(lay, w, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func TestExtTSPFactor(t *testing.T) {
	cases := []struct {
		srcEnd, dst uint32
		want        float64
	}{
		{100, 100, 1},                       // fall-through
		{100, 612, 0.1 * (1 - 512.0/1024)},  // forward, half the window
		{100, 1124, 0},                      // forward, at the window edge
		{4000, 3680, 0.1 * (1 - 320.0/640)}, // backward, half the window
		{4000, 3360, 0},                     // backward, at the window edge
		{100, 104, 0.1 * (1 - 4.0/1024)},    // short forward jump
		{1000, 996, 0.1 * (1 - 4.0/640)},    // short backward jump
	}
	for _, c := range cases {
		if got := extTSPFactor(c.srcEnd, c.dst); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("extTSPFactor(%d, %d) = %g, want %g", c.srcEnd, c.dst, got, c.want)
		}
	}
}

// TestScoreHandComputed checks the layout score on a CFG small enough
// to total by hand: A(2 instrs) -> B always, B(1 instr) -> A or C.
// Natural layout: A at 0..8, B at 8..12, C at 12..16.
func TestScoreHandComputed(t *testing.T) {
	pb := ir.NewProgramBuilder()
	f := pb.NewFunc("main")
	a := f.NewBlock()
	b := f.NewBlock()
	c := f.NewBlock()
	f.Fill(a, 1) // 1 filler + jump = 2 instrs = 8 bytes
	f.Jump(a, b)
	f.Branch(b, ir.Arc{To: a, Prob: 0.5}, ir.Arc{To: c, Prob: 0.5})
	f.Ret(c)
	pb.SetEntry(f.ID())
	p := pb.Build()
	w := profileOne(t, p, 3)
	lay := layout.Natural(p)

	wAB := w.ArcWeight(f.ID(), a, 0) // A -> B: fall-through (B at 8 = end of A)
	wBA := w.ArcWeight(f.ID(), b, 0) // B -> A: backward jump, end of B is 12, dst 0
	wBC := w.ArcWeight(f.ID(), b, 1) // B -> C: fall-through

	s := ScoreLayout(lay, w)
	if got, want := s.TotalWeight, wAB+wBA+wBC; got != want {
		t.Fatalf("TotalWeight = %d, want %d", got, want)
	}
	if got, want := s.FallThrough, wAB+wBC; got != want {
		t.Fatalf("FallThrough = %d, want %d", got, want)
	}
	want := (float64(wAB)*1 + float64(wBA)*0.1*(1-12.0/640) + float64(wBC)*1) / float64(wAB+wBA+wBC)
	if math.Abs(s.ExtTSP-want) > 1e-12 {
		t.Fatalf("ExtTSP = %g, want %g", s.ExtTSP, want)
	}
}

// TestBoundsLoopFitsInCache: the whole program fits one 2KB cache, so
// every set is persistent and misses are bounded by the cold start:
// at most one per line (and at least the guaranteed cold miss of the
// entry line).
func TestBoundsLoopFitsInCache(t *testing.T) {
	p, w := buildLoopProgram(t)
	lay := layout.Natural(p)
	res := mustAnalyze(t, lay, w, Config{Cache: cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}})

	b := res.Bounds
	if !b.Exact {
		t.Fatalf("single complete run should give exact bounds")
	}
	lines := uint64((lay.Total + 63) / 64)
	if b.Upper > lines {
		t.Fatalf("Upper = %d, want <= %d (one miss per line)", b.Upper, lines)
	}
	if b.Lower == 0 || b.Lower > lines {
		t.Fatalf("Lower = %d, want in [1, %d] (cold start misses only)", b.Lower, lines)
	}
	if res.Bounds.PersistentLines == 0 {
		t.Fatalf("PersistentLines = 0, want every accessed line persistent")
	}
	// The steady state hits: almost all weighted references are
	// always-hit.
	if hw := b.RefWeight[ClassAlwaysHit]; hw < b.WeightedLineRefs-lines {
		t.Fatalf("always-hit weight %d, want >= %d", hw, b.WeightedLineRefs-lines)
	}
	if b.Accesses != w.DynInstrs {
		t.Fatalf("Accesses = %d, want DynInstrs = %d", b.Accesses, w.DynInstrs)
	}
}

// TestBoundsConflictAlwaysMiss: two loop bodies placed exactly one
// cache size apart alternate in the same direct-mapped set, so the
// steady state is all conflict misses: Lower must approach Measured.
func TestBoundsConflictAlwaysMiss(t *testing.T) {
	const cacheBytes, blockBytes = 512, 64
	pb := ir.NewProgramBuilder()
	f := pb.NewFunc("main")
	a := f.NewBlock()
	pad := f.NewBlock()
	b := f.NewBlock()
	exit := f.NewBlock()
	// a: 15 fillers + branch = 16 instrs = 64 bytes (one block/line)
	f.Fill(a, 15)
	f.Branch(a, ir.Arc{To: b, Prob: 0.98}, ir.Arc{To: exit, Prob: 0.02})
	// pad: never executed, sized so b lands exactly cacheBytes after a.
	f.Fill(pad, cacheBytes/4-16)
	f.Jump(pad, exit)
	f.Fill(b, 15)
	f.Jump(b, a)
	f.Ret(exit)
	pb.SetEntry(f.ID())
	p := pb.Build()
	w := profileOne(t, p, 11)
	lay := layout.Natural(p)

	if la, lb := lay.BlockAddr(f.ID(), a)/blockBytes%(cacheBytes/blockBytes),
		lay.BlockAddr(f.ID(), b)/blockBytes%(cacheBytes/blockBytes); la != lb {
		t.Fatalf("test setup: blocks a and b map to sets %d and %d, want equal", la, lb)
	}

	res := mustAnalyze(t, lay, w, Config{Cache: cache.Config{SizeBytes: cacheBytes, BlockBytes: blockBytes, Assoc: 1}})
	if res.Bounds.Refs[ClassAlwaysMiss] == 0 {
		t.Fatalf("expected always-miss references in an alternating direct-mapped conflict")
	}
	wa, wb := w.BlockWeight(f.ID(), a), w.BlockWeight(f.ID(), b)
	// Every execution of a and b after the first of each misses; the
	// first executions may also miss, so Lower is at least the
	// alternation count minus the two cold accesses.
	if min := wa + wb - 2; res.Bounds.Lower < min {
		t.Fatalf("Lower = %d, want >= %d (all alternating accesses conflict)", res.Bounds.Lower, min)
	}

	// And the conflict pass must rank that set with nonzero excess.
	if res.Conflicts.TotalExcess == 0 || len(res.Conflicts.Sets) == 0 {
		t.Fatalf("conflict report = %+v, want the alternating set ranked", res.Conflicts)
	}
}

// TestBoundsAssociativityRelief: the same conflict pair under 2-way
// associativity coexists, so the always-miss weight must vanish.
func TestBoundsAssociativityRelief(t *testing.T) {
	p, w := buildLoopProgram(t)
	lay := layout.Natural(p)
	dm := mustAnalyze(t, lay, w, Config{Cache: cache.Config{SizeBytes: 128, BlockBytes: 16, Assoc: 1}})
	fa := mustAnalyze(t, lay, w, Config{Cache: cache.Config{SizeBytes: 128, BlockBytes: 16, Assoc: 0}})
	if fa.Bounds.Lower > dm.Bounds.Lower {
		t.Fatalf("fully associative Lower %d > direct-mapped Lower %d", fa.Bounds.Lower, dm.Bounds.Lower)
	}
	if fa.Bounds.Upper > fa.Bounds.WeightedLineRefs {
		t.Fatalf("Upper %d exceeds weighted refs %d", fa.Bounds.Upper, fa.Bounds.WeightedLineRefs)
	}
}

// TestAnalyzeRejectsUnsupported has one row per input and config
// rejection of Analyze and NewIncremental — a cache outside the
// abstract model (non-LRU replacement, sectoring, partial loading,
// prefetching), an invalid geometry, a negative report size, weights
// of another program and a layout with no code — plus valid rows.
func TestAnalyzeRejectsUnsupported(t *testing.T) {
	p, w := buildLoopProgram(t)
	lay := layout.Natural(p)
	// A program with no functions: its layout places no code.
	empty := &ir.Program{Entry: ir.NoFunc}
	dm := cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1}
	c := func(cc cache.Config) Config { return Config{Cache: cc} }
	tests := []struct {
		name    string
		lay     *layout.Layout
		w       *profile.Weights
		cfg     Config
		wantErr string // "" means the analysis runs
	}{
		{"fifo", lay, w, c(cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 2, Replacement: cache.FIFO}), "fifo replacement is outside the abstract cache model"},
		{"random", lay, w, c(cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 2, Replacement: cache.RandomRepl}), "replacement is outside the abstract cache model"},
		{"sector", lay, w, c(cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1, SectorBytes: 16}), "sectored fills"},
		{"partial", lay, w, c(cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1, PartialLoad: true}), "partial loading"},
		{"prefetch", lay, w, c(cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1, PrefetchNext: true}), "prefetching"},
		{"invalid geometry", lay, w, c(cache.Config{SizeBytes: 1000, BlockBytes: 32, Assoc: 1}), "not a positive power of two"},
		{"zero geometry", lay, w, c(cache.Config{}), "not a positive power of two"},
		{"weights of another program", lay, profile.NewWeights(empty), c(dm), "weights cover 0 funcs, program has 2"},
		{"layout with no code", layout.Natural(empty), profile.NewWeights(empty), c(dm), "layout places no code"},
		{"negative top sets", lay, w, Config{Cache: dm, TopSets: -1}, "negative report size (TopSets -1, TopLines 0, TopPairs 0)"},
		{"negative top lines", lay, w, Config{Cache: dm, TopLines: -2}, "negative report size (TopSets 0, TopLines -2, TopPairs 0)"},
		{"negative top pairs", lay, w, Config{Cache: dm, TopPairs: -1}, "negative report size (TopSets 0, TopLines 0, TopPairs -1)"},
		{"direct-mapped", lay, w, c(dm), ""},
		{"direct-mapped, one set and line", lay, w, Config{Cache: dm, TopSets: 1, TopLines: 1, TopPairs: 1}, ""},
		{"fully associative", lay, w, c(cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 0}), ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Analyze(tt.lay, tt.w, tt.cfg)
			inc, ierr := NewIncremental(tt.lay, tt.w, tt.cfg)
			if tt.wantErr == "" {
				if err != nil || res == nil || ierr != nil || inc == nil {
					t.Fatalf("Analyze = %v, NewIncremental = %v; want success", err, ierr)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) || res != nil {
				t.Errorf("Analyze = %v, want an error containing %q", err, tt.wantErr)
			}
			if ierr == nil || err == nil || ierr.Error() != err.Error() || inc != nil {
				t.Errorf("NewIncremental = %v, want the Analyze error", ierr)
			}
		})
	}
}

// TestBoundsBracketSimulator is the package-local differential check:
// simulate the same single run the weights describe and require the
// bracket, across associativities.
func TestBoundsBracketSimulator(t *testing.T) {
	p, w := buildLoopProgram(t)
	for _, strat := range []struct {
		name string
		lay  func() *layout.Layout
	}{
		{"natural", func() *layout.Layout { return layout.Natural(p) }},
		{"random", func() *layout.Layout { return layout.Random(p, 99) }},
	} {
		lay := strat.lay()
		tr, run, err := layout.Trace(lay, 7, interp.Config{})
		if err != nil || !run.Completed {
			t.Fatalf("%s: trace: %v completed=%v", strat.name, err, run.Completed)
		}
		for _, cfg := range []cache.Config{
			{SizeBytes: 256, BlockBytes: 16, Assoc: 1},
			{SizeBytes: 256, BlockBytes: 16, Assoc: 2},
			{SizeBytes: 256, BlockBytes: 16, Assoc: 0},
			{SizeBytes: 512, BlockBytes: 64, Assoc: 1},
			{SizeBytes: 1024, BlockBytes: 32, Assoc: 4},
		} {
			res := mustAnalyze(t, lay, w, Config{Cache: cfg})
			if !res.Bounds.Exact {
				t.Fatalf("%s %v: bounds should be exact", strat.name, cfg)
			}
			st, err := cache.Simulate(cfg, tr)
			if err != nil {
				t.Fatalf("%s %v: simulate: %v", strat.name, cfg, err)
			}
			if st.Accesses != res.Bounds.Accesses {
				t.Errorf("%s %v: simulator accesses %d != modelled %d", strat.name, cfg, st.Accesses, res.Bounds.Accesses)
			}
			if st.Misses < res.Bounds.Lower || st.Misses > res.Bounds.Upper {
				t.Errorf("%s %v: measured %d outside [%d, %d]", strat.name, cfg, st.Misses, res.Bounds.Lower, res.Bounds.Upper)
			}
		}
	}
}

func TestAnalyzeObsCounters(t *testing.T) {
	p, w := buildLoopProgram(t)
	lay := layout.Natural(p)
	reg := obs.NewRegistry()
	res := mustAnalyze(t, lay, w, Config{
		Cache: cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1},
		Obs:   reg,
	})
	if got := reg.Counter("analysis.runs").Value(); got != 1 {
		t.Errorf("analysis.runs = %d, want 1", got)
	}
	if got := reg.Counter("analysis.regions").Value(); got != uint64(res.Regions) {
		t.Errorf("analysis.regions = %d, want %d", got, res.Regions)
	}
	if got := reg.Counter("analysis.refs").Value(); got != uint64(res.Bounds.LineRefs) {
		t.Errorf("analysis.refs = %d, want %d", got, res.Bounds.LineRefs)
	}
}
