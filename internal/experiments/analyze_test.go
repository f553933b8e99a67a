package experiments

import (
	"strings"
	"testing"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/smith"
)

// TestBoundCheckBracketsSimulator is the suite-level differential
// invariant from the issue: for every example program and every
// Table-1 geometry, the static must/may bounds bracket the simulated
// miss count of the same evaluation run.
func TestBoundCheckBracketsSimulator(t *testing.T) {
	s := testSuite(t)
	rows, err := BoundCheck(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(smith.CacheSizes) * len(smith.BlockSizes) * len(s.Items); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	exact := 0
	for _, r := range rows {
		if r.Exact {
			exact++
		}
		if !r.OK() {
			t.Errorf("%s %dB/%dB: measured %d outside [%d, %d]",
				r.Name, r.CacheBytes, r.BlockBytes, r.Measured, r.Lower, r.Upper)
		}
		if r.Lower > r.Upper {
			t.Errorf("%s %dB/%dB: Lower %d > Upper %d", r.Name, r.CacheBytes, r.BlockBytes, r.Lower, r.Upper)
		}
	}
	if exact == 0 {
		t.Fatalf("no exact rows: the evaluation runs should complete at test scale")
	}
	if err := BoundErr(rows); err != nil {
		t.Fatalf("BoundErr: %v", err)
	}
}

// TestBoundsBracketAcrossAblations runs the analyzer over pipeline
// ablation layouts (not just the full pipeline) and requires the same
// bracket, using execution-matched weights for each variant's own
// program.
func TestBoundsBracketAcrossAblations(t *testing.T) {
	s := testSuite(t)
	strategies := []struct {
		name string
		st   core.Strategy
	}{
		{"natural", core.NaturalStrategy()},
		{"trace-only", core.Strategy{TraceLayout: true}},
		{"no-split", core.Strategy{Inline: true, TraceLayout: true, GlobalDFS: true}},
	}
	geom := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	for _, p := range s.Items[:3] {
		b := p.Bench
		for _, sc := range strategies {
			res, tr, err := p.deriveOptimize("layout:"+sc.name, pipelineConfig(b, sc.st))
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name(), sc.name, err)
			}
			w, runs, err := evalProfile(res.Prog, b)
			if err != nil {
				t.Fatalf("%s/%s: profile: %v", p.Name(), sc.name, err)
			}
			ares, err := analysis.Analyze(res.Layout, w, analysis.Config{Cache: geom})
			if err != nil {
				t.Fatalf("%s/%s: analyze: %v", p.Name(), sc.name, err)
			}
			st, err := sharedEngine.Simulate(geom, tr)
			if err != nil {
				t.Fatalf("%s/%s: simulate: %v", p.Name(), sc.name, err)
			}
			if !runs[0].Completed {
				if ares.Bounds.Exact {
					t.Errorf("%s/%s: Exact bounds from a capped run", p.Name(), sc.name)
				}
				continue
			}
			if st.Misses < ares.Bounds.Lower || st.Misses > ares.Bounds.Upper {
				t.Errorf("%s/%s: measured %d outside [%d, %d]",
					p.Name(), sc.name, st.Misses, ares.Bounds.Lower, ares.Bounds.Upper)
			}
		}
	}
}

// TestOptimizedLayoutScoresBetter: the full pipeline exists to improve
// sequential locality, so its fall-through ratio and ext-TSP score
// must beat the natural layout's on the suite average.
func TestOptimizedLayoutScoresBetter(t *testing.T) {
	s := testSuite(t)
	var optFT, natFT, optTSP, natTSP float64
	geom := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	for _, p := range s.Items {
		opt, err := p.Analyze(geom)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := evalProfile(p.Bench.Prog, p.Bench)
		if err != nil {
			t.Fatal(err)
		}
		nat, err := analysis.Analyze(layout.Natural(p.Bench.Prog), w, analysis.Config{Cache: geom})
		if err != nil {
			t.Fatal(err)
		}
		optFT += opt.Score.FallThroughRatio()
		natFT += nat.Score.FallThroughRatio()
		optTSP += opt.Score.ExtTSP
		natTSP += nat.Score.ExtTSP
	}
	if optFT <= natFT {
		t.Errorf("optimized fall-through %.3f <= natural %.3f (suite sums)", optFT, natFT)
	}
	if optTSP <= natTSP {
		t.Errorf("optimized ext-TSP %.3f <= natural %.3f (suite sums)", optTSP, natTSP)
	}
}

func TestRenderBoundCheck(t *testing.T) {
	s := testSuite(t)
	rows, err := BoundCheck(s)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderBoundCheck(s, rows)
	for _, want := range []string{"must/may", "in bounds", "ext-TSP", s.Items[0].Name()} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeMemoized: repeated Analyze calls for one geometry must
// return the identical result object.
func TestAnalyzeMemoized(t *testing.T) {
	s := testSuite(t)
	p := s.Items[0]
	geom := cache.Config{SizeBytes: 1024, BlockBytes: 32, Assoc: 1}
	a, err := p.Analyze(geom)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Analyze(geom)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Analyze not memoized: distinct results for one geometry")
	}
}
