package experiments

import (
	"reflect"
	"strings"
	"testing"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/profile"
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
			res, tr, err := p.deriveOptimize(sc.name, pipelineConfig(b, sc.st))
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name(), sc.name, err)
			}
			w, runs, err := profile.Profile(res.Prog, profile.Config{Seeds: []uint64{b.EvalSeed}, Interp: b.EvalConfig()})
			if err != nil {
				t.Fatalf("%s/%s: profile: %v", p.Name(), sc.name, err)
			}
			ares, err := analysis.Analyze(res.Layout, w, analysis.Config{Cache: geom})
			if err != nil {
				t.Fatalf("%s/%s: analyze: %v", p.Name(), sc.name, err)
			}
			st, err := NewEngine().Simulate(geom, tr)
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

// TestEvalWeightsCountTheTracedRun: the weights EvalWeights returns are
// counted in the run OptTrace records, so they equal profiling the
// optimized program over the evaluation seed, and they executed the
// trace's instructions.
func TestEvalWeightsCountTheTracedRun(t *testing.T) {
	for _, p := range testSuite(t).Items {
		got, err := p.EvalWeights()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := profile.Profile(p.Opt.Prog, profile.Config{Seeds: []uint64{p.Bench.EvalSeed}, Interp: p.Bench.EvalConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: EvalWeights differ from profiling the evaluation run", p.Name())
		}
		if got.DynInstrs != p.OptTrace.Instrs {
			t.Errorf("%s: EvalWeights executed %d instructions, OptTrace holds %d", p.Name(), got.DynInstrs, p.OptTrace.Instrs)
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
		w, _, err := profile.Profile(p.Bench.Prog, profile.Config{Seeds: []uint64{p.Bench.EvalSeed}, Interp: p.Bench.EvalConfig()})
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

// TestRenderBoundCheck renders the bound check from its rows alone:
// each row keeps the analysis its bounds came from, and that analysis
// deeply equals a second Analyze of its program at its geometry.
func TestRenderBoundCheck(t *testing.T) {
	s := testSuite(t)
	rows, err := BoundCheck(s)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderBoundCheck(rows)
	for _, want := range []string{"must/may", "in bounds", "ext-TSP", s.Items[0].Name()} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
	r := rows[0]
	again, err := s.byName(r.Name).Analyze(cache.Config{SizeBytes: r.CacheBytes, BlockBytes: r.BlockBytes, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Analysis, again) {
		t.Errorf("%s %dB/%dB: the row's analysis differs from a second Analyze", r.Name, r.CacheBytes, r.BlockBytes)
	}
}
