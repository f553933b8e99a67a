package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/obs"
)

// placedVariant is one pipeline variant deriveOptimize serves.
type placedVariant struct {
	name    string
	st      core.Strategy
	minProb float64
}

// placedVariants lists every variant the ablations and tests derive
// with deriveOptimize: A1's partial pipelines, the natural strategy,
// A3's thresholds, A4's declaration order and A6's Pettis-Hansen.
func placedVariants() []placedVariant {
	vs := []placedVariant{{name: "layout:natural", st: core.NaturalStrategy()}}
	for _, name := range LayoutStrategies {
		if st, ok := partialStrategies[name]; ok {
			vs = append(vs, placedVariant{name: "layout:" + name, st: st})
		}
	}
	vs = append(vs,
		placedVariant{name: "global:no-dfs", st: core.Strategy{Inline: true, TraceLayout: true, SplitCold: true}},
		placedVariant{name: "globalalgo:ph", st: core.Strategy{Inline: true, TraceLayout: true, GlobalDFS: true, PettisHansen: true, SplitCold: true}},
	)
	for _, mp := range MinProbValues {
		vs = append(vs, placedVariant{name: fmt.Sprintf("minprob:%g", mp), st: core.FullStrategy(), minProb: mp})
	}
	return vs
}

// addresses lists every block address of lay, function by function.
func addresses(lay *layout.Layout) [][]uint32 {
	p := lay.Program()
	out := make([][]uint32, len(p.Funcs))
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			out[f.ID] = append(out[f.ID], lay.BlockAddr(f.ID, b.ID))
		}
	}
	return out
}

// TestPlacedVariantsMatchOptimize is the differential referee for
// profiling once per benchmark: every variant deriveOptimize serves,
// placed on the prepared profiled value, must equal a fresh
// core.Optimize of the same configuration, which profiles the program
// again, and must trace the same evaluation run. Placing must not
// interpret a profiling input.
func TestPlacedVariantsMatchOptimize(t *testing.T) {
	s, err := Prepare(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Items {
		b := p.Bench
		for _, v := range placedVariants() {
			cfg := pipelineConfig(b, v.st)
			cfg.MinProb = v.minProb
			reg := obs.NewRegistry()
			placedCfg := cfg
			placedCfg.Obs = reg
			placed, placedTr, err := p.deriveOptimize(v.name, placedCfg)
			if err != nil {
				t.Fatalf("%s/%s: place: %v", p.Name(), v.name, err)
			}
			snap := reg.Snapshot()
			if n := snap.Counters["pipeline.runs"]; n != 1 {
				t.Errorf("%s/%s: %d pipeline runs recorded, want 1", p.Name(), v.name, n)
			}
			if n := snap.Counters["interp.runs"]; n != 0 {
				t.Errorf("%s/%s: placing interpreted %d profiling runs", p.Name(), v.name, n)
			}
			for _, stage := range []string{"pipeline/profile", "pipeline/inline"} {
				if n := snap.Spans[stage].Count; n != 0 {
					t.Errorf("%s/%s: placing opened %d %s spans", p.Name(), v.name, n, stage)
				}
			}

			fresh, err := core.Optimize(b.Prog, cfg)
			if err != nil {
				t.Fatalf("%s/%s: optimize: %v", p.Name(), v.name, err)
			}
			freshTr, _, err := layout.Trace(fresh.Layout, b.EvalSeed, b.EvalConfig())
			if err != nil {
				t.Fatalf("%s/%s: eval trace: %v", p.Name(), v.name, err)
			}
			for _, c := range []struct {
				what          string
				placed, fresh any
			}{
				{"layout addresses", addresses(placed.Layout), addresses(fresh.Layout)},
				{"layout size", placed.Layout.Total, fresh.Layout.Total},
				{"Weights", placed.Weights, fresh.Weights},
				{"OrigWeights", placed.OrigWeights, fresh.OrigWeights},
				{"InlineReport", placed.InlineReport, fresh.InlineReport},
				{"TraceStats", placed.TraceStats, fresh.TraceStats},
				{"Orders", placed.Orders, fresh.Orders},
				{"GlobalOrder", placed.GlobalOrder, fresh.GlobalOrder},
				{"EffectiveBytes", placed.EffectiveBytes, fresh.EffectiveBytes},
				{"TotalBytes", placed.TotalBytes, fresh.TotalBytes},
				{"evaluation trace", fingerprint(placedTr), fingerprint(freshTr)},
			} {
				if !reflect.DeepEqual(c.placed, c.fresh) {
					t.Errorf("%s/%s: placed %s differs from a fresh core.Optimize", p.Name(), v.name, c.what)
				}
			}
		}
	}
}
