package check_test

import (
	"strings"
	"testing"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/profile"
)

// analysisUnit builds a healthy StageAnalysis unit from a real
// pipeline-free analysis of a small program.
func analysisUnit(t *testing.T) *check.Unit {
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
	main.Ret(exit)
	pb.SetEntry(main.ID())
	p := pb.Build()

	w, _, err := profile.Profile(p, profile.Config{Seeds: []uint64{5}})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	lay := layout.Natural(p)
	res, err := analysis.Analyze(lay, w, analysis.Config{
		Cache: cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1},
	})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return &check.Unit{
		Stage: check.StageAnalysis, Prog: p, Weights: w,
		Layout: lay, Analysis: res,
	}
}

func runBounds(t *testing.T, u *check.Unit) *check.Report {
	t.Helper()
	return check.Run(u, check.ForStage(check.StageAnalysis), nil)
}

func TestBoundsAnalyzerHealthy(t *testing.T) {
	rep := runBounds(t, analysisUnit(t))
	if rep.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", rep.Runs)
	}
	if len(rep.Diags) != 0 {
		t.Fatalf("healthy analysis flagged:\n%s", rep)
	}
}

func TestBoundsAnalyzerSkipsWithoutAnalysis(t *testing.T) {
	u := analysisUnit(t)
	u.Analysis = nil
	rep := runBounds(t, u)
	if rep.Runs != 0 {
		t.Fatalf("Runs = %d, want 0 (no analysis attached)", rep.Runs)
	}
}

func TestBoundsAnalyzerFlagsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*analysis.Result)
		want    string
	}{
		{"inverted", func(r *analysis.Result) { r.Bounds.Lower = r.Bounds.Upper + 1 }, "lower bound"},
		{"overflow", func(r *analysis.Result) { r.Bounds.Upper = r.Bounds.WeightedLineRefs + 1 }, "upper bound"},
		{"refcount", func(r *analysis.Result) { r.Bounds.Refs[analysis.ClassAlwaysHit]++ }, "reference counts"},
		{"refweight", func(r *analysis.Result) { r.Bounds.RefWeight[analysis.ClassFirstMiss]++ }, "reference weights"},
		{"accesses", func(r *analysis.Result) { r.Bounds.Accesses++ }, "dynamic instructions"},
		{"exttsp", func(r *analysis.Result) { r.Score.ExtTSP = 1.5 }, "ext-TSP"},
		{"fallthrough", func(r *analysis.Result) { r.Score.FallThrough = r.Score.TotalWeight + 1 }, "fall-through"},
		{"funclower", func(r *analysis.Result) { r.PerFunc[0].Lower = r.PerFunc[0].Upper + 7 }, "per-function"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := analysisUnit(t)
			c.corrupt(u.Analysis)
			rep := runBounds(t, u)
			if rep.Errors() == 0 {
				t.Fatalf("corruption %q not flagged", c.name)
			}
			if !strings.Contains(rep.String(), c.want) {
				t.Fatalf("diagnostics for %q missing %q:\n%s", c.name, c.want, rep)
			}
		})
	}
}
