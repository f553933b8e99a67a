package check_test

import (
	"strings"
	"testing"

	"impact/internal/analysis"
	"impact/internal/check"
	"impact/internal/paging"
)

// pagesUnit builds a healthy StagePaging unit from a real page-level
// analysis of analysisUnit's program and layout.
func pagesUnit(t *testing.T) *check.Unit {
	t.Helper()
	u := analysisUnit(t)
	res, err := analysis.AnalyzePages(u.Layout, u.Weights, analysis.PageConfig{
		Paging: paging.Config{PageBytes: 64, Frames: 1},
	})
	if err != nil {
		t.Fatalf("analyze pages: %v", err)
	}
	return &check.Unit{
		Stage: check.StagePaging, Prog: u.Prog, Weights: u.Weights,
		Layout: u.Layout, Pages: res,
	}
}

func runPageBounds(t *testing.T, u *check.Unit) *check.Report {
	t.Helper()
	return check.Run(u, check.ForStage(check.StagePaging), nil)
}

func TestPageBoundsAnalyzerHealthy(t *testing.T) {
	u := pagesUnit(t)
	if u.Pages.Report.ExecPages == 0 {
		t.Fatal("the test program executed no page")
	}
	rep := runPageBounds(t, u)
	if rep.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", rep.Runs)
	}
	if len(rep.Diags) != 0 {
		t.Fatalf("healthy page analysis flagged:\n%s", rep)
	}
}

func TestPageBoundsAnalyzerSkipsWithoutPages(t *testing.T) {
	u := pagesUnit(t)
	u.Pages = nil
	rep := runPageBounds(t, u)
	if rep.Runs != 0 {
		t.Fatalf("Runs = %d, want 0 (no page analysis attached)", rep.Runs)
	}
}

func TestPageBoundsAnalyzerFlagsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*analysis.PageResult)
		want    string
	}{
		{"inverted", func(r *analysis.PageResult) { r.Bounds.Lower = r.Bounds.Upper + 1 }, "fault lower bound"},
		{"overflow", func(r *analysis.PageResult) { r.Bounds.Upper = r.Bounds.WeightedLineRefs + 1 }, "weighted page references"},
		{"refcount", func(r *analysis.PageResult) { r.Bounds.Refs[analysis.ClassAlwaysHit]++ }, "reference counts"},
		{"refweight", func(r *analysis.PageResult) { r.Bounds.RefWeight[analysis.ClassFirstMiss]++ }, "reference weights"},
		{"accesses", func(r *analysis.PageResult) { r.Bounds.Accesses++ }, "dynamic instructions"},
		{"footprint", func(r *analysis.PageResult) {
			r.Bounds.Lower, r.Bounds.Upper = 0, uint64(r.Report.ExecPages)-1
		}, "-page executed footprint"},
		{"execpages", func(r *analysis.PageResult) { r.Report.ExecPages = r.Report.CodePages + 1 }, "code pages"},
		{"hotpages", func(r *analysis.PageResult) { r.Report.HotPages = r.Report.ExecPages + 1 }, "hot working set"},
		{"waste", func(r *analysis.PageResult) {
			r.Report.WasteBytes = uint64(r.Report.ExecPages*r.Paging.PageBytes) + 1
		}, "waste"},
		{"thrash", func(r *analysis.PageResult) { r.Paging.Frames, r.Report.ThrashScopes = 0, 1 }, "unbounded frames"},
		{"funclower", func(r *analysis.PageResult) { r.PerFunc[0].Lower = r.PerFunc[0].Upper + 7 }, "per-function"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := pagesUnit(t)
			c.corrupt(u.Pages)
			rep := runPageBounds(t, u)
			if rep.Errors() == 0 {
				t.Fatalf("corruption %q not flagged", c.name)
			}
			if !strings.Contains(rep.String(), c.want) {
				t.Fatalf("diagnostics for %q missing %q:\n%s", c.name, c.want, rep)
			}
		})
	}
}
