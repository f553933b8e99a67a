package experiments

import (
	"strings"
	"testing"

	"impact/internal/cache"
	"impact/internal/paging"
	"impact/internal/search"
)

// TestPageBoundCheckBracketsSimulator is the suite-level differential
// invariant for the page-level analysis: for every benchmark and every
// page size x frame count geometry, the static page-fault bounds
// bracket the demand-paging simulator's fault count of the same
// evaluation run, and the static footprint matches the touched pages.
func TestPageBoundCheckBracketsSimulator(t *testing.T) {
	s := testSuite(t)
	rows, err := PageBoundCheck(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(PageBoundSizes) * len(PageBoundFrames) * len(s.Items); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	exact := 0
	for _, r := range rows {
		if r.Exact {
			exact++
		}
		if !r.OK() {
			t.Errorf("%s %dB/%d frames: measured %d outside [%d, %d] (pages %d static vs %d touched)",
				r.Name, r.PageBytes, r.Frames, r.Measured, r.Lower, r.Upper,
				r.StaticPages, r.MeasuredPages)
		}
		if r.Frames == 0 && r.Exact && r.Measured != uint64(r.MeasuredPages) {
			t.Errorf("%s %dB: unbounded frames measured %d faults, want cold-only %d",
				r.Name, r.PageBytes, r.Measured, r.MeasuredPages)
		}
		if r.WS <= 0 {
			t.Errorf("%s %dB: working set %v, want positive", r.Name, r.PageBytes, r.WS)
		}
	}
	if exact == 0 {
		t.Fatalf("no exact rows: the evaluation runs should complete at test scale")
	}
	if err := PageBoundErr(rows); err != nil {
		t.Fatalf("PageBoundErr: %v", err)
	}
	out := RenderPageBoundCheck(rows)
	for _, want := range []string{"page", "frames", "in bounds", "thrash", "4096B pages"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestPageBoundErrFlagsViolation pins the error path: a fabricated
// out-of-bracket row must be reported.
func TestPageBoundErrFlagsViolation(t *testing.T) {
	rows := []PageBoundRow{
		{Name: "good", Lower: 1, Measured: 2, Upper: 3, Exact: true},
		{Name: "bad", PageBytes: 1024, Frames: 4, Lower: 5, Measured: 4, Upper: 9,
			StaticPages: 3, MeasuredPages: 3, Exact: true},
	}
	if err := PageBoundErr(rows); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("got %v, want error naming the violating row", err)
	}
	rows[1].Exact = false
	if err := PageBoundErr(rows); err != nil {
		t.Fatalf("inexact rows must not be violations: %v", err)
	}
}

// TestSearchComparePaging is the paging half of the issue's acceptance
// experiment: with the combined objective at the default 4KB/8-frame
// geometry, the search must never regress the simulator-measured miss
// count (cache term stays primary) and the page-fault columns must be
// filled and never worse than greedy for adopted layouts.
func TestSearchComparePaging(t *testing.T) {
	s := testSuite(t)
	geom := cache.Config{SizeBytes: 512, BlockBytes: 64, Assoc: 1}
	pcfg := paging.Config{PageBytes: 4096, Frames: 8}
	rows, err := SearchCompare(s, geom, search.Config{Seed: 1, Budget: 160, Paging: &pcfg})
	if err != nil {
		t.Fatal(err)
	}
	pageWins := 0
	for _, r := range rows {
		if r.SearchMiss > r.GreedyMiss {
			t.Errorf("%s: adopted layout measures worse than greedy (%.4f > %.4f)",
				r.Name, r.SearchMiss, r.GreedyMiss)
		}
		if r.GreedyFaults == 0 {
			t.Errorf("%s: paging columns not filled", r.Name)
		}
		if r.PageWon {
			pageWins++
			if r.SearchFaults >= r.GreedyFaults {
				t.Errorf("%s: PageWon but faults did not drop", r.Name)
			}
		}
	}
	out := RenderSearchCompare(geom, &pcfg, rows)
	if !strings.Contains(out, "greedy PF") || !strings.Contains(out, "page faults reduced on") {
		t.Fatalf("render missing paging columns:\n%s", out)
	}
	t.Logf("page faults reduced on %d/%d benchmarks", pageWins, len(rows))
}
