package experiments

import (
	"fmt"

	"impact/internal/analysis"
	"impact/internal/check"
	"impact/internal/paging"
	"impact/internal/texttable"
)

// This file hosts the page-level analogue of analyze.go: running
// internal/analysis.AnalyzePages over the prepared benchmarks and
// checking its page-fault bounds against the demand-paging simulator —
// the external half of the bracket invariant (the internal half is
// check's pagebounds analyzer, which needs no trace and runs on every
// analysis AnalyzePages builds).

// AnalyzePages returns the static page-level analysis of the optimized
// layout under cfg, built from the evaluation-run weights and verified
// by the pagebounds analyzer under the suite's check mode.
func (p *Prepared) AnalyzePages(cfg paging.Config) (*analysis.PageResult, error) {
	res, err := analysis.AnalyzePages(p.Opt.Layout, p.evalW, analysis.PageConfig{Paging: cfg})
	if err != nil {
		return nil, err
	}
	if err := p.verify(&check.Unit{
		Stage: check.StagePaging, Prog: p.Opt.Prog, Weights: p.evalW,
		Layout: p.Opt.Layout, Pages: res,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// PageBoundSizes and PageBoundFrames are the paging geometries
// PageBoundCheck sweeps: three page sizes crossed with unbounded,
// tight, and default frame counts.
var (
	PageBoundSizes  = []int{1024, 2048, 4096}
	PageBoundFrames = []int{0, 4, 8}
)

// PageBoundRow is one benchmark x paging-geometry bound-vs-measurement
// comparison.
type PageBoundRow struct {
	Name              string
	PageBytes, Frames int
	// Lower / Upper are the static page-fault bounds; Measured is the
	// demand-paging simulator's fault count on the same run's trace.
	Lower, Measured, Upper uint64
	// StaticPages / MeasuredPages are the executed page footprint as
	// derived statically and as touched by the trace; they must agree
	// when the bounds are exact.
	StaticPages, MeasuredPages int
	// WS is the trace-measured average Denning working set in pages
	// (window ExtPagingWindow; independent of Frames).
	WS float64
	// Exact reports that the bounds are guarantees for this run (they
	// always are here unless the run hit the interpreter step cap).
	Exact bool
	// Analysis is the static analysis the bounds came from.
	Analysis *analysis.PageResult
}

// OK reports whether the row honours the bracket and footprint
// invariants (vacuously true for inexact rows, where the bounds are
// only estimates).
func (r PageBoundRow) OK() bool {
	if !r.Exact {
		return true
	}
	return r.Lower <= r.Measured && r.Measured <= r.Upper &&
		r.StaticPages == r.MeasuredPages
}

// PageBoundCheck analyses every prepared benchmark's optimized layout
// under every PageBoundSizes x PageBoundFrames paging geometry and
// pairs the static fault bounds with the demand-paging simulation of
// the same evaluation run.
func PageBoundCheck(s *Suite) ([]PageBoundRow, error) {
	var rows []PageBoundRow
	for _, ps := range PageBoundSizes {
		// The working set depends on the page size only; compute it
		// once per benchmark and share it across frame counts.
		ws := make(map[string]float64, len(s.Items))
		for _, p := range s.Items {
			w, err := paging.WorkingSet(p.OptTrace, ps, ExtPagingWindow)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name(), err)
			}
			ws[p.Name()] = w
		}
		for _, fr := range PageBoundFrames {
			cfg := paging.Config{PageBytes: ps, Frames: fr}
			for _, p := range s.Items {
				res, err := p.AnalyzePages(cfg)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", p.Name(), err)
				}
				st, err := paging.Simulate(cfg, p.OptTrace)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", p.Name(), err)
				}
				rows = append(rows, PageBoundRow{
					Name:      p.Name(),
					PageBytes: ps, Frames: fr,
					Lower:         res.Bounds.Lower,
					Measured:      st.Faults,
					Upper:         res.Bounds.Upper,
					StaticPages:   res.Report.ExecPages,
					MeasuredPages: st.PagesTouched,
					WS:            ws[p.Name()],
					Exact:         res.Bounds.Exact,
					Analysis:      res,
				})
			}
		}
	}
	return rows, nil
}

// PageBoundErr returns nil when every row honours the bracket and
// footprint invariants, and an error naming the violations otherwise.
func PageBoundErr(rows []PageBoundRow) error {
	bad := 0
	var first PageBoundRow
	for _, r := range rows {
		if !r.OK() {
			if bad == 0 {
				first = r
			}
			bad++
		}
	}
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("experiments: %d page bound violation(s); first: %s %dB/%d frames measured %d outside [%d, %d] (footprint %d static vs %d touched)",
		bad, first.Name, first.PageBytes, first.Frames,
		first.Measured, first.Lower, first.Upper, first.StaticPages, first.MeasuredPages)
}

// RenderPageBoundCheck formats the page bound check: a per-geometry
// aggregate of the bracket, then a per-benchmark page-pressure summary
// at the default 4KB / 8-frame geometry.
func RenderPageBoundCheck(rows []PageBoundRow) string {
	t := texttable.New("Static page-fault bounds vs. simulated faults (optimized layout, LRU demand paging)",
		"page", "frames", "lower", "measured", "upper", "in bounds")
	for _, ps := range PageBoundSizes {
		for _, fr := range PageBoundFrames {
			var lo, mid, hi uint64
			ok, n := 0, 0
			for _, r := range rows {
				if r.PageBytes != ps || r.Frames != fr {
					continue
				}
				lo += r.Lower
				mid += r.Measured
				hi += r.Upper
				n++
				if r.OK() {
					ok++
				}
			}
			frames := fmt.Sprintf("%d", fr)
			if fr == 0 {
				frames = "inf"
			}
			t.Row(fmt.Sprintf("%dB", ps), frames,
				texttable.Mega(lo), texttable.Mega(mid), texttable.Mega(hi),
				fmt.Sprintf("%d/%d", ok, n))
		}
	}
	out := t.String()

	def := paging.Config{PageBytes: 4096, Frames: 8}
	q := texttable.New(fmt.Sprintf("Per-benchmark page pressure (%s)", def),
		"benchmark", "code pg", "exec pg", "hot pg", "waste", "thrash", "pairs", "lower", "measured", "upper", "WS")
	for _, r := range rows {
		if r.PageBytes != def.PageBytes || r.Frames != def.Frames {
			continue
		}
		rep := r.Analysis.Report
		q.Row(r.Name,
			rep.CodePages, rep.ExecPages, rep.HotPages,
			fmt.Sprintf("%dB", rep.WasteBytes),
			rep.ThrashScopes, len(rep.Pairs),
			texttable.Mega(r.Lower), texttable.Mega(r.Measured), texttable.Mega(r.Upper),
			fmt.Sprintf("%.1f", r.WS))
	}
	return out + "\n" + q.String()
}
