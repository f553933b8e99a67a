package experiments

import (
	"fmt"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/obs"
	"impact/internal/profile"
	"impact/internal/smith"
	"impact/internal/texttable"
)

// This file hosts the static-analysis side of the experiments: running
// internal/analysis over the prepared benchmarks and checking its
// must/may miss bounds against the trace-driven simulator — the
// differential invariant that cross-validates the analyzer, the layout
// code, and the sweep engine against each other.

// EvalWeights returns the profile of the optimized program over the
// single evaluation run, counted in the very run OptTrace records.
// Analyses built from these weights have Exact bounds: the
// simulator's misses on OptTrace must bracket. The error is always
// nil; preparation has already traced and counted the run.
func (p *Prepared) EvalWeights() (*profile.Weights, error) {
	return p.evalW, nil
}

// Analyze returns the static cache-behavior analysis of the optimized
// layout under cfg, built from the evaluation-run weights and verified
// by the bounds analyzer under the suite's check mode.
func (p *Prepared) Analyze(cfg cache.Config) (*analysis.Result, error) {
	res, err := analysis.Analyze(p.Opt.Layout, p.evalW, analysis.Config{Cache: cfg})
	if err != nil {
		return nil, err
	}
	if err := p.verify(&check.Unit{
		Stage: check.StageAnalysis, Prog: p.Opt.Prog, Weights: p.evalW,
		Layout: p.Opt.Layout, Analysis: res,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// BoundRow is one benchmark x geometry bound-vs-measurement
// comparison.
type BoundRow struct {
	Name                   string
	CacheBytes, BlockBytes int
	// Lower / Upper are the static miss bounds; Measured is the
	// simulator's miss count on the same run's trace.
	Lower, Measured, Upper uint64
	// Accesses is the fetch count (identical statically and measured).
	Accesses uint64
	// Exact reports that the bounds are guarantees for this run (they
	// always are here — the weights come from the evaluation run —
	// unless the run hit the interpreter step cap).
	Exact bool
	// Analysis is the static analysis the bounds came from.
	Analysis *analysis.Result
}

// OK reports whether the row honours the bracket invariant (vacuously
// true for inexact rows, where the bounds are only estimates).
func (r BoundRow) OK() bool {
	return !r.Exact || (r.Lower <= r.Measured && r.Measured <= r.Upper)
}

// BoundCheck analyses every prepared benchmark's optimized layout
// under every Table-1 geometry (direct-mapped, the organisation the
// paper optimizes for) and pairs the static bounds with the simulated
// miss count of the same evaluation run.
func BoundCheck(s *Suite) ([]BoundRow, error) {
	geoms := smithGeometries()
	stats, err := measureSection(s, func(p *Prepared, _ obs.Lane) ([]SimRequest, error) {
		reqs := make([]SimRequest, len(geoms))
		for k, g := range geoms {
			reqs[k] = SimRequest{p.OptTrace, g}
		}
		return reqs, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []BoundRow
	for k, g := range geoms {
		for i, p := range s.Items {
			res, err := p.Analyze(g)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name(), err)
			}
			rows = append(rows, BoundRow{
				Name:       p.Name(),
				CacheBytes: g.SizeBytes, BlockBytes: g.BlockBytes,
				Lower:    res.Bounds.Lower,
				Measured: stats[i][k].Misses,
				Upper:    res.Bounds.Upper,
				Accesses: res.Bounds.Accesses,
				Exact:    res.Bounds.Exact,
				Analysis: res,
			})
		}
	}
	return rows, nil
}

// BoundErr returns nil when every row honours the bracket invariant,
// and an error naming the violations otherwise.
func BoundErr(rows []BoundRow) error {
	bad := 0
	var first BoundRow
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
	return fmt.Errorf("experiments: %d bound violation(s); first: %s %dB/%dB measured %d outside [%d, %d]",
		bad, first.Name, first.CacheBytes, first.BlockBytes, first.Measured, first.Lower, first.Upper)
}

// RenderBoundCheck formats the bound check: a per-geometry aggregate
// of the bracket, then a per-benchmark layout-quality summary at the
// paper's default geometry.
func RenderBoundCheck(rows []BoundRow) string {
	t := texttable.New("Static must/may miss bounds vs. simulated misses (optimized layout, direct-mapped)",
		"cache", "block", "lower", "measured", "upper", "in bounds")
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			var lo, mid, hi uint64
			ok, n := 0, 0
			for _, r := range rows {
				if r.CacheBytes != cs || r.BlockBytes != bs {
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
			t.Row(fmt.Sprintf("%dB", cs), fmt.Sprintf("%dB", bs),
				texttable.Mega(lo), texttable.Mega(mid), texttable.Mega(hi),
				fmt.Sprintf("%d/%d", ok, n))
		}
	}
	out := t.String()

	const defSize, defBlock = 2048, 64
	q := texttable.New(fmt.Sprintf("Per-benchmark static layout quality (%dB cache, %dB blocks)", defSize, defBlock),
		"benchmark", "fall-thru", "ext-TSP", "AH", "FM", "AM", "NC", "lower", "measured", "upper", "conflict")
	for _, r := range rows {
		if r.CacheBytes != defSize || r.BlockBytes != defBlock {
			continue
		}
		res := r.Analysis
		b := res.Bounds
		classPct := func(c analysis.Class) string {
			if b.WeightedLineRefs == 0 {
				return texttable.Pct(0)
			}
			return texttable.Pct(float64(b.RefWeight[c]) / float64(b.WeightedLineRefs))
		}
		ratio := func(misses uint64) string {
			if b.Accesses == 0 {
				return texttable.Pct3(0)
			}
			return texttable.Pct3(float64(misses) / float64(b.Accesses))
		}
		q.Row(r.Name,
			texttable.Pct(res.Score.FallThroughRatio()),
			fmt.Sprintf("%.3f", res.Score.ExtTSP),
			classPct(analysis.ClassAlwaysHit), classPct(analysis.ClassFirstMiss),
			classPct(analysis.ClassAlwaysMiss), classPct(analysis.ClassUnclassified),
			ratio(b.Lower), ratio(r.Measured), ratio(b.Upper),
			texttable.Mega(res.Conflicts.TotalExcess))
	}
	return out + "\n" + q.String()
}
