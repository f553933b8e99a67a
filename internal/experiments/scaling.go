package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/texttable"
)

// Table9Scales are the code scaling factors of the paper's Table 9.
var Table9Scales = []float64{0.5, 0.7, 1.0, 1.1}

// Table9Row holds one benchmark's partial-loading results across code
// scales.
type Table9Row struct {
	Name    string
	Results map[float64]CacheResult // keyed by scale factor
}

// Table9 reproduces the code scaling experiment: every basic block's
// instruction count is scaled uniformly (simulating denser or sparser
// instruction encodings), the placement pipeline re-runs on the
// scaled program, and the 2KB/64B partial-loading cache is measured.
func Table9(s *Suite) ([]Table9Row, error) {
	cfg := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true}
	return measureRows(s, func(p *Prepared, lane obs.Lane) (Table9Row, []SimRequest, error) {
		row := Table9Row{Name: p.Name(), Results: make(map[float64]CacheResult)}
		var reqs []SimRequest
		for _, factor := range Table9Scales {
			tr, err := scaledTrace(p, factor, lane)
			if err != nil {
				return row, nil, fmt.Errorf("%s at scale %v: %w", p.Name(), factor, err)
			}
			reqs = append(reqs, SimRequest{tr, cfg})
		}
		return row, reqs, nil
	}, func(r *Table9Row, st []cache.Stats) {
		for i, factor := range Table9Scales {
			r.Results[factor] = cacheResult(st[i])
		}
	})
}

// scaledTrace runs the full pipeline on a code-scaled copy of the
// benchmark and returns its evaluation trace: the prepared profile
// scaled (core.Profiled.Scale, which interprets the scaled program
// only when it cannot derive its profile exactly), placed on lane and
// traced. Factor 1.0 is the prepared state itself, trace included —
// re-deriving it would replay the whole evaluation interpreter for an
// identical trace.
func scaledTrace(p *Prepared, factor float64, lane obs.Lane) (*memtrace.Trace, error) {
	if factor == 1.0 {
		return p.OptTrace, nil
	}
	prof, err := p.Profile.Scale(factor)
	if err != nil {
		return nil, err
	}
	res, err := core.Place(prof, p.variantConfig(core.FullStrategy(), lane))
	if err != nil {
		return nil, err
	}
	tr, _, err := p.evalRun(res.Layout, fmt.Sprintf("code scale %g", factor), lane, nil, false)
	return tr, err
}

// RenderTable9 formats Table 9.
func RenderTable9(rows []Table9Row) string {
	headers := []string{"name"}
	for _, f := range Table9Scales {
		headers = append(headers, fmt.Sprintf("%.1f miss", f), fmt.Sprintf("%.1f traffic", f))
	}
	t := texttable.New("Table 9. Effect of Code Scaling (2KB/64B direct-mapped, partial loading)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, f := range Table9Scales {
			cells = append(cells, texttable.Pct3(r.Results[f].Miss), texttable.Pct(r.Results[f].Traffic))
		}
		t.Row(cells...)
	}
	return t.String()
}
