package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/core/traceselect"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/paging"
	"impact/internal/search"
	"impact/internal/texttable"
)

// This file hosts the layout-search experiment: for every prepared
// benchmark, the conflict-driven local search (internal/search) tries
// to beat the greedy pipeline's global function order, and both
// layouts are priced by the trace-driven simulator — the ground truth
// the search's static objective only approximates. The searched
// layout is adopted per benchmark only when the simulator agrees it
// is no worse, so the experiment can never regress a benchmark.

// SearchRow compares the greedy and searched layouts of one benchmark.
type SearchRow struct {
	Name string
	// GreedyUpper / SearchUpper are the static miss upper bounds of
	// the two layouts (the search's objective).
	GreedyUpper, SearchUpper uint64
	// GreedyMiss / SearchMiss are the simulated miss ratios of the
	// two layouts over the evaluation run.
	GreedyMiss, SearchMiss float64
	// Evals and Accepted summarise the walk.
	Evals, Accepted int
	// Improved reports whether the search beat the greedy order on
	// its static objective; Won whether the simulator confirmed
	// strictly fewer misses.
	Improved, Won bool
	// GreedyFaults / SearchFaults are the simulated page-fault counts
	// of the greedy and adopted layouts, filled only when the search
	// ran with a paging objective (cfg.Paging non-nil); PageWon
	// reports simulator-confirmed strictly fewer faults.
	GreedyFaults, SearchFaults uint64
	PageWon                    bool
}

// SearchCompare runs the layout search on every prepared benchmark at
// geom and scores both layouts with the simulator. cfg.Cache is
// overridden with geom; cfg.Checkpoint is installed by the experiment
// (stream-simulation of the incumbent) unless the caller set one.
// Every searched layout is re-verified with the strict layout
// analyzers before it is priced.
func SearchCompare(s *Suite, geom cache.Config, cfg search.Config) ([]SearchRow, error) {
	rows := make([]SearchRow, 0, len(s.Items))
	for _, p := range s.Items {
		greedySt, err := cache.Simulate(geom, p.OptTrace)
		if err != nil {
			return nil, err
		}

		// price streams the evaluation run of lay, the layout named
		// name, once into the cache simulator and, when paged, into a
		// paging simulator beside it.
		price := func(lay *layout.Layout, name string, paged bool) (misses, faults uint64, err error) {
			sim, err := cache.NewSinkSimulator(geom)
			if err != nil {
				return 0, 0, err
			}
			var sink memtrace.Sink = sim
			var pager *paging.Simulator
			if paged {
				if pager, err = paging.NewSimulator(*cfg.Paging); err != nil {
					return 0, 0, err
				}
				sink = memtrace.Tee(sim, pager)
			}
			if _, _, err := p.evalRun(lay, name, cfg.Lane, sink, false); err != nil {
				return 0, 0, err
			}
			if pager != nil {
				faults = pager.Stats().Faults
			}
			return sim.Stats()[0].Misses, faults, nil
		}

		scfg := cfg
		scfg.Cache = geom
		if scfg.Checkpoint == nil {
			scfg.Checkpoint = func(lay *layout.Layout) (uint64, error) {
				m, _, err := price(lay, "search checkpoint", false)
				return m, err
			}
		}
		res, err := search.Optimize(search.Input{
			Prog: p.Opt.Prog, Weights: p.evalW,
			Orders: p.Opt.Orders, Global: p.Opt.GlobalOrder,
			SplitCold: true,
		}, scfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name(), err)
		}

		// Every layout the search emits must satisfy the same layout
		// invariants as the greedy pipeline output, checked strictly.
		rep := check.Run(&check.Unit{
			Stage: check.StageSearch, Prog: p.Opt.Prog, Weights: p.Opt.Weights,
			Traces: p.Opt.Traces, MinProb: traceselect.DefaultMinProb,
			Orders: p.Opt.Orders, Global: &res.Order,
			Layout: res.Layout, EffectiveBytes: p.Opt.EffectiveBytes,
			TraceLayout: true, SplitCold: true,
		}, check.ForStage(check.StageSearch), cfg.Obs)
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("%s: searched layout failed verification: %w", p.Name(), err)
		}

		row := SearchRow{
			Name:        p.Name(),
			GreedyUpper: res.Initial.Bounds.Upper,
			SearchUpper: res.Analysis.Bounds.Upper,
			Evals:       res.Evals,
			Accepted:    res.Accepted,
			Improved:    res.Improved,
		}
		row.GreedyMiss = float64(greedySt.Misses) / float64(greedySt.Accesses)
		searchMisses := greedySt.Misses
		paged := cfg.Paging != nil
		if paged {
			// Price both layouts' paging behaviour too. The climbs'
			// adoption decision stays cache-first (the lexicographic
			// objective's order); only the page-refined variant below
			// can trade, and the simulator arbitrates the trade.
			gp, err := paging.Simulate(*cfg.Paging, p.OptTrace)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name(), err)
			}
			row.GreedyFaults = gp.Faults
			row.SearchFaults = gp.Faults
		}
		if res.Improved {
			m, f, err := price(res.Layout, "searched", paged)
			if err != nil {
				return nil, fmt.Errorf("%s: simulating searched layout: %w", p.Name(), err)
			}
			// The simulator has the last word: adopt the searched
			// layout only when it measures no worse than greedy.
			if m <= greedySt.Misses {
				searchMisses = m
				row.SearchFaults = f
			}
		}
		if paged {
			// The page-refined variant packed the executed footprint
			// into fewer static pages for a sliver of static cache
			// headroom. Adopt it only when the simulator confirms the
			// trade is free: measured misses still no worse than
			// greedy, measured faults strictly below the layout chosen
			// so far — enabling paging can improve the fault column
			// but never costs the miss column its greedy baseline.
			if ref := res.PageRefined; ref != nil {
				rep := check.Run(&check.Unit{
					Stage: check.StageSearch, Prog: p.Opt.Prog, Weights: p.Opt.Weights,
					Traces: p.Opt.Traces, MinProb: traceselect.DefaultMinProb,
					Orders: p.Opt.Orders, Global: &ref.Order,
					Layout: ref.Layout, EffectiveBytes: p.Opt.EffectiveBytes,
					TraceLayout: true, SplitCold: true,
				}, check.ForStage(check.StageSearch), cfg.Obs)
				if err := rep.Err(); err != nil {
					return nil, fmt.Errorf("%s: page-refined layout failed verification: %w", p.Name(), err)
				}
				m, f, err := price(ref.Layout, "page-refined", true)
				if err != nil {
					return nil, fmt.Errorf("%s: simulating page-refined layout: %w", p.Name(), err)
				}
				if m <= greedySt.Misses && f < row.SearchFaults {
					searchMisses = m
					row.SearchFaults = f
					row.SearchUpper = ref.Analysis.Bounds.Upper
				}
			}
			row.PageWon = row.SearchFaults < row.GreedyFaults
		}
		row.SearchMiss = float64(searchMisses) / float64(greedySt.Accesses)
		row.Won = searchMisses < greedySt.Misses
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSearchCompare formats the comparison as a text table. pcfg,
// when non-nil, is the paging geometry the search priced; the table
// then carries the page-fault columns.
func RenderSearchCompare(geom cache.Config, pcfg *paging.Config, rows []SearchRow) string {
	title := fmt.Sprintf("Layout search vs greedy pipeline (%dB/%dB assoc=%d)",
		geom.SizeBytes, geom.BlockBytes, geom.Assoc)
	headers := []string{"benchmark", "greedy upper", "search upper", "greedy miss", "search miss", "evals", "kept", "won"}
	if pcfg != nil {
		title = fmt.Sprintf("Layout search vs greedy pipeline (%dB/%dB assoc=%d, %s)",
			geom.SizeBytes, geom.BlockBytes, geom.Assoc, *pcfg)
		headers = append(headers, "greedy PF", "search PF")
	}
	tb := texttable.New(title, headers...)
	wins, pageWins := 0, 0
	for _, r := range rows {
		won := ""
		if r.Won {
			won = "yes"
			wins++
		}
		if r.PageWon {
			pageWins++
		}
		cells := []any{r.Name,
			fmt.Sprintf("%d", r.GreedyUpper),
			fmt.Sprintf("%d", r.SearchUpper),
			fmt.Sprintf("%.4f", r.GreedyMiss),
			fmt.Sprintf("%.4f", r.SearchMiss),
			fmt.Sprintf("%d", r.Evals),
			fmt.Sprintf("%d", r.Accepted),
			won}
		if pcfg != nil {
			cells = append(cells, fmt.Sprintf("%d", r.GreedyFaults), fmt.Sprintf("%d", r.SearchFaults))
		}
		tb.Row(cells...)
	}
	out := tb.String() + fmt.Sprintf("\nsearch wins on %d/%d benchmarks (simulator-confirmed)\n", wins, len(rows))
	if pcfg != nil {
		out += fmt.Sprintf("page faults reduced on %d/%d benchmarks\n", pageWins, len(rows))
	}
	return out
}
