package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/texttable"
)

// The ablations quantify the design choices DESIGN.md calls out. They
// all measure the 2KB/64B direct-mapped instruction cache the paper
// centres on, unless stated otherwise.

// ---------------------------------------------------------------------------
// A1 — Layout strategy ablation.

// LayoutStrategies names the A1 ablation arms, in presentation order.
var LayoutStrategies = []string{"natural", "random", "trace-only", "no-inline", "no-split", "full"}

// partialStrategies are the A1 arms that run part of the pipeline.
var partialStrategies = map[string]core.Strategy{
	"trace-only": {TraceLayout: true},
	"no-inline":  {TraceLayout: true, GlobalDFS: true, SplitCold: true},
	"no-split":   {Inline: true, TraceLayout: true, GlobalDFS: true},
}

// AblationLayoutRow holds one benchmark's miss ratio per strategy.
type AblationLayoutRow struct {
	Name string
	Miss map[string]float64
}

// AblationLayout compares placement strategies:
//
//	natural    — original program, declaration order (the baseline);
//	random     — original program, random function/block order;
//	trace-only — steps 3-4 only: trace selection and function body
//	             layout, functions in declaration order, no cold split,
//	             no inlining;
//	no-inline  — the full layout pipeline (steps 3-5) without step 2;
//	no-split   — full pipeline except the effective/non-executed split;
//	full       — the paper's complete pipeline.
//
// The partial pipelines place the prepared profile (Prepared.Profile);
// only their evaluation traces are interpreted.
func AblationLayout(s *Suite) ([]AblationLayoutRow, error) {
	cfg2k := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	return measureRows(s, func(p *Prepared, lane obs.Lane) (AblationLayoutRow, []SimRequest, error) {
		row := AblationLayoutRow{Name: p.Name(), Miss: make(map[string]float64)}
		var reqs []SimRequest
		for _, name := range LayoutStrategies {
			tr, err := layoutTrace(p, name, lane)
			if err != nil {
				return row, nil, err
			}
			reqs = append(reqs, SimRequest{tr, cfg2k})
		}
		return row, reqs, nil
	}, func(r *AblationLayoutRow, st []cache.Stats) {
		for i, name := range LayoutStrategies {
			r.Miss[name] = st[i].MissRatio()
		}
	})
}

// layoutTrace returns p's evaluation trace under the A1 arm name,
// placing a partial pipeline and tracing on lane.
func layoutTrace(p *Prepared, name string, lane obs.Lane) (*memtrace.Trace, error) {
	switch name {
	case "natural":
		return p.NatTrace, nil
	case "full":
		return p.OptTrace, nil
	case "random":
		tr, _, err := p.evalRun(layout.Random(p.Bench.Prog, 0xAB1), name, lane, nil, false)
		return tr, err
	}
	_, tr, err := p.deriveOptimize(name, p.variantConfig(partialStrategies[name], lane))
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", p.Name(), name, err)
	}
	return tr, nil
}

// RenderAblationLayout formats A1.
func RenderAblationLayout(rows []AblationLayoutRow) string {
	headers := append([]string{"name"}, LayoutStrategies...)
	t := texttable.New("Ablation A1. Layout Strategy (miss ratio, 2KB/64B direct-mapped)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, s := range LayoutStrategies {
			cells = append(cells, texttable.Pct3(r.Miss[s]))
		}
		t.Row(cells...)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// A2 — Associativity ablation: does the optimized direct-mapped cache
// match higher associativities, and how does the unoptimized layout
// respond to associativity? (The paper's headline comparison.)

// Associativities lists the measured associativities (0 = full).
var Associativities = []int{1, 2, 4, 0}

// AblationAssocRow holds miss ratios per associativity for both
// layouts of one benchmark.
type AblationAssocRow struct {
	Name      string
	Optimized map[int]float64
	Natural   map[int]float64
}

// AblationAssoc sweeps associativity at 2KB/64B over both layouts,
// batched into one engine pass over the suite.
func AblationAssoc(s *Suite) ([]AblationAssocRow, error) {
	return measureRows(s, func(p *Prepared, _ obs.Lane) (AblationAssocRow, []SimRequest, error) {
		var reqs []SimRequest
		for _, a := range Associativities {
			cfg := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: a}
			reqs = append(reqs, SimRequest{p.OptTrace, cfg}, SimRequest{p.NatTrace, cfg})
		}
		return AblationAssocRow{
			Name:      p.Name(),
			Optimized: make(map[int]float64),
			Natural:   make(map[int]float64),
		}, reqs, nil
	}, func(r *AblationAssocRow, st []cache.Stats) {
		for i, a := range Associativities {
			r.Optimized[a] = st[2*i].MissRatio()
			r.Natural[a] = st[2*i+1].MissRatio()
		}
	})
}

// RenderAblationAssoc formats A2.
func RenderAblationAssoc(rows []AblationAssocRow) string {
	label := func(a int) string {
		if a == 0 {
			return "full"
		}
		return fmt.Sprintf("%d-way", a)
	}
	headers := []string{"name"}
	for _, a := range Associativities {
		headers = append(headers, "opt "+label(a))
	}
	for _, a := range Associativities {
		headers = append(headers, "nat "+label(a))
	}
	t := texttable.New("Ablation A2. Associativity (miss ratio, 2KB/64B)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, a := range Associativities {
			cells = append(cells, texttable.Pct3(r.Optimized[a]))
		}
		for _, a := range Associativities {
			cells = append(cells, texttable.Pct3(r.Natural[a]))
		}
		t.Row(cells...)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// A3 — MIN_PROB sensitivity.

// MinProbValues lists the sweep points around the paper's 0.7.
var MinProbValues = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// AblationMinProbRow holds one benchmark's results per threshold.
type AblationMinProbRow struct {
	Name string
	// Miss is the 2KB/64B direct-mapped miss ratio per MIN_PROB.
	Miss map[float64]float64
	// Desirable is the desirable-transfer fraction per MIN_PROB.
	Desirable map[float64]float64
}

// AblationMinProb re-runs steps 3-5 on the prepared profile at each
// threshold.
func AblationMinProb(s *Suite) ([]AblationMinProbRow, error) {
	cfg2k := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	return measureRows(s, func(p *Prepared, lane obs.Lane) (AblationMinProbRow, []SimRequest, error) {
		row := AblationMinProbRow{
			Name:      p.Name(),
			Miss:      make(map[float64]float64),
			Desirable: make(map[float64]float64),
		}
		var reqs []SimRequest
		for _, mp := range MinProbValues {
			ccfg := p.variantConfig(core.FullStrategy(), lane)
			// The paper's threshold is the pipeline default, so there
			// the prepared result is this very variant.
			res, tr := p.Opt, p.OptTrace
			if mp != ccfg.MinProb {
				ccfg.MinProb = mp
				var err error
				res, tr, err = p.deriveOptimize(fmt.Sprintf("min-prob %g", mp), ccfg)
				if err != nil {
					return row, nil, err
				}
			}
			row.Desirable[mp] = res.TraceStats.DesirableFrac()
			reqs = append(reqs, SimRequest{tr, cfg2k})
		}
		return row, reqs, nil
	}, func(r *AblationMinProbRow, st []cache.Stats) {
		for i, mp := range MinProbValues {
			r.Miss[mp] = st[i].MissRatio()
		}
	})
}

// RenderAblationMinProb formats A3.
func RenderAblationMinProb(rows []AblationMinProbRow) string {
	headers := []string{"name"}
	for _, mp := range MinProbValues {
		headers = append(headers, fmt.Sprintf("%.1f miss", mp), fmt.Sprintf("%.1f desir", mp))
	}
	t := texttable.New("Ablation A3. MIN_PROB Sensitivity (2KB/64B direct-mapped)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, mp := range MinProbValues {
			cells = append(cells, texttable.Pct3(r.Miss[mp]), texttable.Pct(r.Desirable[mp]))
		}
		t.Row(cells...)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// A4 — Global layout ablation: weighted DFS function order vs
// declaration order, with inline expansion and intra-function layout
// held fixed. Returns the suite-average 2KB/64B direct-mapped miss
// ratio with DFS enabled and disabled.
//
//lint:testapi BenchmarkAblationGlobalLayout (bench_test.go) times it; icexp does not run A4
func AblationGlobal(s *Suite) (withDFS, withoutDFS float64, err error) {
	cfg2k := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	stats, err := measureSection(s, func(p *Prepared, lane obs.Lane) ([]SimRequest, error) {
		// Without DFS: full pipeline minus the global order.
		ccfg := p.variantConfig(core.Strategy{Inline: true, TraceLayout: true, SplitCold: true}, lane)
		_, tr, err := p.deriveOptimize("no-dfs", ccfg)
		if err != nil {
			return nil, err
		}
		return []SimRequest{{p.OptTrace, cfg2k}, {tr, cfg2k}}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	for _, st := range stats {
		withDFS += st[0].MissRatio()
		withoutDFS += st[1].MissRatio()
	}
	n := float64(len(s.Items))
	return withDFS / n, withoutDFS / n, nil
}

// ---------------------------------------------------------------------------
// A5 — Replacement policy: LRU vs FIFO vs random at 2KB/64B 4-way on
// the optimized layout. Smith's design targets assume LRU; this
// quantifies how much the policy matters once placement has removed
// most conflicts.

// ReplacementPolicies lists the A5 arms.
var ReplacementPolicies = []cache.Replacement{cache.LRU, cache.FIFO, cache.RandomRepl}

// AblationReplacementRow holds one benchmark's miss ratio per policy.
type AblationReplacementRow struct {
	Name string
	Miss map[cache.Replacement]float64
}

// AblationReplacement sweeps the replacement policy in one engine
// batch (the three policies share a broadcast replay per benchmark).
func AblationReplacement(s *Suite) ([]AblationReplacementRow, error) {
	return measureRows(s, func(p *Prepared, _ obs.Lane) (AblationReplacementRow, []SimRequest, error) {
		var reqs []SimRequest
		for _, rep := range ReplacementPolicies {
			reqs = append(reqs, SimRequest{p.OptTrace,
				cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, Replacement: rep}})
		}
		return AblationReplacementRow{Name: p.Name(), Miss: make(map[cache.Replacement]float64)}, reqs, nil
	}, func(r *AblationReplacementRow, st []cache.Stats) {
		for i, rep := range ReplacementPolicies {
			r.Miss[rep] = st[i].MissRatio()
		}
	})
}

// RenderAblationReplacement formats A5.
func RenderAblationReplacement(rows []AblationReplacementRow) string {
	headers := []string{"name"}
	for _, rep := range ReplacementPolicies {
		headers = append(headers, rep.String())
	}
	t := texttable.New("Ablation A5. Replacement Policy (miss ratio, 2KB/64B 4-way, optimized layout)", headers...)
	for _, r := range rows {
		cells := []any{r.Name}
		for _, rep := range ReplacementPolicies {
			cells = append(cells, texttable.Pct3(r.Miss[rep]))
		}
		t.Row(cells...)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// A6 — Global layout algorithm: the Appendix's weighted DFS vs Pettis
// & Hansen's closest-is-best chain merging (PLDI 1990), with the rest
// of the pipeline identical.

// AblationGlobalAlgoRow holds one benchmark's 2KB/64B miss under both
// global orderings.
type AblationGlobalAlgoRow struct {
	Name    string
	DFSMiss float64
	PHMiss  float64
}

// AblationGlobalAlgo compares the two historical global orderings.
func AblationGlobalAlgo(s *Suite) ([]AblationGlobalAlgoRow, error) {
	cfg2k := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	return measureRows(s, func(p *Prepared, lane obs.Lane) (AblationGlobalAlgoRow, []SimRequest, error) {
		ccfg := p.variantConfig(core.FullStrategy(), lane)
		ccfg.Strategy.PettisHansen = true
		_, tr, err := p.deriveOptimize("pettis-hansen", ccfg)
		if err != nil {
			return AblationGlobalAlgoRow{}, nil, err
		}
		return AblationGlobalAlgoRow{Name: p.Name()}, []SimRequest{{p.OptTrace, cfg2k}, {tr, cfg2k}}, nil
	}, func(r *AblationGlobalAlgoRow, st []cache.Stats) {
		r.DFSMiss = st[0].MissRatio()
		r.PHMiss = st[1].MissRatio()
	})
}

// RenderAblationGlobalAlgo formats A6.
func RenderAblationGlobalAlgo(rows []AblationGlobalAlgoRow) string {
	t := texttable.New("Ablation A6. Global Ordering: Appendix DFS vs Pettis-Hansen (miss, 2KB/64B dm)",
		"name", "DFS (1989)", "PH (1990)")
	var d, p float64
	for _, r := range rows {
		t.Row(r.Name, texttable.Pct3(r.DFSMiss), texttable.Pct3(r.PHMiss))
		d += r.DFSMiss
		p += r.PHMiss
	}
	if n := float64(len(rows)); n > 0 {
		t.Row("average", texttable.Pct3(d/n), texttable.Pct3(p/n))
	}
	return t.String()
}
