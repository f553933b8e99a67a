package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/memtrace"
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
	var out []AblationLayoutRow
	for _, p := range s.Items {
		b := p.Bench
		row := AblationLayoutRow{Name: p.Name(), Miss: make(map[string]float64)}

		traces := map[string]*memtrace.Trace{"natural": p.NatTrace, "full": p.OptTrace}

		_, rndTr, err := p.deriveTrace("layout:random", func() (*core.Result, *memtrace.Trace, error) {
			tr, _, err := layout.Trace(layout.Random(b.Prog, 0xAB1), b.EvalSeed, b.EvalConfig())
			return nil, tr, err
		})
		if err != nil {
			return nil, err
		}
		traces["random"] = rndTr

		//lint:maprange results land in the traces map; rendering iterates LayoutStrategies
		for name, st := range partialStrategies {
			_, tr, err := p.deriveOptimize("layout:"+name, pipelineConfig(b, st))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.Name(), name, err)
			}
			traces[name] = tr
		}

		for _, name := range LayoutStrategies {
			st2k, err := sharedEngine.Simulate(cfg2k, traces[name])
			if err != nil {
				return nil, err
			}
			row.Miss[name] = st2k.MissRatio()
		}
		out = append(out, row)
	}
	return out, nil
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
	var reqs []SimRequest
	for _, p := range s.Items {
		for _, a := range Associativities {
			cfg := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: a}
			reqs = append(reqs, SimRequest{p.OptTrace, cfg}, SimRequest{p.NatTrace, cfg})
		}
	}
	stats, err := sharedEngine.Batch(reqs)
	if err != nil {
		return nil, err
	}
	var out []AblationAssocRow
	i := 0
	for _, p := range s.Items {
		row := AblationAssocRow{
			Name:      p.Name(),
			Optimized: make(map[int]float64),
			Natural:   make(map[int]float64),
		}
		for _, a := range Associativities {
			row.Optimized[a] = stats[i].MissRatio()
			row.Natural[a] = stats[i+1].MissRatio()
			i += 2
		}
		out = append(out, row)
	}
	return out, nil
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
	var out []AblationMinProbRow
	for _, p := range s.Items {
		b := p.Bench
		row := AblationMinProbRow{
			Name:      p.Name(),
			Miss:      make(map[float64]float64),
			Desirable: make(map[float64]float64),
		}
		for _, mp := range MinProbValues {
			ccfg := pipelineConfig(b, core.FullStrategy())
			var res *core.Result
			var tr *memtrace.Trace
			var err error
			if mp == ccfg.MinProb {
				// The paper's threshold is the pipeline default, so the
				// prepared result is this very variant.
				res, tr = p.Opt, p.OptTrace
			} else {
				ccfg.MinProb = mp
				res, tr, err = p.deriveOptimize(fmt.Sprintf("minprob:%g", mp), ccfg)
				if err != nil {
					return nil, err
				}
			}
			st, err := sharedEngine.Simulate(cfg2k, tr)
			if err != nil {
				return nil, err
			}
			row.Miss[mp] = st.MissRatio()
			row.Desirable[mp] = res.TraceStats.DesirableFrac()
		}
		out = append(out, row)
	}
	return out, nil
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
func AblationGlobal(s *Suite) (withDFS, withoutDFS float64, err error) {
	cfg2k := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	for _, p := range s.Items {
		b := p.Bench

		// With DFS: the prepared full-pipeline trace.
		st, err := sharedEngine.Simulate(cfg2k, p.OptTrace)
		if err != nil {
			return 0, 0, err
		}
		withDFS += st.MissRatio()

		// Without DFS: full pipeline minus the global order.
		ccfg := pipelineConfig(b, core.Strategy{Inline: true, TraceLayout: true, SplitCold: true})
		_, tr, err := p.deriveOptimize("global:no-dfs", ccfg)
		if err != nil {
			return 0, 0, err
		}
		st, err = sharedEngine.Simulate(cfg2k, tr)
		if err != nil {
			return 0, 0, err
		}
		withoutDFS += st.MissRatio()
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
	var reqs []SimRequest
	for _, p := range s.Items {
		for _, rep := range ReplacementPolicies {
			reqs = append(reqs, SimRequest{p.OptTrace,
				cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, Replacement: rep}})
		}
	}
	stats, err := sharedEngine.Batch(reqs)
	if err != nil {
		return nil, err
	}
	var out []AblationReplacementRow
	i := 0
	for _, p := range s.Items {
		row := AblationReplacementRow{Name: p.Name(), Miss: make(map[cache.Replacement]float64)}
		for _, rep := range ReplacementPolicies {
			row.Miss[rep] = stats[i].MissRatio()
			i++
		}
		out = append(out, row)
	}
	return out, nil
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
	var out []AblationGlobalAlgoRow
	for _, p := range s.Items {
		b := p.Bench
		dfs, err := sharedEngine.Simulate(cfg2k, p.OptTrace)
		if err != nil {
			return nil, err
		}

		ccfg := pipelineConfig(b, core.FullStrategy())
		ccfg.Strategy.PettisHansen = true
		_, tr, err := p.deriveOptimize("globalalgo:ph", ccfg)
		if err != nil {
			return nil, err
		}
		ph, err := sharedEngine.Simulate(cfg2k, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationGlobalAlgoRow{
			Name:    p.Name(),
			DFSMiss: dfs.MissRatio(),
			PHMiss:  ph.MissRatio(),
		})
	}
	return out, nil
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
