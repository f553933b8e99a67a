package main

import (
	"errors"
	"fmt"
	"time"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/experiments"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/paging"
	"impact/internal/profile"
	"impact/internal/search"
	"impact/internal/smith"
	"impact/internal/workload"
)

// workloadDef is one set of inputs the benchmark runs and the timed
// phase it runs on them. README.md records why each workload exists.
type workloadDef struct {
	name string
	// scale multiplies every program's dynamic trace length.
	scale float64
	// params lists the programs each round builds, before reseeding
	// and scaling.
	params func() []workload.Params
	// prepare computes the timed phase's remaining inputs as part of
	// set-up; nil when there are none.
	prepare func(r *round) error
	// run is the timed phase.
	run func(r *round)
	// check referees the timed phase's outputs, untimed; nil when the
	// timed phase referees itself.
	check func(r *round)
	// runSize measures the input that drives the timed phase's cost;
	// nil when program structure, not input length, sets it.
	runSize *size
	// golden marks the workload whose output at seed 0 and scale 1
	// must reproduce docs/results-full.txt.
	golden bool
}

// size measures a round's input in instructions, as generated and as
// expected at the workload's nominal length. A program's run length is
// geometric in its outer loop, so two seeds' suites can differ in
// length twofold; costs that grow with length are reported at nominal
// length so that the seed does not move them.
type size struct {
	actual  func(*experiments.Prepared) uint64
	nominal func(workload.Params) uint64
}

var (
	// fetches counts the instructions of the two evaluation traces,
	// which every simulation replays.
	fetches = &size{
		actual:  func(p *experiments.Prepared) uint64 { return p.OptTrace.Instrs + p.NatTrace.Instrs },
		nominal: func(p workload.Params) uint64 { return 2 * p.TargetInstrs },
	}
	// interpreted counts the instructions one pipeline run interprets:
	// profiling the program and its inlined form, then both evaluation
	// traces.
	interpreted = &size{
		actual: func(p *experiments.Prepared) uint64 {
			return p.Opt.OrigWeights.DynInstrs + p.Opt.Weights.DynInstrs + p.OptTrace.Instrs + p.NatTrace.Instrs
		},
		nominal: func(p workload.Params) uint64 { return uint64(2*p.ProfileRuns+2) * p.TargetInstrs },
	}
)

func workloadDefs() []workloadDef {
	return []workloadDef{
		{
			name: "tables", scale: 0.25, params: workload.SuiteParams, golden: true,
			runSize: interpreted,
			run:     func(r *round) { r.runSections(tableSections) },
			check:   checkCells,
		},
		{
			name: "simulate", scale: 1, params: workload.SuiteParams,
			runSize: fetches,
			run:     func(r *round) { r.runSections(simulateSections); loneRequests(r) },
			check:   func(r *round) { checkCells(r); checkLone(r) },
		},
		{
			name: "search", scale: 0.25, params: workload.SuiteParams,
			run: searchCompare, check: checkSearch,
		},
		{
			name: "analyze", scale: 0.25,
			params: func() []workload.Params {
				return append(workload.SuiteParams(), workload.ExtendedSuiteParams()...)
			},
			prepare: prepareAnalyze, run: analyzeAll,
		},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// section is one experiment of the reproduction: computed over the
// round's suite, then rendered as icexp prints it.
type section struct {
	name string // as in its experiments.<name>_s metric
	run  func(r *round) (string, error)
}

// experiment builds a section from experiments.<fn> and its renderer
// experiments.Render<fn>, each called under its own span.
func experiment[T any](name, fn string, compute func(*round) (T, error), render func(T) string) section {
	return section{name, func(r *round) (string, error) {
		v, err := call(r, "experiments."+fn, suiteAttr, func() (T, error) { return compute(r) })
		if err != nil {
			return "", err
		}
		return call(r, "experiments.Render"+fn, suiteAttr, func() (string, error) { return render(v), nil })
	}}
}

// onSuite adapts an experiment that reads only the suite.
func onSuite[T any](f func(*experiments.Suite) (T, error)) func(*round) (T, error) {
	return func(r *round) (T, error) { return f(r.suite) }
}

// infallible adapts an experiment that cannot fail.
func infallible[T any](f func(*experiments.Suite) T) func(*round) (T, error) {
	return func(r *round) (T, error) { return f(r.suite), nil }
}

var (
	table1 = experiment("table1", "Table1", onSuite(experiments.Table1), experiments.RenderTable1)
	table2 = experiment("table2", "Table2", infallible(experiments.Table2), experiments.RenderTable2)
	table3 = experiment("table3", "Table3", infallible(experiments.Table3), experiments.RenderTable3)
	table4 = experiment("table4", "Table4", infallible(experiments.Table4), experiments.RenderTable4)
	table5 = experiment("table5", "Table5", infallible(experiments.Table5), experiments.RenderTable5)
	table6 = experiment("table6", "Table6", func(r *round) ([]experiments.Table6Row, error) {
		rows, err := experiments.Table6(r.suite)
		r.t6 = rows
		return rows, err
	}, experiments.RenderTable6)
	table7 = experiment("table7", "Table7", onSuite(experiments.Table7), experiments.RenderTable7)
	table8 = experiment("table8", "Table8", func(r *round) ([]experiments.Table8Row, error) {
		rows, err := experiments.Table8(r.suite)
		r.t8 = rows
		return rows, err
	}, experiments.RenderTable8)
	table9 = experiment("table9", "Table9", onSuite(experiments.Table9), experiments.RenderTable9)

	ablationLayout      = experiment("ablation_layout", "AblationLayout", onSuite(experiments.AblationLayout), experiments.RenderAblationLayout)
	ablationAssoc       = experiment("ablation_assoc", "AblationAssoc", onSuite(experiments.AblationAssoc), experiments.RenderAblationAssoc)
	ablationMinProb     = experiment("ablation_minprob", "AblationMinProb", onSuite(experiments.AblationMinProb), experiments.RenderAblationMinProb)
	ablationReplacement = experiment("ablation_replacement", "AblationReplacement", onSuite(experiments.AblationReplacement), experiments.RenderAblationReplacement)
	ablationGlobalAlgo  = experiment("ablation_globalalgo", "AblationGlobalAlgo", onSuite(experiments.AblationGlobalAlgo), experiments.RenderAblationGlobalAlgo)

	extTiming = experiment("ext_timing", "ExtTiming", onSuite(experiments.ExtTiming), experiments.RenderExtTiming)
	extPaging = experiment("ext_paging", "ExtPaging", func(r *round) ([]experiments.PagingRow, error) {
		return experiments.ExtPaging(r.suite, experiments.ExtPagingConfig())
	}, func(rows []experiments.PagingRow) string {
		return experiments.RenderExtPaging(experiments.ExtPagingConfig(), rows)
	})
	extPrefetch  = experiment("ext_prefetch", "ExtPrefetch", onSuite(experiments.ExtPrefetch), experiments.RenderExtPrefetch)
	extHierarchy = experiment("ext_hierarchy", "ExtHierarchy", onSuite(experiments.ExtHierarchy), experiments.RenderExtHierarchy)
	// E5 builds and prepares its own fixed-seed programs, so the round
	// seed does not reach it, and from the second round on the sweep
	// engine's memo answers its simulations.
	extExtended = experiment("ext_extended", "ExtExtendedSuite", func(r *round) ([]experiments.ExtendedRow, error) {
		return experiments.ExtExtendedSuite(r.cfg.scale)
	}, experiments.RenderExtExtendedSuite)
)

// tableSections is `icexp -ablations -extensions`, in its order.
var tableSections = []section{
	table1, table2, table3, table4, table5, table6, table7, table8, table9,
	ablationLayout, ablationAssoc, ablationMinProb, ablationReplacement, ablationGlobalAlgo,
	extTiming, extPaging, extPrefetch, extHierarchy, extExtended,
}

// simulateSections are the sections that only simulate: no pipeline
// re-runs.
var simulateSections = []section{
	table1, table6, table7, table8, ablationAssoc, ablationReplacement,
	extTiming, extPaging, extPrefetch, extHierarchy,
}

// sectionNames lists every section any workload runs, in metric order.
var sectionNames = func() []string {
	var names []string
	for _, s := range tableSections {
		names = append(names, s.name)
	}
	return append(names, "lone_requests", "search_compare", "analyze_cache", "analyze_pages")
}()

// runSections runs each section as one item, checking its output
// against the golden file when the round has one.
func (r *round) runSections(secs []section) {
	for _, s := range secs {
		d := r.section(s.name, func() error {
			out, err := s.run(r)
			if err == nil && r.golden != nil {
				err = r.golden.match(out)
			}
			return err
		})
		r.items = append(r.items, d)
	}
}

// cellConfigs are the organisations of the Table 6 2KB cell and the
// two Table 8 cells that cache.Simulate re-checks for every program.
var cellConfigs = [3]cache.Config{
	design,
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true},
}

// checkCells re-simulates each program's Table 6 2KB cell and Table 8
// sector and partial-load cells with cache.Simulate, the oracle the
// sweep engine must match bit for bit.
func checkCells(r *round) {
	for i, p := range r.suite.Items {
		r.op(p.Name()+" Table 6/8 cells", programCells(r, i, p))
	}
}

func programCells(r *round, i int, p *experiments.Prepared) error {
	if i >= len(r.t6) || i >= len(r.t8) {
		return errors.New("Table 6 or 8 has no row for it")
	}
	got := [3]experiments.CacheResult{r.t6[i].Results[2048], r.t8[i].Sector, r.t8[i].Partial}
	for j, cfg := range cellConfigs {
		st, err := cache.Simulate(cfg, p.OptTrace)
		if err != nil {
			return err
		}
		if want := (experiments.CacheResult{Miss: st.MissRatio(), Traffic: st.TrafficRatio()}); got[j] != want {
			return fmt.Errorf("%s: table has %+v, cache.Simulate %+v", cfg, got[j], want)
		}
	}
	return nil
}

// loneConfigs are the simulate workload's single-organisation
// requests, one fresh engine each: a 16-way LRU cache the engine
// answers with a stack pass, banded across workers, and a
// direct-mapped and a FIFO cache it replays set-sharded, whenever two
// or more workers are free.
var loneConfigs = []cache.Config{
	{SizeBytes: 32 << 10, BlockBytes: 64, Assoc: 16},
	{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 1},
	{SizeBytes: 4 << 10, BlockBytes: 64, Assoc: 4, Replacement: cache.FIFO},
}

// loneRequest is one lone request and its answer.
type loneRequest struct {
	program string
	trace   *memtrace.Trace
	cfg     cache.Config
	got     cache.Stats
	err     error
}

func loneRequests(r *round) {
	r.section("lone_requests", func() error {
		for _, p := range r.suite.Items {
			for _, cfg := range loneConfigs {
				start := time.Now()
				st, err := call(r, "experiments.Engine.Simulate", p.Name(), func() (cache.Stats, error) {
					e := experiments.NewEngine()
					e.AttachObs(r.reg)
					return e.Simulate(cfg, p.OptTrace)
				})
				r.items = append(r.items, time.Since(start))
				r.lone = append(r.lone, loneRequest{p.Name(), p.OptTrace, cfg, st, err})
			}
		}
		return nil
	})
}

// checkLone re-simulates every lone request with cache.Simulate.
func checkLone(r *round) {
	for _, q := range r.lone {
		err := q.err
		if err == nil {
			var want cache.Stats
			want, err = cache.Simulate(q.cfg, q.trace)
			if err == nil && want != q.got {
				err = fmt.Errorf("engine %+v, cache.Simulate %+v", q.got, want)
			}
		}
		r.op(fmt.Sprintf("%s lone request %s", q.program, q.cfg), err)
	}
}

// searchGeom and searchPaging are the geometries `icexp -search`
// prices the layout search at: a 512B direct-mapped cache, where the
// greedy layout leaves the most conflicts, and 4KB pages in 8 frames.
var (
	searchGeom   = cache.Config{SizeBytes: 512, BlockBytes: 64, Assoc: 1}
	searchPaging = paging.Config{PageBytes: 4096, Frames: 8}
)

// searchBudget is a quarter of the search's default evaluation budget,
// so that a round takes about four seconds and a run holds five.
const searchBudget = search.DefaultBudget / 4

// searched is one program's search comparison.
type searched struct {
	p   *experiments.Prepared
	row experiments.SearchRow
	err error
}

// searchCompare runs the layout search on each program as its own
// request, as `impact search` does per benchmark.
func searchCompare(r *round) {
	r.section("search_compare", func() error {
		for _, p := range r.suite.Items {
			pcfg := searchPaging
			start := time.Now()
			rows, err := call(r, "experiments.SearchCompare", p.Name(), func() ([]experiments.SearchRow, error) {
				one := &experiments.Suite{Items: []*experiments.Prepared{p}}
				return experiments.SearchCompare(one, searchGeom, search.Config{
					Seed: 1, Budget: searchBudget, Paging: &pcfg, Obs: r.reg,
				})
			})
			r.items = append(r.items, time.Since(start))
			s := searched{p: p, err: err}
			if err == nil && len(rows) != 1 {
				s.err = fmt.Errorf("%d result rows for one program", len(rows))
			} else if err == nil {
				s.row = rows[0]
			}
			r.searched = append(r.searched, s)
		}
		return nil
	})
}

// checkSearch checks that no adopted layout misses more than the
// greedy one, and adds the scored rounds' totals. Faults are not
// checked: SearchCompare adopts cache-first, so a layout with fewer
// misses is kept even when it faults more (README.md has a seed where
// it does).
func checkSearch(r *round) {
	t := r.totals
	for _, s := range r.searched {
		err, row := s.err, s.row
		if err == nil && row.SearchMiss > row.GreedyMiss {
			err = fmt.Errorf("adopted layout misses more than greedy: %g > %g", row.SearchMiss, row.GreedyMiss)
		}
		if !r.op(s.p.Name()+" search", err) || !r.scored {
			continue
		}
		fetches := float64(s.p.OptTrace.Instrs)
		t.searchMisses += row.SearchMiss * fetches
		t.greedyMisses += row.GreedyMiss * fetches
		t.searchFaults += row.SearchFaults
		t.greedyFaults += row.GreedyFaults
	}
}

// analyzeGeoms are the analyze workload's cache geometries: the 16
// direct-mapped Table 1 geometries, then 2KB and 4KB caches with
// 64-byte blocks at 2 and 4 ways.
var analyzeGeoms = func() []cache.Config {
	var out []cache.Config
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			out = append(out, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1})
		}
	}
	for _, cs := range []int{2048, 4096} {
		for _, a := range []int{2, 4} {
			out = append(out, cache.Config{SizeBytes: cs, BlockBytes: 64, Assoc: a})
		}
	}
	return out
}()

// analyzePaging are its paging geometries, those of
// experiments.PageBoundCheck.
var analyzePaging = func() []paging.Config {
	var out []paging.Config
	for _, ps := range experiments.PageBoundSizes {
		for _, fr := range experiments.PageBoundFrames {
			out = append(out, paging.Config{PageBytes: ps, Frames: fr})
		}
	}
	return out
}()

// natural is a program's natural layout with the profile of its
// evaluation run.
type natural struct {
	lay *layout.Layout
	w   *profile.Weights
}

// prepareAnalyze profiles each program's evaluation run under both
// layouts: the analyzer's input, not its cost.
func prepareAnalyze(r *round) error {
	for _, p := range r.suite.Items {
		if _, err := p.EvalWeights(); err != nil {
			return err
		}
		b := p.Bench
		w, _, err := profile.Profile(b.Prog, profile.Config{Seeds: []uint64{b.EvalSeed}, Interp: b.EvalConfig()})
		if err != nil {
			return err
		}
		r.nat = append(r.nat, natural{layout.Natural(b.Prog), w})
	}
	return nil
}

// analyzed is the analyze workload's item: one program under one
// layout, with the profile and trace of the same evaluation run.
type analyzed struct {
	name string
	lay  *layout.Layout
	w    *profile.Weights
	tr   *memtrace.Trace
}

// analyzeAll analyses every item at every geometry, and checks that
// the simulators' counts of the same run fall within the bounds.
func analyzeAll(r *round) {
	var items []analyzed
	for i, p := range r.suite.Items {
		w, _ := p.EvalWeights() // computed during set-up
		items = append(items,
			analyzed{p.Name() + "/optimized", p.Opt.Layout, w, p.OptTrace},
			analyzed{p.Name() + "/natural", r.nat[i].lay, r.nat[i].w, p.NatTrace})
	}
	times := make([]time.Duration, len(items))
	r.section("analyze_cache", func() error {
		for i, it := range items {
			start := time.Now()
			for _, g := range analyzeGeoms {
				res, err := call(r, "analysis.Analyze", it.name, func() (*analysis.Result, error) {
					return analysis.Analyze(it.lay, it.w, analysis.Config{Cache: g})
				})
				var st cache.Stats
				if err == nil {
					st, err = call(r, "cache.Simulate", it.name, func() (cache.Stats, error) { return cache.Simulate(g, it.tr) })
				}
				if err == nil {
					err = bracket(res.Bounds, st.Misses)
				}
				if err != nil {
					err = fmt.Errorf("%s at %s: %w", it.name, g, err)
				}
				r.op("cache bounds", err)
			}
			times[i] += time.Since(start)
		}
		return nil
	})
	r.section("analyze_pages", func() error {
		for i, it := range items {
			start := time.Now()
			for _, g := range analyzePaging {
				res, err := call(r, "analysis.AnalyzePages", it.name, func() (*analysis.PageResult, error) {
					return analysis.AnalyzePages(it.lay, it.w, analysis.PageConfig{Paging: g})
				})
				var st paging.Stats
				if err == nil {
					st, err = call(r, "paging.Simulate", it.name, func() (paging.Stats, error) { return paging.Simulate(g, it.tr) })
				}
				if err == nil {
					err = bracket(res.Bounds, st.Faults)
				}
				if err == nil && res.Bounds.Exact && res.Report.ExecPages != st.PagesTouched {
					err = fmt.Errorf("%d executed pages statically, %d touched", res.Report.ExecPages, st.PagesTouched)
				}
				if err != nil {
					err = fmt.Errorf("%s at %s: %w", it.name, g, err)
				}
				r.op("page bounds", err)
			}
			times[i] += time.Since(start)
		}
		return nil
	})
	r.items = append(r.items, times...)
}
