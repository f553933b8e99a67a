// Package search improves a composed layout by conflict-driven local
// search over the global function order.
//
// The pipeline's greedy passes (trace placement, DFS global order,
// cold splitting) each optimise one locality dimension in isolation;
// none of them sees the cache geometry. Search closes that loop: it
// perturbs the function order, prices every candidate with the static
// analyzer's miss upper bound (internal/analysis), and keeps the moves
// that tighten it. Candidates are scored with analysis.Incremental, so
// a single-function move costs a fraction of a full analysis, and
// moves are seeded from the analyzer's own conflict report — the
// ranked set-pressure pairs name exactly the functions whose lines
// contend, and pulling a pair together in the order is the classic
// "closest is best" conflict resolution.
//
// The search is a hill climb with random restarts driven by a
// deterministic RNG (internal/xrand): same inputs, same seed, same
// layout, on every machine. Periodic ground-truth checkpoints hand the
// incumbent layout to a caller-supplied simulator callback so long
// searches can confirm the static objective tracks measured misses.
//
// Restarts run as a portfolio: every climb is an independent function
// of (input, seed, climb index) — it starts from the input order (the
// k-th climb kicked by the k-th seeded RNG stream), carries a fixed
// evaluation allowance, and never reads another climb's state. That
// makes the climbs embarrassingly parallel: each worker of the pool
// (internal/pool) owns an analysis.Incremental engine — the input
// engine or a clone — and runs climbs round-robin, and the final
// reduction — best lexicographic objective, ties to the lowest climb
// index — picks the same winner regardless of scheduling. Workers only
// changes wall-clock time, never the result.
package search

import (
	"fmt"
	"sort"
	"sync"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/core/funclayout"
	"impact/internal/core/globallayout"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/obs"
	"impact/internal/paging"
	"impact/internal/pool"
	"impact/internal/profile"
	"impact/internal/xrand"
)

// Defaults for Config's zero values.
const (
	DefaultBudget          = 192
	DefaultRestarts        = 2
	DefaultCheckpointEvery = 8
	// maxSeedPairs bounds how deep into the conflict-pair ranking the
	// move generator reaches; pairs below this rank carry little weight.
	maxSeedPairs = 8
)

// Config parameterises one search run.
type Config struct {
	// Cache is the geometry the objective is priced against.
	Cache cache.Config
	// Paging, when non-nil, adds a page-fault term to the objective:
	// candidates are additionally priced with the static page-fault
	// upper bound (analysis.PageEngine) under this geometry, ranked
	// lexicographically *after* the cache miss upper bound — the
	// search trades page faults only among candidates equal on cache
	// misses, so enabling it can never regress the cache objective.
	// It also enables the page-refinement phase that runs once after
	// the climbs on half of Budget (see Result.PageRefined): the refiner
	// walks from the winning order — and, with that half split, from
	// the input order too — accepting moves that pack the executed
	// footprint into fewer pages while keeping the static cache-miss
	// upper bound within the refinement cap (refineSlack above the
	// worse of the input and winning bounds).
	Paging *paging.Config
	// Seed drives the deterministic RNG; distinct seeds explore
	// distinct move sequences.
	Seed uint64
	// Budget caps candidate evaluations (incremental re-analyses)
	// across all climbs. Zero means DefaultBudget.
	Budget int
	// Restarts is the number of random restarts after the first
	// climb; the budget is split evenly across climbs, and a budget
	// smaller than the climb count cuts the restarts to fit it. Zero
	// means DefaultRestarts; negative means none.
	Restarts int
	// Workers bounds the portfolio workers racing the climbs. Zero
	// means GOMAXPROCS (which the commands' -workers flag sets). The
	// worker count is always capped at the climb count, and the result
	// is identical for every value.
	Workers int
	// CheckpointEvery invokes Checkpoint after every n-th accepted
	// improvement. Zero means DefaultCheckpointEvery; negative
	// disables checkpoints.
	CheckpointEvery int
	// Checkpoint, when non-nil, receives the incumbent layout at
	// checkpoints and returns its ground-truth miss count (callers
	// typically run cache.Simulate over the evaluation trace). A nil
	// callback disables checkpoints. Calls are serialized under a
	// mutex, but with several workers their arrival order depends on
	// scheduling; the recorded Result.Checkpoints are always in
	// deterministic climb order.
	Checkpoint func(*layout.Layout) (uint64, error)
	// Obs receives spans and counters; nil disables instrumentation.
	Obs *obs.Registry
	// Lane attributes spans to a tracer lane.
	Lane obs.Lane
}

// Input is the pipeline state the search permutes: the per-function
// block orders stay fixed, only the global function order moves, so
// every candidate preserves the funclayout invariants (and, with
// SplitCold, the effective/non-executed packing) by construction.
type Input struct {
	Prog      *ir.Program
	Weights   *profile.Weights
	Orders    []funclayout.Order
	Global    globallayout.Order
	SplitCold bool
}

// Checkpoint is one ground-truth measurement taken mid-search.
type Checkpoint struct {
	// Eval is the candidate count when the checkpoint was taken.
	Eval int
	// Upper is the incumbent's static miss upper bound.
	Upper uint64
	// Misses is the measured miss count from Config.Checkpoint.
	Misses uint64
}

// Result is the outcome of a search.
type Result struct {
	// Order is the best function order found (the input order when
	// nothing improved).
	Order globallayout.Order
	// Layout is the composition of Order (the input layout when
	// nothing improved).
	Layout *layout.Layout
	// Analysis is the static analysis of Layout.
	Analysis *analysis.Result
	// Initial is the static analysis of the input order's layout.
	Initial *analysis.Result
	// Improved reports whether Order beats the input order on the
	// lexicographic objective (Upper, then the page-fault upper bound
	// when Config.Paging is set, then TotalExcess, -ExtTSP).
	Improved bool
	// Pages / InitialPages hold the static page-fault bounds of the
	// final and the input layout (nil unless Config.Paging was set).
	Pages, InitialPages *analysis.Bounds
	// Evals counts candidate evaluations, Accepted the improving
	// moves kept, Restarts the random restarts taken. Evals includes
	// the page-refinement phase's evaluations.
	Evals, Accepted, Restarts int
	// Checkpoints holds the ground-truth measurements, in eval order.
	Checkpoints []Checkpoint
	// PageRefined holds the page-refinement phase's outcome when it
	// packed the executed footprint into strictly fewer pages than
	// Layout: an alternative layout whose static page-fault upper
	// bound is below Pages.Upper while its cache-miss upper bound
	// stays within the refinement cap (refineSlack above the worse of
	// the input and winning bounds). The trade is static; callers
	// adopting the variant should confirm with the simulator that
	// measured misses do not regress (experiments.SearchCompare gates
	// adoption on exactly that). Nil when Paging is off, refinement is
	// disabled, or nothing improved.
	PageRefined *Refined
}

// Refined is the page-refinement phase's alternative result: the same
// program under an order that trades a bounded amount of static
// cache-miss upper bound for a strictly smaller page-fault upper bound.
type Refined struct {
	// Order and Layout are the refined function order and placement.
	Order  globallayout.Order
	Layout *layout.Layout
	// Analysis is the static cache analysis of Layout.
	Analysis *analysis.Result
	// Pages is the static page-fault bounds of Layout.
	Pages analysis.Bounds
	// Evals counts the refinement phase's candidate evaluations.
	Evals int
}

// Compose builds the layout for a function order: every function's
// blocks in its Order, functions in global order, and with splitCold
// the effective regions of all functions packed before every
// non-executed region. core.Place composes its final placement with
// it, so a searched order is laid out exactly as the greedy one.
func Compose(prog *ir.Program, orders []funclayout.Order, global globallayout.Order, splitCold bool) (*layout.Layout, error) {
	var pl layout.Placement
	if splitCold {
		for _, f := range global.Funcs {
			o := &orders[f]
			for _, b := range o.Blocks[:o.EffectiveBlocks] {
				pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
			}
		}
		for _, f := range global.Funcs {
			o := &orders[f]
			for _, b := range o.Blocks[o.EffectiveBlocks:] {
				pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
			}
		}
	} else {
		for _, f := range global.Funcs {
			for _, b := range orders[f].Blocks {
				pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b})
			}
		}
	}
	return layout.FromPlacement(prog, pl)
}

// objective is the lexicographic score of a candidate: first the
// static miss upper bound, then (with Config.Paging) the static
// page-fault upper bound, then the conflict report's total excess
// weight, then (descending) the ext-TSP locality score. The page term
// sits strictly below the miss bound so a paging-aware search can
// never trade cache misses for page faults; the remaining keys break
// ties the coarse bounds cannot see, keeping the walk moving across
// plateaus. Without Config.Paging, pageUpper is 0 everywhere and the
// objective reduces to the cache-only form.
type objective struct {
	upper     uint64
	pageUpper uint64
	excess    uint64
	extTSP    float64
}

func objectiveOf(res *analysis.Result) objective {
	return objective{
		upper:  res.Bounds.Upper,
		excess: res.Conflicts.TotalExcess,
		extTSP: res.Score.ExtTSP,
	}
}

// better reports whether o strictly improves on p.
func (o objective) better(p objective) bool {
	if o.upper != p.upper {
		return o.upper < p.upper
	}
	if o.pageUpper != p.pageUpper {
		return o.pageUpper < p.pageUpper
	}
	if o.excess != p.excess {
		return o.excess < p.excess
	}
	return o.extTSP > p.extTSP+1e-12
}

// Optimize searches for a function order whose layout tightens the
// static miss upper bound over the input order. The result is
// deterministic in (in, cfg).
func Optimize(in Input, cfg Config) (*Result, error) {
	if in.Prog == nil || in.Weights == nil {
		return nil, fmt.Errorf("search: nil program or weights")
	}
	if len(in.Orders) != len(in.Prog.Funcs) {
		return nil, fmt.Errorf("search: %d block orders for %d functions", len(in.Orders), len(in.Prog.Funcs))
	}
	for _, at := range in.Global.Positions(len(in.Prog.Funcs)) {
		if at < 0 {
			return nil, fmt.Errorf("search: global order is not a permutation of the program's functions")
		}
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = DefaultRestarts
	}
	if cfg.Restarts < 0 {
		cfg.Restarts = 0
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}

	reg := cfg.Obs
	root := reg.SpanOn(cfg.Lane, "search")
	defer root.End()
	reg.Counter("search.runs").Inc()

	baseLay, err := Compose(in.Prog, in.Orders, in.Global, in.SplitCold)
	if err != nil {
		return nil, fmt.Errorf("search: composing input order: %w", err)
	}
	inc, err := analysis.NewIncremental(baseLay, in.Weights, analysis.Config{Cache: cfg.Cache, Obs: cfg.Obs, Lane: cfg.Lane})
	if err != nil {
		return nil, fmt.Errorf("search: analysing input order: %w", err)
	}
	var pages *analysis.PageEngine
	initObj := objectiveOf(inc.Result())
	var initPB analysis.Bounds
	if cfg.Paging != nil {
		pages, err = analysis.NewPageEngine(baseLay, in.Weights, *cfg.Paging)
		if err != nil {
			return nil, fmt.Errorf("search: page-analysing input order: %w", err)
		}
		if initPB, err = pages.Bounds(baseLay); err != nil {
			return nil, fmt.Errorf("search: page-analysing input order: %w", err)
		}
		initObj.pageUpper = initPB.Upper
	}

	res := &Result{
		Order:    globallayout.Order{Funcs: append([]ir.FuncID(nil), in.Global.Funcs...)},
		Layout:   baseLay,
		Analysis: inc.Result(),
		Initial:  inc.Result(),
	}
	if cfg.Paging != nil {
		res.Pages, res.InitialPages = &initPB, &initPB
	}
	n := len(in.Global.Funcs)
	if n < 2 || cfg.Budget <= 0 {
		return res, nil
	}

	// Split the budget into fixed per-climb allowances. The split is a
	// pure function of the config — never of scheduling — so every
	// climb's trajectory is reproducible in isolation. Every climb gets
	// at least one evaluation, so there are never more climbs than the
	// budget, and the last climb absorbs the rounding remainder.
	climbs := min(cfg.Restarts+1, cfg.Budget)
	base := cfg.Budget / climbs
	p := &portfolio{in: in, cfg: cfg, n: n, baseLay: baseLay, initObj: initObj,
		alloc:  make([]int, climbs),
		offset: make([]int, climbs),
	}
	for k := range p.alloc {
		p.alloc[k] = base
		p.offset[k] = k * base
	}
	p.alloc[climbs-1] = cfg.Budget - (climbs-1)*base

	workers := pool.Workers(cfg.Workers, climbs)
	reg.Gauge("search.parallel_workers").Set(float64(workers))
	if cfg.Checkpoint != nil {
		var mu sync.Mutex
		p.ckpt = func(lay *layout.Layout) (uint64, error) {
			mu.Lock()
			defer mu.Unlock()
			return cfg.Checkpoint(lay)
		}
	}
	// Worker 0 climbs on the input engine; every other worker gets a
	// clone taken before any climb starts moving it. Worker w then runs
	// climbs w, w+W, w+2W, ... — a static assignment, so which worker
	// ran a climb can never change what the climb computes.
	engines := make([]*analysis.Incremental, workers)
	pageEngines := make([]*analysis.PageEngine, workers)
	for w := range engines {
		engines[w], pageEngines[w] = inc, pages
		if w > 0 {
			engines[w] = inc.Clone()
			if pages != nil {
				pageEngines[w] = pages.Clone()
			}
		}
	}
	results := make([]*climbResult, climbs)
	errs := make([]error, climbs)
	pool.Run(workers, workers, func(w, _ int) {
		lane := reg.NewLane(fmt.Sprintf("search-worker-%d", w))
		engines[w].SetLane(lane)
		span := reg.SpanOn(lane, "search/worker")
		defer span.End()
		for k := w; k < climbs; k += workers {
			if results[k], errs[k] = p.climb(k, engines[w], pageEngines[w]); errs[k] != nil {
				return
			}
		}
	})
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("search: climb %d: %w", k, err)
		}
	}

	// Deterministic reduction: walk the climbs in index order, keep the
	// strictly best objective. Strict comparison breaks ties toward the
	// lowest climb index, so the winner is scheduling-independent.
	best := initObj
	res.Restarts = climbs - 1
	for _, cr := range results {
		res.Evals += cr.evals
		res.Accepted += cr.accepted
		res.Checkpoints = append(res.Checkpoints, cr.checkpoints...)
		if cr.order != nil && cr.obj.better(best) {
			best = cr.obj
			res.Order = globallayout.Order{Funcs: cr.order}
			res.Layout = cr.lay
			res.Analysis = cr.res
			if cfg.Paging != nil {
				pb := cr.pb
				res.Pages = &pb
			}
		}
	}
	res.Improved = best.better(initObj)
	if res.Improved {
		reg.Counter("search.improved").Inc()
	}
	if cfg.Paging != nil {
		if pageBudget := cfg.Budget / 2; pageBudget > 0 && res.Pages != nil && res.Pages.Upper > 1 {
			// Refine from the winner and, when it differs, from the
			// input (greedy) order too: the winner has the best static
			// cache bound, but the greedy order is the basin the
			// caller's measured-miss gate compares against — a
			// page-freeing walk started there often measures better.
			froms := []*Result{res}
			budgets := []int{pageBudget}
			if !sameOrder(res.Order.Funcs, in.Global.Funcs) {
				froms = append(froms, &Result{
					Order:    globallayout.Order{Funcs: append([]ir.FuncID(nil), in.Global.Funcs...)},
					Layout:   baseLay,
					Analysis: res.Initial,
					Initial:  res.Initial,
				})
				budgets = []int{pageBudget - pageBudget/2, pageBudget / 2}
			}
			var ref *Refined
			refMisses := ^uint64(0)
			for i, from := range froms {
				r, m, evals, err := pageRefine(in, cfg, inc, pages, from, budgets[i])
				if err != nil {
					return nil, fmt.Errorf("search: page refinement: %w", err)
				}
				res.Evals += evals
				// A greedy-start refinement beats the greedy page bound
				// by construction, but the contract is strictly fewer
				// pages than the emitted Layout — drop variants the
				// winner already matches.
				if r == nil || r.Pages.Upper >= res.Pages.Upper {
					continue
				}
				if ref == nil || r.Pages.Upper < ref.Pages.Upper ||
					(r.Pages.Upper == ref.Pages.Upper && m < refMisses) {
					ref, refMisses = r, m
				}
			}
			res.PageRefined = ref
			if ref != nil {
				reg.Counter("search.page_improved").Inc()
			}
		}
	}
	return res, nil
}

// refineSlack is the fractional static cache-upper headroom the
// page-refinement phase may spend over max(input order, winner): the
// relocations that free pages shift every hot address, and the loose
// static bound can move several percent on layouts whose measured
// misses are unchanged. The cap is only a coarse guard against
// wandering into clearly worse-cache territory — the emitted variant
// is separately gated on measured misses by the caller, which is
// where the no-regression guarantee actually lives.
const refineSlack = 0.05

// pageRefine hill-climbs the page packing of the winning order: moves
// are accepted when they strictly reduce the static page-fault upper
// bound, or tighten the executed-byte packing (PageEngine.Pack) at an
// equal bound, while the static cache-miss upper bound stays within
// the refinement cap (see refineSlack). Proposals are biased toward the
// mechanism that actually frees pages — relocating functions whose
// effective (training-hot) region is never executed under the search
// weights, so their hole bytes stop pinning otherwise-cold pages. The
// walk is a pure function of (in, cfg, from); it returns nil when no
// candidate beat the winner's page bound.
func pageRefine(in Input, cfg Config, eng *analysis.Incremental, pe *analysis.PageEngine, from *Result, budget int) (*Refined, uint64, int, error) {
	reg := cfg.Obs
	rng := xrand.New(xrand.Seed(cfg.Seed, 0x9a6e5, 0))

	cur := append([]ir.FuncID(nil), from.Order.Funcs...)
	curRes, err := eng.Update(from.Layout)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("repositioning at winner: %w", err)
	}
	base := from.Initial.Bounds.Upper
	if from.Analysis.Bounds.Upper > base {
		base = from.Analysis.Bounds.Upper
	}
	slackCap := base + uint64(float64(base)*refineSlack)
	curPB, err := pe.Bounds(from.Layout)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("page-analysing winner: %w", err)
	}
	curPack := pe.Pack(from.Layout)
	curLay := from.Layout
	startUpper := curPB.Upper

	holes := holeFuncs(in)
	// Deterministic macro-seeds before the stochastic walk: freeing a
	// page usually needs every fully-cold function out of the way at
	// once — a plateau no single-function move can cross — so the first
	// candidates sink them all to the back in one step, optionally with
	// the largest cold-tail function placed last among the executed
	// ones (its trailing holes then merge into the sunk block), and
	// optionally with the functions whose cold-section blocks are
	// executed pulled to the front (their cold regions then pack at the
	// cold section's head instead of pinning deep cold pages).
	seeds := [][]ir.FuncID{coldSink(cur, holes, -1, nil)}
	bestTail := ir.FuncID(-1)
	tail := 0
	for _, h := range holes {
		if !h.full && h.tail > tail {
			bestTail, tail = h.f, h.tail
		}
	}
	if bestTail >= 0 {
		seeds = append(seeds, coldSink(cur, holes, bestTail, nil))
	}
	if front := coldExecFront(in); len(front) > 0 {
		ft := bestTail
		for _, f := range front {
			if f == ft {
				ft = -1
			}
		}
		seeds = append(seeds, coldSink(cur, holes, ft, front))
	}
	// With a Checkpoint the phase emits the measured-best accepted
	// state rather than the endpoint: the static cache bound is loose,
	// and the caller adopts on measured misses — an intermediate state
	// of the repair walk is often the one that clears that gate.
	// Accepts are rare, so pricing each with the simulator is cheap.
	type refState struct {
		order  []ir.FuncID
		misses uint64
		pages  uint64
	}
	var best *refState
	note := func(order []ir.FuncID, lay *layout.Layout, pages uint64) error {
		if cfg.Checkpoint == nil || pages >= startUpper {
			return nil
		}
		m, err := cfg.Checkpoint(lay)
		if err != nil {
			return err
		}
		if best == nil || pages < best.pages || (pages == best.pages && m < best.misses) {
			best = &refState{order: order, misses: m, pages: pages}
		}
		return nil
	}
	evals := 0
	for evals < budget {
		var cand []ir.FuncID
		switch {
		case len(seeds) > 0:
			cand, seeds = seeds[0], seeds[1:]
		case curPB.Upper < startUpper:
			// A page is already freed: spend the rest of the budget on
			// conflict-biased cache repair (the acceptance rule keeps
			// the page win; a repair move that frees another page is
			// still taken).
			cand = propose(cur, curRes.Conflicts.Pairs, rng)
		default:
			cand = proposePack(cur, holes, rng)
		}
		lay, err := Compose(in.Prog, in.Orders, globallayout.Order{Funcs: cand}, in.SplitCold)
		if err != nil {
			return nil, 0, evals, fmt.Errorf("composing candidate: %w", err)
		}
		cres, err := eng.Update(lay)
		if err != nil {
			return nil, 0, evals, fmt.Errorf("analysing candidate: %w", err)
		}
		evals++
		reg.Counter("search.page_evals").Inc()
		pb, err := pe.Bounds(lay)
		if err != nil {
			return nil, 0, evals, fmt.Errorf("page-analysing candidate: %w", err)
		}
		pack := pe.Pack(lay)
		// Lexicographic within the phase: fewer static page faults
		// first; at an equal bound, a lower static cache upper (the
		// macro-seeds spend cache headroom freeing pages — the rest of
		// the budget wins it back, which is what lets the caller's
		// measured-miss gate adopt the variant); at equal cache, a
		// tighter packing, the gradient toward the next whole-page drop.
		better := pb.Upper < curPB.Upper ||
			(pb.Upper == curPB.Upper &&
				(cres.Bounds.Upper < curRes.Bounds.Upper ||
					(cres.Bounds.Upper <= curRes.Bounds.Upper && pack > curPack)))
		ok := cres.Bounds.Upper <= slackCap && better
		if !ok {
			if cres.Bounds.Upper > slackCap {
				reg.Counter("search.page_reject_cache").Inc()
			} else {
				reg.Counter("search.page_reject_pack").Inc()
			}
			if err := eng.Revert(); err != nil {
				return nil, 0, evals, fmt.Errorf("reverting rejected candidate: %w", err)
			}
			continue
		}
		cur = cand
		curLay, curRes, curPB, curPack = lay, cres, pb, pack
		reg.Counter("search.page_accepted").Inc()
		if err := note(cand, lay, pb.Upper); err != nil {
			return nil, 0, evals, fmt.Errorf("checkpointing accepted candidate: %w", err)
		}
	}
	if best != nil && !sameOrder(best.order, cur) {
		lay, err := Compose(in.Prog, in.Orders, globallayout.Order{Funcs: best.order}, in.SplitCold)
		if err != nil {
			return nil, 0, evals, fmt.Errorf("recomposing best state: %w", err)
		}
		cres, err := eng.Update(lay)
		if err != nil {
			return nil, 0, evals, fmt.Errorf("re-analysing best state: %w", err)
		}
		pb, err := pe.Bounds(lay)
		if err != nil {
			return nil, 0, evals, fmt.Errorf("page-analysing best state: %w", err)
		}
		cur, curLay, curRes, curPB = best.order, lay, cres, pb
	}
	if curPB.Upper >= startUpper {
		return nil, 0, evals, nil
	}
	misses := ^uint64(0)
	if best != nil && sameOrder(best.order, cur) {
		misses = best.misses
	}
	return &Refined{
		Order:    globallayout.Order{Funcs: cur},
		Layout:   curLay,
		Analysis: curRes,
		Pages:    curPB,
		Evals:    evals,
	}, misses, evals, nil
}

// sameOrder reports whether two function orders are identical.
func sameOrder(a, b []ir.FuncID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// holeFunc ranks one function for the page-refinement proposals.
type holeFunc struct {
	f ir.FuncID
	// bytes counts the function's hole bytes: effective-region bytes
	// whose blocks have zero weight under the search weights (placed
	// hot by the training profile, never executed here).
	bytes int
	// full marks functions whose entire effective region is holes —
	// relocating them moves pure dead weight, the cheapest page to free.
	full bool
	// tail counts the hole bytes in the function's trailing run of
	// zero-weight effective blocks: placing the function last among the
	// executed ones merges that tail into the trailing cold region.
	tail int
}

// maxHoleFuncs bounds the proposal pool; functions below this rank
// carry too few hole bytes to free a page.
const maxHoleFuncs = 24

// holeFuncs returns the functions with any hole bytes, fully-cold
// functions first, then by hole bytes descending.
func holeFuncs(in Input) []holeFunc {
	var hs []holeFunc
	for fi := range in.Prog.Funcs {
		f := ir.FuncID(fi)
		o := &in.Orders[f]
		var hole, eff, tail int
		for _, b := range o.Blocks[:o.EffectiveBlocks] {
			n := in.Prog.Funcs[f].Blocks[b].Bytes()
			eff += n
			if in.Weights.BlockWeight(f, b) == 0 {
				hole += n
				tail += n
			} else {
				tail = 0
			}
		}
		if hole > 0 {
			hs = append(hs, holeFunc{f: f, bytes: hole, full: hole == eff, tail: tail})
		}
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].full != hs[j].full {
			return hs[i].full
		}
		if hs[i].bytes != hs[j].bytes {
			return hs[i].bytes > hs[j].bytes
		}
		return hs[i].f < hs[j].f
	})
	if len(hs) > maxHoleFuncs {
		hs = hs[:maxHoleFuncs]
	}
	return hs
}

// coldSink returns cur with every fully-cold hole function moved to
// the back of the order in one step, preserving relative order. When
// tail is a valid function it is additionally placed last among the
// remaining (executed) functions, so its trailing cold blocks merge
// into the sunk region; the front functions, when given, are pulled
// to the very front in the given order. Freeing a whole page
// typically needs all the dead weight out of the way at once;
// single-function moves cannot cross that plateau within the
// refinement budget.
func coldSink(cur []ir.FuncID, holes []holeFunc, tail ir.FuncID, front []ir.FuncID) []ir.FuncID {
	sink := make(map[ir.FuncID]bool, len(holes))
	for _, h := range holes {
		if h.full {
			sink[h.f] = true
		}
	}
	lead := make(map[ir.FuncID]bool, len(front))
	for _, f := range front {
		lead[f] = true
	}
	cand := make([]ir.FuncID, 0, len(cur))
	cand = append(cand, front...)
	var sunk []ir.FuncID
	tailSeen := false
	for _, f := range cur {
		switch {
		case lead[f]:
		case sink[f]:
			sunk = append(sunk, f)
		case f == tail:
			tailSeen = true
		default:
			cand = append(cand, f)
		}
	}
	if tailSeen {
		cand = append(cand, tail)
	}
	return append(cand, sunk...)
}

// coldExecFront returns the functions with executed (nonzero-weight)
// blocks in their cold region — training-cold code this run does
// reach. With SplitCold composition the cold section follows the
// global order, so placing these functions first packs their cold
// regions at the cold section's head; the function with the most
// unexecuted cold bytes after its last executed one goes last in the
// group, keeping the executed cold span as short as possible.
func coldExecFront(in Input) []ir.FuncID {
	type cf struct {
		f    ir.FuncID
		save int // cold bytes after the last executed cold byte
	}
	var cs []cf
	for fi := range in.Prog.Funcs {
		f := ir.FuncID(fi)
		o := &in.Orders[f]
		bytes, lastExec := 0, -1
		for _, b := range o.Blocks[o.EffectiveBlocks:] {
			bytes += in.Prog.Funcs[f].Blocks[b].Bytes()
			if in.Weights.BlockWeight(f, b) != 0 {
				lastExec = bytes
			}
		}
		if lastExec >= 0 {
			cs = append(cs, cf{f: f, save: bytes - lastExec})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].save != cs[j].save {
			return cs[i].save < cs[j].save
		}
		return cs[i].f < cs[j].f
	})
	fs := make([]ir.FuncID, len(cs))
	for i, c := range cs {
		fs[i] = c.f
	}
	return fs
}

// proposePack returns a refinement candidate. With hole functions
// available, two thirds of the moves target them — sending one to the
// back of the order (its holes merge with the trailing non-executed
// region, pulling the last executed byte forward) or pulling two
// together (their holes coalesce toward a whole untouched page) — and
// the rest are propose's unbiased moves to keep the walk ergodic.
func proposePack(cur []ir.FuncID, holes []holeFunc, rng *xrand.RNG) []ir.FuncID {
	if len(holes) > 0 {
		switch rng.Intn(3) {
		case 0:
			h := holes[rng.Intn(len(holes))]
			cand := make([]ir.FuncID, 0, len(cur))
			for _, f := range cur {
				if f != h.f {
					cand = append(cand, f)
				}
			}
			return append(cand, h.f)
		case 1:
			if len(holes) >= 2 {
				i := rng.Intn(len(holes))
				j := rng.Intn(len(holes) - 1)
				if j >= i {
					j++
				}
				cand := append([]ir.FuncID(nil), cur...)
				moveAfter(cand, holes[i].f, holes[j].f)
				return cand
			}
		}
	}
	return propose(cur, nil, rng)
}

// portfolio is the read-only state every climb shares.
type portfolio struct {
	in      Input
	cfg     Config
	n       int
	baseLay *layout.Layout
	initObj objective
	alloc   []int // per-climb evaluation allowance
	offset  []int // global eval count before each climb, for Checkpoint.Eval
	ckpt    func(*layout.Layout) (uint64, error)
}

// climbResult is one climb's contribution to the reduction. order is
// nil when the climb never beat the input order; pb is the best
// candidate's page-fault bounds (zero unless Config.Paging is set).
type climbResult struct {
	evals, accepted int
	obj             objective
	order           []ir.FuncID
	lay             *layout.Layout
	res             *analysis.Result
	pb              analysis.Bounds
	checkpoints     []Checkpoint
}

// climb runs climb k to its allowance on eng. The trajectory is a pure
// function of (portfolio, k): the RNG stream is derived from the seed
// and the climb index, and the walk starts from the input order (climb
// 0 for free — eng must already sit at the input layout, which holds
// for the base engine and every fresh clone — and later climbs via a
// two-swap kick that costs one eval and repositions a reused engine).
func (p *portfolio) climb(k int, eng *analysis.Incremental, pe *analysis.PageEngine) (*climbResult, error) {
	reg := p.cfg.Obs
	rng := xrand.New(xrand.Seed(p.cfg.Seed, 0x5ea6c4, uint64(k)))
	cr := &climbResult{obj: p.initObj}
	cur := append([]ir.FuncID(nil), p.in.Global.Funcs...)
	curObj := p.initObj
	// price scores a candidate layout: the incremental cache objective
	// plus, when the paging term is on, the page-fault upper bound
	// from the page engine. The page engine follows whichever layout
	// it is handed — no revert needed.
	price := func(cres *analysis.Result, lay *layout.Layout) (objective, analysis.Bounds, error) {
		obj := objectiveOf(cres)
		var pb analysis.Bounds
		if pe != nil {
			var err error
			if pb, err = pe.Bounds(lay); err != nil {
				return obj, pb, fmt.Errorf("page-analysing candidate: %w", err)
			}
			obj.pageUpper = pb.Upper
		}
		return obj, pb, nil
	}
	if k > 0 {
		reg.Counter("search.restarts").Inc()
		for s := 0; s < 2; s++ {
			i, j := rng.Intn(p.n), rng.Intn(p.n)
			cur[i], cur[j] = cur[j], cur[i]
		}
		lay, err := Compose(p.in.Prog, p.in.Orders, globallayout.Order{Funcs: cur}, p.in.SplitCold)
		if err != nil {
			return nil, fmt.Errorf("composing restart order: %w", err)
		}
		kicked, err := eng.Update(lay)
		if err != nil {
			return nil, fmt.Errorf("analysing restart order: %w", err)
		}
		cr.evals++
		if curObj, _, err = price(kicked, lay); err != nil {
			return nil, err
		}
	}
	for cr.evals < p.alloc[k] {
		cand := propose(cur, eng.Result().Conflicts.Pairs, rng)
		lay, err := Compose(p.in.Prog, p.in.Orders, globallayout.Order{Funcs: cand}, p.in.SplitCold)
		if err != nil {
			return nil, fmt.Errorf("composing candidate: %w", err)
		}
		cres, err := eng.Update(lay)
		if err != nil {
			return nil, fmt.Errorf("analysing candidate: %w", err)
		}
		cr.evals++
		reg.Counter("search.evals").Inc()
		obj, pb, err := price(cres, lay)
		if err != nil {
			return nil, err
		}
		if !obj.better(curObj) {
			if err := eng.Revert(); err != nil {
				return nil, fmt.Errorf("reverting rejected candidate: %w", err)
			}
			continue
		}
		cur, curObj = cand, obj
		cr.accepted++
		reg.Counter("search.accepted").Inc()
		if obj.better(cr.obj) {
			cr.obj = obj
			cr.order = append([]ir.FuncID(nil), cand...)
			cr.lay = lay
			cr.res = cres
			cr.pb = pb
		}
		if p.ckpt != nil && p.cfg.CheckpointEvery > 0 && cr.accepted%p.cfg.CheckpointEvery == 0 {
			incumbent := cr.lay
			if incumbent == nil {
				incumbent = p.baseLay
			}
			misses, err := p.ckpt(incumbent)
			if err != nil {
				return nil, fmt.Errorf("ground-truth checkpoint: %w", err)
			}
			cr.checkpoints = append(cr.checkpoints, Checkpoint{
				Eval: p.offset[k] + cr.evals, Upper: cr.obj.upper, Misses: misses,
			})
			reg.Counter("search.checkpoints").Inc()
		}
	}
	return cr, nil
}

// propose returns a mutated copy of cur. Half the moves (when the
// conflict report offers pairs) pull a contending function pair
// together — B moves to just after A or just before it — and the rest
// are unbiased swaps and single-function relocations that keep the
// walk ergodic.
func propose(cur []ir.FuncID, pairs []analysis.FuncPair, rng *xrand.RNG) []ir.FuncID {
	cand := append([]ir.FuncID(nil), cur...)
	n := len(cand)
	if len(pairs) > 0 && rng.Intn(2) == 0 {
		top := len(pairs)
		if top > maxSeedPairs {
			top = maxSeedPairs
		}
		pair := pairs[rng.Intn(top)]
		a, b := pair.A, pair.B
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		moveAfter(cand, a, b)
		return cand
	}
	if rng.Intn(2) == 0 {
		i, j := rng.Intn(n), rng.Intn(n)
		cand[i], cand[j] = cand[j], cand[i]
		return cand
	}
	from, to := rng.Intn(n), rng.Intn(n)
	f := cand[from]
	cand = append(cand[:from], cand[from+1:]...)
	cand = append(cand, 0)
	copy(cand[to+1:], cand[to:])
	cand[to] = f
	return cand
}

// moveAfter moves function b to the slot directly after function a,
// in place.
func moveAfter(order []ir.FuncID, a, b ir.FuncID) {
	ai, bi := -1, -1
	for i, f := range order {
		switch f {
		case a:
			ai = i
		case b:
			bi = i
		}
	}
	if ai < 0 || bi < 0 || a == b {
		return
	}
	if bi > ai {
		copy(order[ai+2:bi+1], order[ai+1:bi])
		order[ai+1] = b
	} else {
		copy(order[bi:ai-1+1], order[bi+1:ai+1])
		order[ai] = b
	}
}
