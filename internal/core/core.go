// Package core orchestrates the IMPACT-I instruction placement
// pipeline — the paper's primary contribution (section 3):
//
//	Step 1  Execution profiling        (internal/profile)
//	Step 2  Function inline expansion  (internal/core/inline)
//	Step 3  Trace selection            (internal/core/traceselect)
//	Step 4  Function layout            (internal/core/funclayout)
//	Step 5  Global layout              (internal/core/globallayout)
//
// Optimize runs the steps and produces the transformed program, its
// profile, and a memory layout in which sequential and
// spatial localities are maximised and cache mapping conflicts
// minimised. Each step can be disabled independently (Strategy) for
// the ablation experiments. Optimize is Profile (steps 1-2, the only
// steps that interpret the program) followed by Place (steps 3-5);
// callers that place one program several ways profile it once and
// call Place per variant.
package core

import (
	"errors"
	"fmt"
	"slices"

	"impact/internal/check"
	"impact/internal/core/funclayout"
	"impact/internal/core/globallayout"
	"impact/internal/core/inline"
	"impact/internal/core/traceselect"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/obs"
	"impact/internal/profile"
	"impact/internal/search"
)

// Strategy selects which pipeline steps run. The zero value disables
// everything and reproduces the natural (declaration-order) layout.
type Strategy struct {
	// Inline enables step 2, function inline expansion.
	Inline bool
	// TraceLayout enables steps 3-4: trace selection and intra-
	// function trace placement.
	TraceLayout bool
	// GlobalDFS enables step 5's global function ordering; when false,
	// functions stay in declaration order.
	GlobalDFS bool
	// PettisHansen, when GlobalDFS is enabled, replaces the Appendix's
	// weighted depth-first order with Pettis & Hansen's closest-is-
	// best chain merging (PLDI 1990) — the historical follow-on to
	// this paper, provided for the A6 comparison.
	PettisHansen bool
	// SplitCold enables step 5's effective/non-executed split: the
	// non-executed parts of all functions are packed after all the
	// effective parts instead of staying inside their functions.
	SplitCold bool
}

// FullStrategy returns the paper's complete pipeline.
func FullStrategy() Strategy {
	return Strategy{Inline: true, TraceLayout: true, GlobalDFS: true, SplitCold: true}
}

// NaturalStrategy returns the all-off baseline.
func NaturalStrategy() Strategy { return Strategy{} }

// Config parameterises one pipeline run.
type Config struct {
	// ProfileSeeds are the profiling inputs (paper Table 2 "runs").
	ProfileSeeds []uint64
	// Interp configures profiling executions.
	Interp interp.Config
	// Inline configures step 2. Zero value means inline.DefaultConfig.
	Inline inline.Config
	// MinProb is the trace selection threshold; zero means the paper's
	// MIN_PROB = 0.7.
	MinProb float64
	// Strategy selects the steps; DefaultConfig uses FullStrategy.
	Strategy Strategy
	// Check selects pipeline verification (internal/check): Off skips
	// it, Warn collects diagnostics into Result.Checks, Strict
	// additionally fails the run on any error-severity diagnostic.
	Check check.Mode
	// Obs, when non-nil, receives per-stage spans (pipeline/profile,
	// pipeline/inline, pipeline/traceselect, pipeline/funclayout,
	// pipeline/globallayout, pipeline/compose) and work counters; nil
	// disables all instrumentation (see docs/OBSERVABILITY.md).
	Obs *obs.Registry
	// Lane attributes this run's timeline events to one tracer lane
	// (obs.Tracer); zero is the main lane. Set by the experiment
	// engine's workers so concurrent pipeline runs land on separate
	// timeline rows.
	Lane obs.Lane
	// Ledger enables the per-stage locality ledger: after each
	// pipeline stage the layout is scored (analysis.ScoreLayout) and a
	// StageSnapshot recorded in Result.Ledger.
	Ledger bool
}

// DefaultConfig returns the paper's configuration with the given
// profiling seeds.
func DefaultConfig(seeds ...uint64) Config {
	return Config{
		ProfileSeeds: seeds,
		Inline:       inline.DefaultConfig(),
		MinProb:      traceselect.DefaultMinProb,
		Strategy:     FullStrategy(),
	}
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Prog is the transformed program (inlined if step 2 ran).
	Prog *ir.Program
	// Layout maps Prog's blocks to memory addresses.
	Layout *layout.Layout
	// Weights is the profile of Prog on the profiling inputs.
	Weights *profile.Weights
	// OrigWeights is the profile of the input program.
	OrigWeights *profile.Weights

	// InlineReport describes step 2 (zero value if disabled).
	InlineReport inline.Report
	// TraceStats aggregates Table 4 metrics over all functions.
	TraceStats traceselect.Stats
	// Traces holds the per-function trace selection results.
	Traces []traceselect.Result
	// Orders holds the per-function body layouts.
	Orders []funclayout.Order
	// GlobalOrder is the function placement order.
	GlobalOrder globallayout.Order

	// EffectiveBytes is the code size of all effective regions; with
	// the full pipeline these occupy addresses [0, EffectiveBytes).
	EffectiveBytes int
	// TotalBytes is Prog's full static size.
	TotalBytes int

	// Checks holds the verifier's diagnostics (nil when Config.Check
	// is Off).
	Checks *check.Report

	// Ledger holds the per-stage locality ledger (nil unless
	// Config.Ledger was set).
	Ledger *Ledger
}

// Profiled is the outcome of the pipeline's profiling half, steps 1
// and 2: the measured weights steps 3-5 consume, together with the
// configuration they were measured with. Profile produces it and
// Place consumes it, so pipeline variants that differ only in what
// they place — trace selection threshold, global order, cold split,
// inlining on or off — share one profiling session instead of
// interpreting the profiling inputs again. A Profiled value is
// read-only: every Result placed on it shares its programs and
// weights.
type Profiled struct {
	// Input is the program as given and OrigWeights its profile.
	Input       *ir.Program
	OrigWeights *profile.Weights
	// Inlined is Input after step 2 and Weights its profile on the
	// same inputs; both are nil when profiling ran without inlining.
	Inlined *ir.Program
	Weights *profile.Weights
	// InlineReport describes step 2 (zero value without inlining).
	InlineReport inline.Report

	// ProfileSeeds, Interp and Inline are the configuration the
	// weights were measured with, Inline after defaulting. Place
	// rejects a Config that asks for different ones.
	ProfileSeeds []uint64
	Interp       interp.Config
	Inline       inline.Config

	// origRuns and inlinedRuns are the per-run results of the sessions
	// that measured OrigWeights and Weights, one per profiling seed,
	// and contexts holds step 1's counts per calling context and per
	// run, read-only once step 1 ends. Step 2 and Scale derive their
	// profiles from them. A value built by hand has none.
	origRuns, inlinedRuns []interp.Result
	contexts              *interp.Contexts
}

// ErrProfileMismatch is wrapped by the error Place returns when its
// Config asks for a profile the Profiled value does not hold.
var ErrProfileMismatch = errors.New("config does not match the profiled value")

// placed returns the program steps 3-5 run on and its profile: the
// inlined pair when inlined is set, the input pair otherwise.
func (pr *Profiled) placed(inlined bool) (*ir.Program, *profile.Weights) {
	if inlined {
		return pr.Inlined, pr.Weights
	}
	return pr.Input, pr.OrigWeights
}

// serves returns an error wrapping ErrProfileMismatch unless pr holds
// the profile the normalized cfg asks for.
func (pr *Profiled) serves(cfg Config) error {
	switch {
	case !slices.Equal(cfg.ProfileSeeds, pr.ProfileSeeds):
		return fmt.Errorf("core: %w: profiling seeds %v, profiled with %v",
			ErrProfileMismatch, cfg.ProfileSeeds, pr.ProfileSeeds)
	case cfg.Interp != pr.Interp:
		return fmt.Errorf("core: %w: interp config %+v, profiled with %+v",
			ErrProfileMismatch, cfg.Interp, pr.Interp)
	case cfg.Inline != pr.Inline:
		return fmt.Errorf("core: %w: inline config %+v, profiled with %+v",
			ErrProfileMismatch, cfg.Inline, pr.Inline)
	case cfg.Strategy.Inline && pr.Inlined == nil:
		return fmt.Errorf("core: %w: the strategy inlines, but the value was profiled without inlining",
			ErrProfileMismatch)
	}
	return nil
}

// normalize rejects a Config without profiling seeds and fills in the
// MinProb and Inline defaults.
func normalize(cfg Config) (Config, error) {
	if len(cfg.ProfileSeeds) == 0 {
		return cfg, fmt.Errorf("core: no profiling seeds configured")
	}
	if cfg.MinProb == 0 {
		cfg.MinProb = traceselect.DefaultMinProb
	}
	if cfg.Inline == (inline.Config{}) {
		cfg.Inline = inline.DefaultConfig()
	}
	return cfg, nil
}

// run is the state one pipeline invocation threads through its
// stages: the root span, the verifier's report and the ledger.
type run struct {
	cfg    Config
	pipe   *obs.Span
	checks *check.Report
	led    *Ledger
}

func newRun(cfg Config) *run {
	r := &run{cfg: cfg, pipe: cfg.Obs.SpanOn(cfg.Lane, "pipeline")}
	if cfg.Check != check.Off {
		r.checks = &check.Report{}
	}
	if cfg.Ledger {
		r.led = &Ledger{}
	}
	return r
}

// verify is pipeline verification (internal/check): each stage hands
// the verifier a Unit snapshot; in Strict mode an error-severity
// diagnostic aborts the run.
func (r *run) verify(u *check.Unit) error {
	if r.cfg.Check == check.Off {
		return nil
	}
	vs := r.pipe.Span("check")
	rep := check.Run(u, check.ForStage(u.Stage), r.cfg.Obs)
	vs.End()
	r.checks.Merge(rep)
	if r.cfg.Check == check.Strict {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("core: %s stage failed verification: %w", u.Stage, err)
		}
	}
	return nil
}

// Optimize runs the configured pipeline steps on p: the profiling half
// (Profile) and the placement half (Place) in sequence, under one
// pipeline span.
func Optimize(p *ir.Program, cfg Config) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	r := newRun(cfg)
	defer r.pipe.End()
	cfg.Obs.Counter("pipeline.runs").Inc()
	pr, err := r.profile(p)
	if err != nil {
		return nil, err
	}
	return r.place(pr)
}

// Profile runs the pipeline's profiling half on p: step 1, then step
// 2 with its re-profile when cfg.Strategy.Inline is set. It only
// measures. Place verifies the profiled stages under its own
// Config.Check and records their ledger rows, so Place(Profile(p,
// cfg), cfg) returns what Optimize(p, cfg) returns; Profile ignores
// Check, Ledger and every field that only steps 3-5 read.
func Profile(p *ir.Program, cfg Config) (*Profiled, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Check, cfg.Ledger = check.Off, false
	r := newRun(cfg)
	defer r.pipe.End()
	return r.profile(p)
}

// Place runs the pipeline's placement half on a profiled value: steps
// 3-5, on the inlined program when cfg.Strategy.Inline is set and on
// the input program otherwise. It interprets nothing. cfg must ask
// for the profile pr holds — the same ProfileSeeds, Interp and Inline
// configuration, and an inlined program when the strategy inlines —
// or Place returns an error wrapping ErrProfileMismatch instead of
// placing on weights measured under other inputs.
func Place(pr *Profiled, cfg Config) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if err := pr.serves(cfg); err != nil {
		return nil, err
	}
	r := newRun(cfg)
	defer r.pipe.End()
	cfg.Obs.Counter("pipeline.runs").Inc()
	if err := r.acceptInput(pr); err != nil {
		return nil, err
	}
	if err := r.acceptInline(pr); err != nil {
		return nil, err
	}
	return r.place(pr)
}

// profile runs steps 1 and 2, verifying each stage and recording its
// ledger row as soon as it completes.
func (r *run) profile(p *ir.Program) (*Profiled, error) {
	cfg := r.cfg
	pr := &Profiled{Input: p, ProfileSeeds: slices.Clone(cfg.ProfileSeeds), Interp: cfg.Interp, Inline: cfg.Inline}
	profCfg := profile.Config{Seeds: cfg.ProfileSeeds, Interp: cfg.Interp, Obs: cfg.Obs}

	// Step 1: execution profiling. The session counts per calling
	// context as well, so that step 2 and Scale can derive the profiles
	// of the inlined and code-scaled programs instead of interpreting
	// them.
	sp := r.pipe.Span("profile")
	var err error
	pr.OrigWeights, pr.origRuns, pr.contexts, err = profile.ProfileContexts(p, profCfg, contextLimit(p, cfg.Inline))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: profiling input program: %w", err)
	}
	if err := r.acceptInput(pr); err != nil {
		return nil, err
	}
	if err := r.inline(pr, profCfg); err != nil {
		return nil, err
	}
	return pr, nil
}

// inline runs step 2 on pr, whose step 1 has run, when the strategy
// inlines, re-profiling under profCfg, and verifies it and records its
// ledger row either way.
func (r *run) inline(pr *Profiled, profCfg profile.Config) error {
	if r.cfg.Strategy.Inline {
		sp := r.pipe.Span("inline")
		var err error
		pr.Inlined, pr.InlineReport, err = inline.Expand(pr.Input, pr.OrigWeights, r.cfg.Inline)
		if err != nil {
			sp.End()
			return fmt.Errorf("core: inline expansion: %w", err)
		}
		// Profile the transformed program with the same inputs. Like
		// IMPACT-I, which propagates weights through the transform,
		// reprofile derives them, exactly, from step 1's context
		// counts; it interprets the inlined program only when it
		// cannot prove the derivation exact (see reprofile.go).
		pr.Weights, pr.inlinedRuns, err = pr.reprofile(pr.contexts, profCfg)
		sp.End()
		if err != nil {
			return fmt.Errorf("core: re-profiling inlined program: %w", err)
		}
		r.cfg.Obs.Counter("pipeline.inline.sites_inlined").Add(uint64(pr.InlineReport.SitesInlined))
	}
	return r.acceptInline(pr)
}

// acceptInput verifies the profiled input program and records the
// ledger's "input" row.
func (r *run) acceptInput(pr *Profiled) error {
	if err := r.verify(&check.Unit{Stage: check.StageInput, Prog: pr.Input, Weights: pr.OrigWeights}); err != nil {
		return err
	}
	if r.led != nil {
		r.led.capture("input", layout.Natural(pr.Input), pr.OrigWeights)
	}
	return nil
}

// acceptInline verifies step 2 when the run inlines and records the
// ledger's "inline" row.
func (r *run) acceptInline(pr *Profiled) error {
	prog, w := pr.placed(r.cfg.Strategy.Inline)
	if r.cfg.Strategy.Inline {
		if err := r.verify(&check.Unit{
			Stage: check.StageInline, Prog: prog, Weights: w,
			Before: pr.Input, BeforeWeights: pr.OrigWeights, Inline: &pr.InlineReport,
		}); err != nil {
			return err
		}
	}
	// After inlining the program still has its natural layout; the
	// ledger row prices the code growth and the locality of the
	// inlined program's profile before any reordering. When inlining is
	// disabled the row repeats "input" (zero delta).
	if r.led != nil {
		r.led.capture("inline", layout.Natural(prog), w)
	}
	return nil
}

// place runs steps 3-5 on pr and composes the final layout.
func (r *run) place(pr *Profiled) (*Result, error) {
	cfg := r.cfg
	prog, w := pr.placed(cfg.Strategy.Inline)
	res := &Result{
		Prog:        prog,
		Weights:     w,
		OrigWeights: pr.OrigWeights,
		TotalBytes:  prog.Bytes(),
		Checks:      r.checks,
		Ledger:      r.led,
	}
	if cfg.Strategy.Inline {
		res.InlineReport = pr.InlineReport
	}

	// Step 3: trace selection. (Step 4 consumes only its own
	// function's selection, so the two steps run as separate passes —
	// which also gives each a clean timing span.)
	sp := r.pipe.Span("traceselect")
	res.Traces = make([]traceselect.Result, len(prog.Funcs))
	res.Orders = make([]funclayout.Order, len(prog.Funcs))
	var tracesFormed int
	for _, f := range prog.Funcs {
		fw := &w.Funcs[f.ID]
		if cfg.Strategy.TraceLayout {
			sel := traceselect.Select(f, fw, cfg.MinProb)
			res.Traces[f.ID] = sel
			res.TraceStats.Add(traceselect.ComputeStats(f, fw, &sel))
		} else {
			res.Traces[f.ID] = naturalTraces(f, fw)
		}
		tracesFormed += len(res.Traces[f.ID].Traces)
	}
	sp.End()
	cfg.Obs.Counter("pipeline.traceselect.traces").Add(uint64(tracesFormed))
	if err := r.verify(&check.Unit{
		Stage: check.StageTrace, Prog: prog, Weights: w,
		Traces: res.Traces, MinProb: cfg.MinProb,
		TraceLayout: cfg.Strategy.TraceLayout,
	}); err != nil {
		return nil, err
	}
	if r.led != nil {
		lay, err := layout.FromPlacement(prog, traceSelectionPlacement(prog, res.Traces))
		if err != nil {
			return nil, fmt.Errorf("core: ledger traceselect layout: %w", err)
		}
		r.led.capture("traceselect", lay, w)
	}

	// Step 4: function body layout.
	sp = r.pipe.Span("funclayout")
	var blocksMoved int
	for _, f := range prog.Funcs {
		fw := &w.Funcs[f.ID]
		if cfg.Strategy.TraceLayout {
			res.Orders[f.ID] = funclayout.Layout(f, fw, &res.Traces[f.ID])
		} else {
			res.Orders[f.ID] = naturalOrder(f, fw)
		}
		for i, b := range res.Orders[f.ID].Blocks {
			if b != ir.BlockID(i) {
				blocksMoved++
			}
		}
		res.EffectiveBytes += res.Orders[f.ID].EffectiveBytes(f)
	}
	sp.End()
	cfg.Obs.Counter("pipeline.funclayout.blocks_moved").Add(uint64(blocksMoved))
	if r.led != nil {
		var pl layout.Placement
		for _, f := range prog.Funcs {
			for _, b := range res.Orders[f.ID].Blocks {
				pl.Order = append(pl.Order, layout.BlockRef{F: f.ID, B: b})
			}
		}
		lay, err := layout.FromPlacement(prog, pl)
		if err != nil {
			return nil, fmt.Errorf("core: ledger funclayout layout: %w", err)
		}
		r.led.capture("funclayout", lay, w)
	}

	// Step 5: global layout.
	sp = r.pipe.Span("globallayout")
	if cfg.Strategy.GlobalDFS {
		if cfg.Strategy.PettisHansen {
			res.GlobalOrder = globallayout.PettisHansen(prog, w)
		} else {
			res.GlobalOrder = globallayout.Layout(prog, w)
		}
	} else {
		order := make([]ir.FuncID, len(prog.Funcs))
		for i := range order {
			order[i] = ir.FuncID(i)
		}
		res.GlobalOrder = globallayout.Order{Funcs: order}
	}
	sp.End()
	var funcsMoved int
	for i, f := range res.GlobalOrder.Funcs {
		if f != ir.FuncID(i) {
			funcsMoved++
		}
	}
	cfg.Obs.Counter("pipeline.globallayout.funcs_moved").Add(uint64(funcsMoved))

	// Compose the final placement.
	sp = r.pipe.Span("compose")
	var err error
	res.Layout, err = search.Compose(prog, res.Orders, res.GlobalOrder, cfg.Strategy.SplitCold)
	if err != nil {
		return nil, fmt.Errorf("core: composing layout: %w", err)
	}
	sp.End()
	cfg.Obs.Counter("pipeline.compose.blocks_placed").Add(uint64(prog.NumBlocks()))
	r.led.capture("globallayout", res.Layout, w)
	if err := r.verify(&check.Unit{
		Stage: check.StageLayout, Prog: prog, Weights: w,
		Traces: res.Traces, MinProb: cfg.MinProb,
		Orders: res.Orders, Global: &res.GlobalOrder,
		Layout: res.Layout, EffectiveBytes: res.EffectiveBytes,
		TraceLayout: cfg.Strategy.TraceLayout, SplitCold: cfg.Strategy.SplitCold,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// naturalTraces puts every block in its own trace (used when trace
// layout is disabled, so Table 4 style stats remain computable).
func naturalTraces(f *ir.Function, fw *profile.FuncWeights) traceselect.Result {
	res := traceselect.Result{
		TraceOf: make([]int, len(f.Blocks)),
		PosOf:   make([]int, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		res.TraceOf[b.ID] = int(b.ID)
		res.Traces = append(res.Traces, traceselect.Trace{
			ID:     int(b.ID),
			Blocks: []ir.BlockID{b.ID},
			Weight: fw.BlockW[b.ID],
		})
	}
	return res
}

// naturalOrder keeps declaration order with no effective split.
func naturalOrder(f *ir.Function, fw *profile.FuncWeights) funclayout.Order {
	o := funclayout.Order{Blocks: make([]ir.BlockID, len(f.Blocks))}
	for i := range o.Blocks {
		o.Blocks[i] = ir.BlockID(i)
	}
	o.EffectiveBlocks = len(o.Blocks)
	_ = fw
	return o
}

// CallDecrease returns the fraction of dynamic calls eliminated by
// inline expansion (Table 3 "call dec").
func (res *Result) CallDecrease() float64 {
	before := res.OrigWeights.DynCalls
	if before == 0 {
		return 0
	}
	after := res.Weights.DynCalls
	if after > before {
		return 0
	}
	return float64(before-after) / float64(before)
}

// InstrsPerCall returns dynamic instructions executed per dynamic
// function call after inlining (Table 3 "DI's per call").
func (res *Result) InstrsPerCall() float64 {
	if res.Weights.DynCalls == 0 {
		return float64(res.Weights.DynInstrs)
	}
	return float64(res.Weights.DynInstrs) / float64(res.Weights.DynCalls)
}

// TransfersPerCall returns dynamic control transfers (branches) per
// dynamic call after inlining (Table 3 "CT's per call").
func (res *Result) TransfersPerCall() float64 {
	if res.Weights.DynCalls == 0 {
		return float64(res.Weights.DynBranches)
	}
	return float64(res.Weights.DynBranches) / float64(res.Weights.DynCalls)
}
