// Package experiments reproduces every table of the paper's
// evaluation (section 4). The paper has nine tables and no figures;
// each TableN function regenerates the corresponding table's rows from
// the synthetic benchmark suite, and the ablation functions cover the
// design choices the pipeline exposes (layout strategy, associativity,
// MIN_PROB, global layout).
//
// All tables share one prepared state per benchmark: the profiled
// program, the optimized placement from the full pipeline, and the
// evaluation traces under the optimized and baseline layouts. Prepare
// computes that state once; the tables then replay the traces into
// whatever cache organisation they measure.
package experiments

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"impact/internal/check"
	"impact/internal/core"
	"impact/internal/interp"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/pool"
	"impact/internal/profile"
	"impact/internal/workload"
)

// Prepared bundles one benchmark's pipeline outputs.
type Prepared struct {
	Bench *workload.Benchmark
	// Profile is the profiling half of the full-pipeline run: the
	// input and inlined programs with their measured weights. Pipeline
	// variants place on it (core.Place) instead of profiling again.
	Profile *core.Profiled
	// Opt is the full-pipeline result (inlined program + layout),
	// placed on Profile.
	Opt *core.Result
	// OptTrace is the evaluation trace under the optimized layout.
	OptTrace *memtrace.Trace
	// NatTrace is the evaluation trace of the original (un-inlined)
	// program under the natural declaration-order layout — the
	// conventional-compiler baseline.
	NatTrace *memtrace.Trace

	// evalW is the optimized program's profile counted in the run
	// OptTrace records (see EvalWeights).
	evalW *profile.Weights

	// mode and reg are the suite's Options.Check and Options.Obs: every
	// analysis of p is verified under them (see verify), every variant
	// placed under them (see variantConfig), and every evaluation run
	// recorded to reg (see evalRun). log receives the capped-run
	// warnings.
	mode check.Mode
	reg  *obs.Registry
	log  *slog.Logger
}

// verify runs the analyzers of u's stage under the suite's check mode:
// nothing under Off, and under Strict an error-severity diagnostic
// becomes the returned error.
func (p *Prepared) verify(u *check.Unit) error {
	if p.mode == check.Off {
		return nil
	}
	err := check.Run(u, check.ForStage(u.Stage), p.reg).Err()
	if err != nil && p.mode == check.Strict {
		return fmt.Errorf("experiments: %s stage failed verification: %w", u.Stage, err)
	}
	return nil
}

// evalRun runs p's evaluation input once under lay, the layout named
// name, on lane: into sink when it is non-nil, returning no trace, and
// otherwise into the returned trace, counting the run into the
// returned profile when weigh is set (see EvalWeights). The run is
// timed under an evaltrace span and recorded to the suite's registry;
// a run the instruction cap stopped is counted in interp.eval_capped
// and logged.
func (p *Prepared) evalRun(lay *layout.Layout, name string, lane obs.Lane, sink memtrace.Sink, weigh bool) (tr *memtrace.Trace, w *profile.Weights, err error) {
	seed, cfg := p.Bench.EvalSeed, p.Bench.EvalConfig()
	sp := p.reg.SpanOn(lane, "evaltrace")
	sp.SetAttr("benchmark", p.Name())
	sp.SetAttr("layout", name)
	var run interp.Result
	switch {
	case sink != nil:
		run, err = layout.Stream(lay, seed, cfg, sink)
	case weigh:
		tr, w, run, err = layout.TraceWeights(lay, seed, cfg)
	default:
		tr, run, err = layout.Trace(lay, seed, cfg)
	}
	elapsed := sp.End()
	if err != nil {
		return nil, nil, err
	}
	interp.Record(p.reg, run, elapsed)
	if !run.Completed {
		p.reg.Counter("interp.eval_capped").Inc()
		p.log.Warn("evaluation run hit the instruction cap",
			"benchmark", p.Name(), "layout", name, "cap", cfg.MaxSteps, "executed", run.Instrs)
	}
	return tr, w, nil
}

// deriveOptimize places the prepared profile under a tweaked config,
// then traces the evaluation run as the variant name. No profiling
// input is interpreted again; a config that asks for another profile
// (other seeds, interp or inline configuration) is an error from
// core.Place, never a silent reuse.
func (p *Prepared) deriveOptimize(name string, cfg core.Config) (*core.Result, *memtrace.Trace, error) {
	res, err := core.Place(p.Profile, cfg)
	if err != nil {
		return nil, nil, err
	}
	tr, _, err := p.evalRun(res.Layout, name, cfg.Lane, nil, false)
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// pipelineConfig is the paper's pipeline configuration for benchmark b
// with strategy st: the prepared run uses the full strategy, and every
// pipeline variant starts from the same profiling configuration.
func pipelineConfig(b *workload.Benchmark, st core.Strategy) core.Config {
	cfg := core.DefaultConfig(b.ProfileSeeds...)
	cfg.Interp = b.InterpConfig()
	cfg.Strategy = st
	return cfg
}

// variantConfig is the pipeline configuration of a variant of p with
// strategy st: the prepared run's, verified under the suite's check
// mode as the prepared run is, and recorded to the suite's registry on
// lane, the building worker's.
func (p *Prepared) variantConfig(st core.Strategy, lane obs.Lane) core.Config {
	cfg := pipelineConfig(p.Bench, st)
	cfg.Check = p.mode
	cfg.Obs = p.reg
	cfg.Lane = lane
	return cfg
}

// Name returns the benchmark name.
func (p *Prepared) Name() string { return p.Bench.Name() }

// Suite is the prepared experiment state for all benchmarks.
type Suite struct {
	Items []*Prepared
	// reg is the suite's Options.Obs: the sections record their
	// per-program builds and measurements to it (see measureRows).
	reg *obs.Registry

	// eng measures every section of the suite (see engine).
	engOnce sync.Once
	eng     *Engine
}

// engine returns the suite's sweep engine, created on first use and
// attached to the suite's registry. Its memo lives as long as the
// suite: the sections of one suite share measurements, and no other
// suite sees them or records to the suite's registry.
func (s *Suite) engine() *Engine {
	s.engOnce.Do(func() {
		s.eng = NewEngine()
		s.eng.AttachObs(s.reg)
	})
	return s.eng
}

// Progress describes one benchmark finishing preparation.
type Progress struct {
	// Done / Total count finished benchmarks (Done includes this one).
	Done, Total int
	// Benchmark is the finished benchmark's name.
	Benchmark string
	// Elapsed is the wall time this benchmark's preparation took.
	Elapsed time.Duration
}

// Options configures observability for suite preparation. The zero
// value collects nothing and matches the historical Prepare behaviour.
type Options struct {
	// Obs, when non-nil, receives pipeline spans and counters from
	// every benchmark plus per-benchmark prepare times
	// (prepare.<name>.seconds gauges, the prepare/benchmark span) and
	// the prepare.worker_utilization gauge.
	Obs *obs.Registry
	// Log, when non-nil, receives per-benchmark debug lines and
	// capped-run warnings. Nil discards.
	Log *slog.Logger
	// Progress, when non-nil, is called after each benchmark finishes
	// preparing. Called from worker goroutines, serialised by an
	// internal lock.
	Progress func(Progress)
	// Check selects pipeline verification (internal/check) for every
	// pipeline run; the zero value is check.Off.
	Check check.Mode
	// Ledger enables the per-stage locality ledger (core.Ledger) on
	// every benchmark's main pipeline run; each Prepared.Opt then
	// carries its stage snapshots.
	Ledger bool
}

func (o Options) logger() *slog.Logger {
	if o.Log != nil {
		return o.Log
	}
	return discardLogger
}

// discardLogger drops everything (slog.DiscardHandler is Go 1.24+;
// a disabled level gets the same effect).
var discardLogger = slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{
	Level: slog.Level(127),
}))

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// Prepare builds the benchmark suite at the given dynamic scale and
// runs the full pipeline on every benchmark. Scale 1.0 reproduces the
// default experiment lengths; tests use smaller scales.
//
//lint:testapi the root bench_test.go benchmarks prepare their suite with it
func Prepare(scale float64) (*Suite, error) {
	return prepareBenchmarks(workload.Suite(scale))
}

// PrepareWith is Prepare with observability options.
func PrepareWith(scale float64, opts Options) (*Suite, error) {
	return PrepareBenchmarksWith(workload.Suite(scale), opts)
}

// prepareBenchmarks runs the pipeline on the given benchmarks,
// in parallel across CPUs.
func prepareBenchmarks(benchmarks []*workload.Benchmark) (*Suite, error) {
	return PrepareBenchmarksWith(benchmarks, Options{})
}

// PrepareBenchmarksWith runs the pipeline on the given benchmarks in
// parallel across CPUs, reporting per-benchmark progress and metrics
// through opts.
func PrepareBenchmarksWith(benchmarks []*workload.Benchmark, opts Options) (*Suite, error) {
	items := make([]*Prepared, len(benchmarks))
	errs := make([]error, len(benchmarks))
	workers := pool.Workers(0, len(benchmarks))
	//lint:walltime progress reporting only; results are clock-free
	start := time.Now()
	var busyNS atomic.Int64
	var done atomic.Int64
	var progressMu sync.Mutex
	// Each worker owns one timeline lane ("prepare-worker-N"), so the
	// trace shows benchmark preparation as parallel rows.
	lanes := make([]obs.Lane, workers)
	for w := range lanes {
		lanes[w] = opts.Obs.NewLane(fmt.Sprintf("prepare-worker-%d", w))
	}
	pool.Run(workers, len(benchmarks), func(w, i int) {
		b := benchmarks[i]
		sp := opts.Obs.SpanOn(lanes[w], "prepare/benchmark")
		sp.SetAttr("benchmark", b.Name())
		//lint:walltime progress reporting only; results are clock-free
		bStart := time.Now()
		items[i], errs[i] = prepareOne(b, opts, lanes[w])
		elapsed := time.Since(bStart)
		sp.End()
		busyNS.Add(int64(elapsed))
		n := int(done.Add(1))
		opts.Obs.Gauge("prepare." + b.Name() + ".seconds").Set(elapsed.Seconds())
		opts.logger().Debug("benchmark prepared",
			"benchmark", b.Name(), "elapsed", elapsed, "done", n, "total", len(benchmarks))
		if opts.Progress != nil {
			progressMu.Lock()
			opts.Progress(Progress{Done: n, Total: len(benchmarks), Benchmark: b.Name(), Elapsed: elapsed})
			progressMu.Unlock()
		}
	})
	wall := time.Since(start)
	if len(benchmarks) > 0 && wall > 0 {
		util := float64(busyNS.Load()) / (wall.Seconds() * 1e9 * float64(workers))
		opts.Obs.Gauge("prepare.worker_utilization").Set(util)
		opts.Obs.Gauge("prepare.wall_seconds").Set(wall.Seconds())
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", benchmarks[i].Name(), err)
		}
	}
	return &Suite{Items: items, reg: opts.Obs}, nil
}

func prepareOne(b *workload.Benchmark, opts Options, lane obs.Lane) (*Prepared, error) {
	cfg := pipelineConfig(b, core.FullStrategy())
	cfg.Obs = opts.Obs
	cfg.Check = opts.Check
	cfg.Lane = lane
	cfg.Ledger = opts.Ledger
	prof, err := core.Profile(b.Prog, cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.Place(prof, cfg)
	if err != nil {
		return nil, err
	}
	if res.Checks != nil && len(res.Checks.Diags) > 0 {
		opts.logger().Warn("pipeline verification diagnostics",
			"benchmark", b.Name(),
			"errors", res.Checks.Errors(), "warnings", res.Checks.Warnings())
	}
	p := &Prepared{Bench: b, Profile: prof, Opt: res, mode: opts.Check, reg: opts.Obs, log: opts.logger()}
	if p.OptTrace, p.evalW, err = p.evalRun(res.Layout, "optimized", lane, nil, true); err != nil {
		return nil, err
	}
	if p.NatTrace, _, err = p.evalRun(layout.Natural(b.Prog), "natural", lane, nil, false); err != nil {
		return nil, err
	}
	return p, nil
}

// byName returns the prepared benchmark with the given name, or nil.
func (s *Suite) byName(name string) *Prepared {
	for _, p := range s.Items {
		if p.Name() == name {
			return p
		}
	}
	return nil
}
