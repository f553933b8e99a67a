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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/core"
	"impact/internal/interp"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/paging"
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
	// OptRun / NatRun are the evaluation execution summaries.
	OptRun interp.Result
	NatRun interp.Result

	// derived memoizes pipeline-variant outputs (ablation strategies,
	// MIN_PROB sweeps, code scaling) keyed by variant name. The
	// pipeline is deterministic, so a variant's result and evaluation
	// trace never change across re-runs; caching them turns repeated
	// table generation from pipeline-bound into a map lookup.
	// derivedMu serializes every variant of this benchmark, lookups
	// and builds alike.
	derivedMu sync.Mutex
	derived   map[string]*derivedVariant

	// evalW memoizes the evaluation-run profile of the optimized
	// program (see EvalWeights).
	evalWOnce sync.Once
	evalW     *profile.Weights
	evalWErr  error

	// analyzed memoizes static analyses per cache geometry (see
	// Analyze).
	analyzedMu sync.Mutex
	analyzed   map[cache.Config]*analyzedEntry

	// pages memoizes static page-level analyses per paging geometry
	// (see AnalyzePages).
	pagesMu sync.Mutex
	pages   map[paging.Config]*pageEntry
}

// derivedVariant is one memoized pipeline re-run.
type derivedVariant struct {
	res *core.Result
	tr  *memtrace.Trace
	err error
}

// deriveTrace returns the memoized (pipeline result, evaluation trace)
// for the named variant, building it on first use. Errors are cached
// too — a deterministic build that failed once will fail identically.
// One lock per benchmark (derivedMu) is held across the build, so
// concurrent callers of the same variant wait rather than duplicating
// a pipeline run, and callers of other variants of the same benchmark
// wait too.
func (p *Prepared) deriveTrace(variant string, build func() (*core.Result, *memtrace.Trace, error)) (*core.Result, *memtrace.Trace, error) {
	p.derivedMu.Lock()
	defer p.derivedMu.Unlock()
	if p.derived == nil {
		p.derived = make(map[string]*derivedVariant)
	}
	v, ok := p.derived[variant]
	if !ok {
		v = &derivedVariant{}
		v.res, v.tr, v.err = build()
		p.derived[variant] = v
	}
	return v.res, v.tr, v.err
}

// deriveOptimize is deriveTrace for the common shape: place the
// prepared profile under a tweaked config, then trace the evaluation
// run. No profiling input is interpreted again; a config that asks for
// another profile (other seeds, interp or inline configuration) is an
// error from core.Place, never a silent reuse.
func (p *Prepared) deriveOptimize(variant string, cfg core.Config) (*core.Result, *memtrace.Trace, error) {
	return p.deriveTrace(variant, func() (*core.Result, *memtrace.Trace, error) {
		res, err := core.Place(p.Profile, cfg)
		if err != nil {
			return nil, nil, err
		}
		tr, _, err := res.EvalTrace(p.Bench.EvalSeed, p.Bench.EvalConfig())
		if err != nil {
			return nil, nil, err
		}
		return res, tr, nil
	})
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

// Name returns the benchmark name.
func (p *Prepared) Name() string { return p.Bench.Name() }

// Suite is the prepared experiment state for all benchmarks.
type Suite struct {
	Items []*Prepared
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
	// (prepare.<name>.seconds gauges, the prepare.benchmark histogram)
	// and the prepare.worker_utilization gauge.
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
func Prepare(scale float64) (*Suite, error) {
	return PrepareBenchmarks(workload.Suite(scale))
}

// PrepareWith is Prepare with observability options.
func PrepareWith(scale float64, opts Options) (*Suite, error) {
	return PrepareBenchmarksWith(workload.Suite(scale), opts)
}

// PrepareBenchmarks runs the pipeline on the given benchmarks,
// in parallel across CPUs.
func PrepareBenchmarks(benchmarks []*workload.Benchmark) (*Suite, error) {
	return PrepareBenchmarksWith(benchmarks, Options{})
}

// PrepareBenchmarksWith runs the pipeline on the given benchmarks in
// parallel across CPUs, reporting per-benchmark progress and metrics
// through opts.
func PrepareBenchmarksWith(benchmarks []*workload.Benchmark, opts Options) (*Suite, error) {
	if opts.Obs != nil {
		sharedEngine.AttachObs(opts.Obs)
	}
	items := make([]*Prepared, len(benchmarks))
	errs := make([]error, len(benchmarks))
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		// Two workers even on one core: preparation interleaves
		// harmlessly and the timeline keeps its parallel structure.
		workers = 2
	}
	if workers > len(benchmarks) {
		workers = len(benchmarks)
	}
	//lint:walltime progress reporting only; results are clock-free
	start := time.Now()
	var busyNS atomic.Int64
	var done atomic.Int64
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	// A fixed channel-fed pool rather than goroutine-per-benchmark:
	// each worker owns one timeline lane ("prepare-worker-N"), so the
	// trace shows benchmark preparation as parallel rows.
	type job struct {
		i int
		b *workload.Benchmark
	}
	jobs := make(chan job)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			lane := opts.Obs.NewLane(fmt.Sprintf("prepare-worker-%d", wkr))
			for j := range jobs {
				i, b := j.i, j.b
				sp := opts.Obs.SpanOn(lane, "prepare/benchmark")
				sp.SetAttr("benchmark", b.Name())
				//lint:walltime progress reporting only; results are clock-free
				bStart := time.Now()
				items[i], errs[i] = prepareOne(b, opts, lane)
				elapsed := time.Since(bStart)
				sp.End()
				busyNS.Add(int64(elapsed))
				n := int(done.Add(1))
				opts.Obs.Histogram("prepare.benchmark").Observe(elapsed)
				opts.Obs.Gauge("prepare." + b.Name() + ".seconds").Set(elapsed.Seconds())
				opts.logger().Debug("benchmark prepared",
					"benchmark", b.Name(), "elapsed", elapsed, "done", n, "total", len(benchmarks))
				if opts.Progress != nil {
					progressMu.Lock()
					opts.Progress(Progress{Done: n, Total: len(benchmarks), Benchmark: b.Name(), Elapsed: elapsed})
					progressMu.Unlock()
				}
			}
		}(wkr)
	}
	for i, b := range benchmarks {
		jobs <- job{i: i, b: b}
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	if n := len(benchmarks); n > 0 && wall > 0 {
		if n < workers {
			workers = n
		}
		util := float64(busyNS.Load()) / (wall.Seconds() * 1e9 * float64(workers))
		opts.Obs.Gauge("prepare.worker_utilization").Set(util)
		opts.Obs.Gauge("prepare.wall_seconds").Set(wall.Seconds())
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", benchmarks[i].Name(), err)
		}
	}
	return &Suite{Items: items}, nil
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
	sp := opts.Obs.SpanOn(lane, "evaltrace")
	//lint:walltime trace-timing metric only; results are clock-free
	tStart := time.Now()
	optTr, optRun, err := res.EvalTrace(b.EvalSeed, b.EvalConfig())
	if err != nil {
		sp.End()
		return nil, err
	}
	interp.Record(opts.Obs, optRun, time.Since(tStart))
	//lint:walltime trace-timing metric only; results are clock-free
	tStart = time.Now()
	natTr, natRun, err := layout.Trace(layout.Natural(b.Prog), b.EvalSeed, b.EvalConfig())
	sp.End()
	if err != nil {
		return nil, err
	}
	interp.Record(opts.Obs, natRun, time.Since(tStart))
	for _, e := range []struct {
		layout string
		run    interp.Result
	}{{"optimized", optRun}, {"natural", natRun}} {
		layoutName, run := e.layout, e.run
		if !run.Completed {
			opts.Obs.Counter("interp.eval_capped").Inc()
			opts.logger().Warn("evaluation run hit the instruction cap",
				"benchmark", b.Name(), "layout", layoutName,
				"cap", b.EvalConfig().MaxSteps, "executed", run.Instrs)
		}
	}
	return &Prepared{
		Bench:    b,
		Profile:  prof,
		Opt:      res,
		OptTrace: optTr,
		NatTrace: natTr,
		OptRun:   optRun,
		NatRun:   natRun,
	}, nil
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
