package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/experiments"
	"impact/internal/obs"
	"impact/internal/workload"
	"impact/internal/xrand"
)

// design is the paper's headline organisation, a 2KB direct-mapped
// cache with 64-byte blocks, where the quality metrics are taken.
var design = cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}

// runConfig is one invocation's settings.
type runConfig struct {
	w       workloadDef
	seed    uint64
	scale   float64
	seconds float64
	// minRounds rounds always run. The quality metrics come from them
	// alone, so they depend on the seed and not on how many rounds the
	// time budget allowed.
	minRounds int
	trace     bool
	traceOut  string
}

// totals accumulates the quality metrics over the scored rounds.
type totals struct {
	programs                   int
	missRatio                  float64 // Σ optimized miss ratio at the design point
	upper, measured            uint64  // Σ static upper bound and simulated misses there
	searchMisses, greedyMisses float64
	searchFaults, greedyFaults uint64
}

// run executes rounds until the time budget is spent (at least
// minRounds of them) and, when tracing, one traced round and the layer
// probe.
func run(cfg runConfig) (*report, error) {
	t := &totals{}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var rounds []*round
	start := time.Now()
	for i := 0; ; i++ {
		// Stop before a round that would likely overrun the budget.
		if elapsed := time.Since(start); i >= cfg.minRounds && elapsed+elapsed/time.Duration(i) > budget {
			break
		}
		r := newRound(&cfg, t, i, nil)
		if err := r.do(); err != nil {
			return nil, err
		}
		r.release()
		rounds = append(rounds, r)
	}
	rep := &report{cfg: cfg, rounds: len(rounds), e2e: endToEndMetrics(rounds, t)}
	rep.items, rep.itemP50, rep.itemP75 = itemQuartiles(rounds)
	all := rounds
	if cfg.trace {
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(0)
		reg.AttachTracer(tracer)
		tr := newRound(&cfg, t, len(rounds), reg)
		if err := tr.do(); err != nil {
			return nil, err
		}
		rep.layers = layerMetrics(rounds, tr, t)
		for k, v := range probe(tr) {
			rep.layers[k] = v
		}
		if err := writeTrace(cfg.traceOut, tracer); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "icbench: wrote %d trace events (%d dropped) to %s\n",
			len(tracer.Events()), tracer.Dropped(), cfg.traceOut)
		all = append(all, tr)
	}
	for _, r := range all {
		rep.attempted += r.ops
		rep.failed += r.failed
	}
	return rep, nil
}

// round is one set-up and timed phase on one seed's programs.
type round struct {
	cfg    *runConfig
	totals *totals
	index  int
	seed   uint64
	// scored rounds feed the quality metrics.
	scored bool
	// reg receives the spans icbench opens in the traced round, the program's
	// own spans and counters; nil otherwise, which disables both.
	reg *obs.Registry
	// sec is the span of the open section.
	sec *obs.Span
	// golden, when non-nil, is the output every section must
	// reproduce.
	golden golden

	suite *experiments.Suite
	nat   []natural // analyze: each program's natural layout

	build, setup, run time.Duration // wall time
	setupCPU          time.Duration
	// setupNorm and runNorm scale set-up and the timed phase to the
	// workload's nominal size: the nominal over the actual instruction
	// count of what drives each one's cost.
	setupNorm, runNorm float64
	proc               procSample // resources the timed phase used
	sections           map[string]time.Duration
	items              []time.Duration
	ops, failed        int

	// Outputs of the timed phase that the referees check afterwards.
	t6       []experiments.Table6Row
	t8       []experiments.Table8Row
	lone     []loneRequest
	searched []searched
}

func newRound(cfg *runConfig, t *totals, i int, reg *obs.Registry) *round {
	return &round{
		cfg:      cfg,
		totals:   t,
		index:    i,
		seed:     roundSeed(cfg.seed, i),
		scored:   i < cfg.minRounds,
		reg:      reg,
		sections: make(map[string]time.Duration),
	}
}

// release drops the round's programs and outputs once its
// measurements are taken, so that rounds do not accumulate memory.
func (r *round) release() {
	r.suite, r.nat, r.golden = nil, nil, nil
	r.t6, r.t8, r.lone, r.searched = nil, nil, nil, nil
}

// roundSeed is the input seed of round i: the run's own seed first,
// then seeds derived from it, so each round meets new inputs, hence new
// traces, and no memoized measurement carries over from an earlier
// round.
func roundSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return xrand.Seed(seed, uint64(i))
}

// benchmarks builds one round's programs: always the paper's program
// structures, with trace lengths scaled and floored as workload.Suite
// does. Seed 0 keeps their inputs too, so it yields the paper's suite;
// any other seed re-derives each profiling and evaluation input seed s
// as xrand.Seed(s, seed). Re-deriving the generator seed instead would
// draw new program structures, and the time to search the large ones
// varies by about 30% from one draw to the next (README.md).
func benchmarks(params []workload.Params, scale float64, seed uint64) ([]*workload.Benchmark, error) {
	out := make([]*workload.Benchmark, len(params))
	for i, p := range params {
		p.TargetInstrs = max(uint64(float64(p.TargetInstrs)*scale), 50_000)
		b, err := workload.Build(p)
		if err != nil {
			return nil, err
		}
		if seed != 0 {
			for j, s := range b.ProfileSeeds {
				b.ProfileSeeds[j] = xrand.Seed(s, seed)
			}
			b.EvalSeed = xrand.Seed(b.EvalSeed, seed)
		}
		out[i] = b
	}
	return out, nil
}

// do runs the round: set-up, the timed phase, then the untimed
// referees and quality measurements.
func (r *round) do() error {
	runtime.GC()
	if err := r.setUp(); err != nil {
		return fmt.Errorf("%s round %d (seed %d): %w", r.cfg.w.name, r.index, r.seed, err)
	}
	before := sampleProc()
	start := time.Now()
	r.cfg.w.run(r)
	r.run = time.Since(start)
	r.proc = sampleProc().sub(before)
	if r.cfg.w.check != nil {
		r.cfg.w.check(r)
	}
	if r.scored {
		r.quality()
	}
	fmt.Fprintf(os.Stderr, "icbench: %s round %d: set-up %.3fs (cpu %.3fs, x%.3f to nominal), run %.3fs (cpu %.3fs, x%.3f to nominal), %d ops, %d failed\n",
		r.cfg.w.name, r.index, r.setup.Seconds(), r.setupCPU.Seconds(), r.setupNorm,
		r.run.Seconds(), r.proc.cpu.Seconds(), r.runNorm, r.ops, r.failed)
	return nil
}

// setUp builds and prepares the round's programs: everything the timed
// phase needs that a user would have ready before asking for it.
func (r *round) setUp() error {
	if r.cfg.w.golden && r.seed == 0 && r.cfg.scale == 1 {
		var err error
		if r.golden, err = loadGolden(goldenPath); err != nil {
			return err
		}
	}
	before := sampleProc()
	start := time.Now()
	bs, err := benchmarks(r.cfg.w.params(), r.cfg.scale, r.seed)
	if err != nil {
		return err
	}
	r.build = time.Since(start)
	if r.suite, err = experiments.PrepareBenchmarksWith(bs, experiments.Options{Obs: r.reg}); err != nil {
		return err
	}
	if r.cfg.w.prepare != nil {
		if err := r.cfg.w.prepare(r); err != nil {
			return err
		}
	}
	r.setup = time.Since(start)
	r.setupCPU = sampleProc().sub(before).cpu
	r.setupNorm = r.toNominal(interpreted)
	r.runNorm = r.toNominal(r.cfg.w.runSize)
	return nil
}

// toNominal returns the factor that scales a cost driven by sz from
// this round's input to the nominal one: 1 when sz is nil.
func (r *round) toNominal(sz *size) float64 {
	if sz == nil {
		return 1
	}
	var actual, nominal uint64
	for _, p := range r.suite.Items {
		actual += sz.actual(p)
		nominal += sz.nominal(p.Bench.Params)
	}
	return ratio(float64(nominal), float64(actual))
}

// paperSuite names the ten programs of the paper's suite, over which
// the optimized miss ratio is averaged: the extension's twelve would
// add their own, wider, spread.
var paperSuite = func() map[string]bool {
	m := map[string]bool{}
	for _, p := range workload.SuiteParams() {
		m[p.Name] = true
	}
	return m
}()

// quality adds the round's programs to the quality totals at the
// design point, checking the analyzer's bracket on the way.
func (r *round) quality() {
	t := r.totals
	for _, p := range r.suite.Items {
		st, err := cache.Simulate(design, p.OptTrace)
		var res *analysis.Result
		if err == nil {
			res, err = p.Analyze(design)
		}
		if err == nil {
			err = bracket(res.Bounds, st.Misses)
		}
		if !r.op(p.Name()+" at the design point", err) {
			continue
		}
		if paperSuite[p.Name()] {
			t.programs++
			t.missRatio += st.MissRatio()
		}
		if res.Bounds.Exact {
			t.upper += res.Bounds.Upper
			t.measured += st.Misses
		}
	}
}

// bracket checks that a simulated count lies within the static
// bounds. Bounds from a run that hit the interpreter's step cap are
// estimates, not guarantees, and pass unchecked, as in
// experiments.BoundCheck.
func bracket(b analysis.Bounds, measured uint64) error {
	if b.Exact && (measured < b.Lower || measured > b.Upper) {
		return fmt.Errorf("measured %d outside [%d, %d]", measured, b.Lower, b.Upper)
	}
	return nil
}

// op counts one operation, and a failure when err is non-nil. It
// reports whether the operation succeeded.
func (r *round) op(what string, err error) bool {
	r.ops++
	if err == nil {
		return true
	}
	r.failed++
	fmt.Fprintf(os.Stderr, "icbench: %s round %d: %s: %v\n", r.cfg.w.name, r.index, what, err)
	return false
}

// section runs one section of the timed phase under its own span,
// counts it as an operation and returns its duration.
func (r *round) section(name string, f func() error) time.Duration {
	r.sec = r.reg.Span(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.sec.End()
	r.sec = nil
	r.sections[name] += d
	r.op(name, err)
	return d
}

// call makes one public library call under a span named fn,
// child of the open section and tagged with the program it serves.
func call[T any](r *round, fn, program string, f func() (T, error)) (T, error) {
	sp := r.sec.Span(fn)
	sp.SetAttr("program", program)
	defer sp.End()
	return f()
}

// suiteAttr tags calls that serve every program of the round.
const suiteAttr = "suite"

// procSample is a reading of the process's resource counters.
type procSample struct {
	cpu     time.Duration // user + system CPU time
	gc      float64       // GC CPU seconds, as the runtime estimates them
	used    float64       // CPU seconds the runtime did not spend idle
	allocGB float64       // heap bytes allocated, in GB
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:      s[0].Value.Float64(),
		used:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocGB: float64(s[3].Value.Uint64()) / 1e9,
	}
}

func (s procSample) sub(o procSample) procSample {
	return procSample{cpu: s.cpu - o.cpu, gc: s.gc - o.gc, used: s.used - o.used, allocGB: s.allocGB - o.allocGB}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// endToEndMetrics derives the end-to-end metrics from the untraced
// rounds: times are the process's CPU time, medians over rounds, scaled
// to nominal size. Wall time is left to the per-layer metrics: on a
// host whose hypervisor takes a varying share of the CPUs, it moved by
// up to 80% on identical inputs, CPU time far less (README.md).
func endToEndMetrics(rounds []*round, t *totals) map[string]float64 {
	var setups, runs []float64
	for _, r := range rounds {
		setups = append(setups, r.setupCPU.Seconds()*r.setupNorm)
		runs = append(runs, r.proc.cpu.Seconds()*r.runNorm)
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"run_cpu_s":    median(runs),
		"opt_miss_pct": 100 * ratio(t.missRatio, float64(t.programs)),
	}
}

// itemQuartiles returns the number of items the rounds timed and the
// median and 75th percentile of their unscaled times.
func itemQuartiles(rounds []*round) (n int, p50, p75 float64) {
	var items []float64
	for _, r := range rounds {
		for _, d := range r.items {
			items = append(items, d.Seconds())
		}
	}
	_, p50, p75 = quartiles(items)
	return len(items), p50, p75
}

// layerMetrics derives the per-layer metrics that do not come from the
// probe: resource use from the untraced rounds, section times and the
// program's own counters from the traced round tr.
func layerMetrics(rounds []*round, tr *round, t *totals) map[string]float64 {
	var setupWall, runWall, alloc, build, runCPU []float64
	var cpuSum, wallSum, gcSum, usedSum float64
	for _, r := range rounds {
		setupWall = append(setupWall, r.setup.Seconds()*r.setupNorm)
		runWall = append(runWall, r.run.Seconds()*r.runNorm)
		alloc = append(alloc, r.proc.allocGB)
		build = append(build, r.build.Seconds())
		runCPU = append(runCPU, r.proc.cpu.Seconds()*r.runNorm)
		cpuSum += r.proc.cpu.Seconds()
		wallSum += r.run.Seconds()
		gcSum += r.proc.gc
		usedSum += r.proc.used
	}
	m := map[string]float64{
		"proc.setup_wall_s":    median(setupWall),
		"proc.wall_s":          median(runWall),
		"proc.cpu_util":        ratio(cpuSum, wallSum*float64(runtime.GOMAXPROCS(0))),
		"proc.gc_cpu_frac":     ratio(gcSum, usedSum),
		"proc.alloc_gb":        median(alloc),
		"proc.peak_rss_mb":     peakRSSMB(),
		"workload.build_s":     median(build),
		"analysis.bound_ratio": ratio(float64(t.upper), float64(t.measured)),
		"search.miss_ratio":    ratio(t.searchMisses, t.greedyMisses),
		"search.fault_ratio":   ratio(float64(t.searchFaults), float64(t.greedyFaults)),
		"trace.overhead_s":     tr.proc.cpu.Seconds()*tr.runNorm - median(runCPU),
	}
	for _, s := range sectionNames {
		m["experiments."+s+"_s"] = tr.sections[s].Seconds()
	}

	snap := tr.reg.Snapshot()
	c := snap.Counters
	sims := float64(c["sweep.sims_run"])
	memo := float64(c["sweep.sims_memoized"] + c["sweep.stack_pass_reused"])
	m["experiments.sims_run"] = sims
	m["experiments.memo_hit_ratio"] = ratio(memo, memo+sims)
	m["experiments.trace_passes"] = float64(c["sweep.trace_passes"])
	m["experiments.stack_share"] = ratio(float64(c["sweep.stack_pass_sizes"]), sims)
	m["experiments.sharded_sims"] = float64(c["sweep.sharded_sims"])
	m["experiments.banded_passes"] = float64(c["sweep.stack_sharded"])
	busy := float64(snap.Spans["search"].TotalNS) / 1e9
	m["search.busy_s"] = busy
	m["search.evals_per_s"] = ratio(float64(c["search.evals"]), busy)
	m["search.accept_ratio"] = ratio(float64(c["search.accepted"]), float64(c["search.evals"]))

	var words, runCount uint64
	for _, p := range tr.suite.Items {
		words += p.OptTrace.Instrs
		runCount += uint64(len(p.OptTrace.Runs))
	}
	m["memtrace.accesses_m"] = float64(words) / 1e6
	m["memtrace.avg_run_words"] = ratio(float64(words), float64(runCount))
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeTrace(path string, t *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
