package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"impact/internal/cache"
	"impact/internal/cache/sweep"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/pool"
)

// The sweep engine is the single entry point for every cache
// measurement the experiments make. It exists because the tables
// overlap massively — the same (trace, organisation) pair is measured
// by several tables, and the same trace is swept across many
// organisations — so the engine deduplicates at two levels:
//
//  1. Results are memoized under a content-addressed key (trace
//     fingerprint + canonical organisation), so a measurement is paid
//     for once per engine no matter how many tables ask for it, even
//     when a pipeline variant produced a fresh but identical trace
//     value. Each Suite owns one engine (Suite.engine), so its memo
//     lives as long as the suite.
//  2. Misses are grouped by trace, and each trace's organisations go
//     to the sweep planner (sweep.NewPlan), which decides between
//     stack passes, one direct-mapped forest and one broadcast
//     replay. Every pass of every plan is one work unit.
//
// Work units run on the worker pool (internal/pool). Every derived
// statistic is bit-identical to sequential cache.Simulate — the
// differential tests in sweep_test.go and internal/cache/sweep pin
// this.

// SimRequest names one measurement: a trace replayed into a cache
// organisation.
type SimRequest struct {
	Trace  *memtrace.Trace
	Config cache.Config
}

// canonConfig is a comparable, canonical form of cache.Config used in
// memo keys: explicit associativity (0 becomes the block count), the
// replacement policy flattened to LRU for single-way sets (which never
// consult it), and the timing pointer flattened to values.
type canonConfig struct {
	size, block, assoc int
	sector             int
	repl               cache.Replacement
	partial, prefetch  bool
	timed              bool
	latency            int
	cwf                bool
}

func canonicalize(cfg cache.Config) canonConfig {
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = cfg.SizeBytes / cfg.BlockBytes
	}
	repl := cfg.Replacement
	if assoc == 1 {
		repl = cache.LRU
	}
	cc := canonConfig{
		size: cfg.SizeBytes, block: cfg.BlockBytes, assoc: assoc,
		sector: cfg.SectorBytes, repl: repl,
		partial: cfg.PartialLoad, prefetch: cfg.PrefetchNext,
	}
	if t := cfg.Timing; t != nil {
		cc.timed, cc.latency, cc.cwf = true, t.InitialLatency, t.CriticalWordFirst
	}
	return cc
}

// config reconstructs a simulatable cache.Config.
func (cc canonConfig) config() cache.Config {
	cfg := cache.Config{
		SizeBytes: cc.size, BlockBytes: cc.block, Assoc: cc.assoc,
		Replacement: cc.repl, SectorBytes: cc.sector,
		PartialLoad: cc.partial, PrefetchNext: cc.prefetch,
	}
	if cc.timed {
		cfg.Timing = &cache.TimingConfig{InitialLatency: cc.latency, CriticalWordFirst: cc.cwf}
	}
	return cfg
}

// simKey identifies one measurement by content, not identity: two
// distinct trace values with equal runs hash to the same key, so
// deterministic pipeline re-runs (ablations, repeated table
// generation) hit the memo.
type simKey struct {
	fp  uint64
	cfg canonConfig
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed hash
// step for the trace fingerprint.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fingerprint content-hashes a trace. Cost is one multiply-xor chain
// per run — negligible next to a simulation, which walks every word.
func fingerprint(tr *memtrace.Trace) uint64 {
	h := mix64(uint64(len(tr.Runs))) ^ mix64(tr.Instrs)
	for _, r := range tr.Runs {
		h = mix64(h ^ (uint64(r.Addr)<<32 | uint64(r.Bytes)))
	}
	return h
}

// sweepObs holds pre-resolved instrument handles.
type sweepObs struct {
	reg          *obs.Registry
	simsRun      *obs.Counter
	simsMemoized *obs.Counter
	stackDerived *obs.Counter
	tracePasses  *obs.Counter
}

// Engine memoizes and schedules cache measurements. The zero value is
// not usable; use NewEngine. Engines are safe for concurrent use.
type Engine struct {
	mu   sync.Mutex
	memo map[simKey]cache.Stats
	obs  atomic.Pointer[sweepObs]
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{memo: make(map[simKey]cache.Stats)}
}

// AttachObs routes engine metrics to r (counters sweep.sims_run,
// sweep.sims_memoized, sweep.stack_pass_sizes, sweep.trace_passes and
// the sweep/batch span). Pass nil to detach.
func (e *Engine) AttachObs(r *obs.Registry) {
	if r == nil {
		e.obs.Store(nil)
		return
	}
	e.obs.Store(&sweepObs{
		reg:          r,
		simsRun:      r.Counter("sweep.sims_run"),
		simsMemoized: r.Counter("sweep.sims_memoized"),
		stackDerived: r.Counter("sweep.stack_pass_sizes"),
		tracePasses:  r.Counter("sweep.trace_passes"),
	})
}

// Simulate measures one (trace, organisation) pair through the memo:
// a lone request. The sections submit all their requests in one Batch
// (see measureSection).
func (e *Engine) Simulate(cfg cache.Config, tr *memtrace.Trace) (cache.Stats, error) {
	out, err := e.Batch([]SimRequest{{Trace: tr, Config: cfg}})
	if err != nil {
		return cache.Stats{}, err
	}
	return out[0], nil
}

// workUnit is one pass of a trace's plan: a stack pass deriving
// several organisations, the forest of its direct-mapped ones or the
// broadcast replay of the rest.
type workUnit struct {
	tr   *memtrace.Trace
	pass *sweep.Pass
}

// tracePlan is one trace's pending organisations and the plan that
// measures them, aligned with keys.
type tracePlan struct {
	tr   *memtrace.Trace
	keys []simKey
	plan *sweep.Plan
}

// Batch measures every request, deduplicating against the memo and
// within the batch, and returns results in request order.
func (e *Engine) Batch(reqs []SimRequest) ([]cache.Stats, error) {
	o := e.obs.Load()
	var sp *obs.Span
	if o != nil {
		sp = o.reg.Span("sweep/batch")
		sp.SetAttrInt("requests", int64(len(reqs)))
	}
	defer sp.End()

	out := make([]cache.Stats, len(reqs))
	keys := make([]simKey, len(reqs))
	fps := make(map[*memtrace.Trace]uint64)
	for i, rq := range reqs {
		if rq.Trace == nil {
			return nil, fmt.Errorf("experiments: sweep request %d has nil trace", i)
		}
		if err := rq.Config.Validate(); err != nil {
			return nil, err
		}
		fp, ok := fps[rq.Trace]
		if !ok {
			fp = fingerprint(rq.Trace)
			fps[rq.Trace] = fp
		}
		keys[i] = simKey{fp: fp, cfg: canonicalize(rq.Config)}
	}

	// Resolve memo hits and group the distinct keys still to run by
	// trace, in request order.
	var plans []*tracePlan
	byTrace := make(map[uint64]*tracePlan)
	pending := make(map[simKey]bool)
	var memoized, deduped uint64
	e.mu.Lock()
	for i, k := range keys {
		if st, ok := e.memo[k]; ok {
			out[i] = st
			memoized++
			continue
		}
		if pending[k] {
			deduped++
			continue
		}
		pending[k] = true
		tp := byTrace[k.fp]
		if tp == nil {
			tp = &tracePlan{tr: reqs[i].Trace}
			byTrace[k.fp] = tp
			plans = append(plans, tp)
		}
		tp.keys = append(tp.keys, k)
	}
	e.mu.Unlock()
	if o != nil {
		o.simsMemoized.Add(memoized + deduped)
		o.simsRun.Add(uint64(len(pending)))
		sp.SetAttrInt("memo_hits", int64(memoized+deduped))
		sp.SetAttrInt("sims", int64(len(pending)))
		if len(pending) == 0 {
			// A fully-memoized batch leaves no task span behind; the
			// instant event keeps the hit visible on the timeline.
			o.reg.Emit(0, "sweep/memo",
				obs.Attr{Key: "memo", Val: "hit"},
				obs.Int64Attr("requests", int64(len(reqs))))
		}
	}
	if len(pending) == 0 {
		return out, nil
	}

	units, err := plan(plans)
	if err != nil {
		return nil, err
	}
	runUnits(o, units)

	e.mu.Lock()
	defer e.mu.Unlock()
	for _, tp := range plans {
		for i, st := range tp.plan.Stats() {
			e.memo[tp.keys[i]] = st
		}
	}
	for i, k := range keys {
		out[i] = e.memo[k]
	}
	return out, nil
}

// plan asks the sweep planner how to measure each trace's pending
// organisations. Every pass of every plan is one work unit.
func plan(plans []*tracePlan) ([]workUnit, error) {
	var units []workUnit
	for _, tp := range plans {
		cfgs := make([]cache.Config, len(tp.keys))
		for i, k := range tp.keys {
			cfgs[i] = k.cfg.config()
		}
		p, err := sweep.NewPlan(cfgs...)
		if err != nil {
			return nil, err
		}
		tp.plan = p
		for _, pass := range p.Passes() {
			units = append(units, workUnit{tr: tp.tr, pass: pass})
		}
	}
	return units, nil
}

// runUnits replays each unit's trace into its pass on the worker pool
// (internal/pool), one worker per CPU. Each worker owns one timeline
// lane ("sweep-worker-N", stable across batches because tracer lanes
// dedupe by name), and every unit runs under a "sweep/task" span on
// that lane carrying its kind and size — the concurrency structure of
// a sweep is legible straight off the timeline.
func runUnits(o *sweepObs, units []workUnit) {
	workers := pool.Workers(0, len(units))
	var lanes []obs.Lane
	if o != nil {
		lanes = make([]obs.Lane, workers)
		for w := range lanes {
			lanes[w] = o.reg.NewLane(fmt.Sprintf("sweep-worker-%d", w))
		}
	}
	pool.Run(workers, len(units), func(w, i int) {
		u := units[i]
		if o == nil {
			u.tr.Replay(u.pass)
			return
		}
		sp := o.reg.SpanOn(lanes[w], "sweep/task")
		sp.SetAttr("kind", u.pass.Kind())
		if u.pass.Stack() {
			o.stackDerived.Add(uint64(u.pass.Orgs()))
		}
		sp.SetAttrInt("orgs", int64(u.pass.Orgs()))
		sp.SetAttrInt("trace_runs", int64(len(u.tr.Runs)))
		u.tr.Replay(u.pass)
		o.tracePasses.Inc()
		sp.End()
	})
}
