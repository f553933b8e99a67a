package main

import (
	"fmt"
	"runtime"
	"time"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/cache/sweep"
	"impact/internal/core"
	"impact/internal/core/funclayout"
	"impact/internal/core/globallayout"
	"impact/internal/core/inline"
	"impact/internal/core/traceselect"
	"impact/internal/experiments"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/paging"
	"impact/internal/profile"
	"impact/internal/search"
)

// The layer probe times each layer's public entry points from outside,
// once per program of the traced round, on the workload's own inputs.
// The stack pass runs at 32 sets of 64-byte blocks; every other cache
// measurement at the design point, and the paging ones at 4KB pages
// in 8 frames.
var (
	probeStackBlock, probeStackSets = 64, 32
	probePaging                     = paging.Config{PageBytes: 4096, Frames: 8}
)

// probeSwaps is how many adjacent swaps of the global function order
// the incremental analyzer scores and reverts per program, as
// BenchmarkAnalyzeIncremental does.
const probeSwaps = 4

// layerTimes accumulates the probe's busy time and work per layer.
type layerTimes struct {
	profile, inline, traceselect, funclayout, globallayout, optimize, trace time.Duration
	profiled, traced                                                        uint64 // instructions
	sitesInlined                                                            int

	simulate, shardSimulate, stack, bandedStack, paging time.Duration
	simulated, stacked, paged                           uint64 // accesses

	full, pages, incremental time.Duration
	analyses, updates        int
	unclassified, lineRefs   uint64 // weighted NC and all line references
}

// probe runs the layer probe in the traced round r and returns the
// per-layer metrics it yields.
func probe(r *round) map[string]float64 {
	var lt layerTimes
	// The incremental analyzer's dirty-line counters, kept apart from
	// the round's registry so they count the probe's swaps alone.
	incReg := obs.NewRegistry()
	r.section("probe", func() error {
		for _, p := range r.suite.Items {
			lt.program(r, p, incReg)
		}
		return nil
	})
	c := incReg.Snapshot().Counters
	n := float64(lt.analyses)
	return map[string]float64{
		"profile.busy_s":       lt.profile.Seconds(),
		"profile.ns_per_instr": ratio(float64(lt.profile), float64(lt.profiled)),
		"inline.busy_s":        lt.inline.Seconds(),
		"inline.sites_inlined": float64(lt.sitesInlined),
		"traceselect.busy_s":   lt.traceselect.Seconds(),
		"funclayout.busy_s":    lt.funclayout.Seconds(),
		"globallayout.busy_s":  lt.globallayout.Seconds(),
		"core.optimize_s":      lt.optimize.Seconds(),
		"layout.trace_s":       lt.trace.Seconds(),
		"layout.ns_per_instr":  ratio(float64(lt.trace), float64(lt.traced)),
		"cache.ns_per_access":  ratio(float64(lt.simulate), float64(lt.simulated)),
		"cache.shard_speedup":  ratio(float64(lt.simulate), float64(lt.shardSimulate)),
		"sweep.ns_per_access":  ratio(float64(lt.stack), float64(lt.stacked)),
		"sweep.band_speedup":   ratio(float64(lt.stack), float64(lt.bandedStack)),
		"paging.ns_per_access": ratio(float64(lt.paging), float64(lt.paged)),
		"analysis.full_ms":     ratio(float64(lt.full)/1e6, n),
		"analysis.pages_ms":    ratio(float64(lt.pages)/1e6, n),
		"analysis.nc_frac":     ratio(float64(lt.unclassified), float64(lt.lineRefs)),
		"analysis.incr_us":     ratio(float64(lt.incremental)/1e3, float64(lt.updates)),
		"analysis.dirty_frac":  ratio(float64(c["analysis.incremental_dirty_lines"]), float64(c["analysis.incremental_total_lines"])),
	}
}

// timed is call with the call's duration added to *d.
func timed[T any](r *round, d *time.Duration, fn, program string, f func() (T, error)) (T, error) {
	start := time.Now()
	v, err := call(r, fn, program, f)
	*d += time.Since(start)
	return v, err
}

// timedRun is timed for calls that return nothing and cannot fail.
func timedRun(r *round, d *time.Duration, fn, program string, f func()) {
	_, _ = timed(r, d, fn, program, func() (struct{}, error) { f(); return struct{}{}, nil })
}

// program probes every layer on one prepared program, counting each
// call as an operation. A failed call skips the calls that need its
// result.
func (lt *layerTimes) program(r *round, p *experiments.Prepared, incReg *obs.Registry) {
	name, b := p.Name(), p.Bench
	nproc := runtime.GOMAXPROCS(0)
	check := func(fn string, err error) bool {
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return r.op("probe "+fn, err)
	}

	w, err := timed(r, &lt.profile, "profile.Profile", name, func() (*profile.Weights, error) {
		w, _, err := profile.Profile(b.Prog, profile.Config{Seeds: b.ProfileSeeds, Interp: b.InterpConfig()})
		return w, err
	})
	if check("profile.Profile", err) {
		lt.profiled += w.DynInstrs
		rep, err := timed(r, &lt.inline, "inline.Expand", name, func() (inline.Report, error) {
			_, rep, err := inline.Expand(b.Prog, w, inline.DefaultConfig())
			return rep, err
		})
		if check("inline.Expand", err) {
			lt.sitesInlined += rep.SitesInlined
		}
	}

	// Steps 3-5 on the prepared pipeline's inlined program and profile.
	prog, pw := p.Opt.Prog, p.Opt.Weights
	sels := make([]traceselect.Result, len(prog.Funcs))
	timedRun(r, &lt.traceselect, "traceselect.Select", name, func() {
		for _, f := range prog.Funcs {
			sels[f.ID] = traceselect.Select(f, &pw.Funcs[f.ID], traceselect.DefaultMinProb)
		}
	})
	timedRun(r, &lt.funclayout, "funclayout.Layout", name, func() {
		for _, f := range prog.Funcs {
			funclayout.Layout(f, &pw.Funcs[f.ID], &sels[f.ID])
		}
	})
	timedRun(r, &lt.globallayout, "globallayout.Layout", name, func() { globallayout.Layout(prog, pw) })

	_, err = timed(r, &lt.optimize, "core.Optimize", name, func() (*core.Result, error) {
		cfg := core.DefaultConfig(b.ProfileSeeds...)
		cfg.Interp = b.InterpConfig()
		return core.Optimize(b.Prog, cfg)
	})
	check("core.Optimize", err)
	tr, err := timed(r, &lt.trace, "layout.Trace", name, func() (*memtrace.Trace, error) {
		tr, _, err := layout.Trace(p.Opt.Layout, b.EvalSeed, b.EvalConfig())
		return tr, err
	})
	if check("layout.Trace", err) {
		lt.traced += tr.Instrs
	}

	// The simulators replay the prepared evaluation trace; the sharded
	// twins must agree with the serial passes exactly.
	st, err := timed(r, &lt.simulate, "cache.Simulate", name, func() (cache.Stats, error) {
		return cache.Simulate(design, p.OptTrace)
	})
	if check("cache.Simulate", err) {
		lt.simulated += st.Accesses
		sh, err := timed(r, &lt.shardSimulate, "cache.ShardSimulate", name, func() (cache.Stats, error) {
			return cache.ShardSimulate(design, p.OptTrace, nproc)
		})
		if err == nil && sh != st {
			err = fmt.Errorf("sharded %+v, serial %+v", sh, st)
		}
		check("cache.ShardSimulate", err)
	}
	stackGeom := cache.Config{SizeBytes: probeStackBlock * probeStackSets * 16, BlockBytes: probeStackBlock, Assoc: 16}
	pass, err := timed(r, &lt.stack, "sweep.Run", name, func() (*sweep.StackPass, error) {
		return sweep.Run(p.OptTrace, probeStackBlock, probeStackSets)
	})
	if check("sweep.Run", err) {
		lt.stacked += pass.Accesses()
		band, err := timed(r, &lt.bandedStack, "sweep.ShardRun", name, func() (*sweep.StackPass, error) {
			return sweep.ShardRun(p.OptTrace, probeStackBlock, probeStackSets, nproc, nil)
		})
		if err == nil {
			err = samePass(pass, band, stackGeom)
		}
		check("sweep.ShardRun", err)
	}
	ps, err := timed(r, &lt.paging, "paging.Simulate", name, func() (paging.Stats, error) {
		return paging.Simulate(probePaging, p.OptTrace)
	})
	if check("paging.Simulate", err) {
		lt.paged += ps.Accesses
	}

	ew, err := call(r, "experiments.Prepared.EvalWeights", name, p.EvalWeights)
	if !check("EvalWeights", err) {
		return
	}
	res, err := timed(r, &lt.full, "analysis.Analyze", name, func() (*analysis.Result, error) {
		return analysis.Analyze(p.Opt.Layout, ew, analysis.Config{Cache: design})
	})
	if check("analysis.Analyze", err) {
		lt.analyses++
		lt.unclassified += res.Bounds.RefWeight[analysis.ClassUnclassified]
		lt.lineRefs += res.Bounds.WeightedLineRefs
	}
	_, err = timed(r, &lt.pages, "analysis.AnalyzePages", name, func() (*analysis.PageResult, error) {
		return analysis.AnalyzePages(p.Opt.Layout, ew, analysis.PageConfig{Paging: probePaging})
	})
	check("analysis.AnalyzePages", err)
	lt.swaps(r, p, ew, incReg, check)
}

// swaps scores and reverts adjacent swaps of the global function order
// with one incremental analyzer, the search's propose/score/reject
// cycle.
func (lt *layerTimes) swaps(r *round, p *experiments.Prepared, ew *profile.Weights, incReg *obs.Registry, check func(string, error) bool) {
	name := p.Name()
	inc, err := call(r, "analysis.NewIncremental", name, func() (*analysis.Incremental, error) {
		return analysis.NewIncremental(p.Opt.Layout, ew, analysis.Config{Cache: design, Obs: incReg})
	})
	if !check("analysis.NewIncremental", err) {
		return
	}
	funcs := p.Opt.GlobalOrder.Funcs
	for k := 0; k < probeSwaps && k+1 < len(funcs); k++ {
		g := globallayout.Order{Funcs: append([]ir.FuncID(nil), funcs...)}
		g.Funcs[k], g.Funcs[k+1] = g.Funcs[k+1], g.Funcs[k]
		lay, err := call(r, "search.Compose", name, func() (*layout.Layout, error) {
			return search.Compose(p.Opt.Prog, p.Opt.Orders, g, true)
		})
		if !check("search.Compose", err) {
			continue
		}
		_, err = timed(r, &lt.incremental, "analysis.Incremental.Update", name, func() (*analysis.Result, error) {
			res, err := inc.Update(lay)
			if err != nil {
				return nil, err
			}
			return res, inc.Revert()
		})
		if check("analysis.Incremental.Update", err) {
			lt.updates++
		}
	}
}

// samePass checks that two stack passes derive the same statistics at
// every power-of-two associativity up to geom's.
func samePass(a, b *sweep.StackPass, geom cache.Config) error {
	for assoc := 1; assoc <= geom.Assoc; assoc *= 2 {
		cfg := geom
		cfg.Assoc = assoc
		cfg.SizeBytes = geom.BlockBytes * probeStackSets * assoc
		sa, errA := a.Stats(cfg)
		sb, errB := b.Stats(cfg)
		if errA != nil || errB != nil {
			return fmt.Errorf("stack pass stats: %v, %v", errA, errB)
		}
		if sa != sb {
			return fmt.Errorf("banded %+v, serial %+v at %s", sb, sa, cfg)
		}
	}
	return nil
}
