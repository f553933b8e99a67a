package experiments

import (
	"testing"

	"impact/internal/cache"
	"impact/internal/cache/sweep"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/smith"
	"impact/internal/workload"
)

// TestEnginePassReuse pins that one stack pass serves a whole size
// sweep: sweeping several sizes of one stackable geometry costs
// exactly one trace pass, with results identical to sequential
// cache.Simulate.
func TestEnginePassReuse(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.AttachObs(reg)
	tr := sweepTestTrace(8, 1200)
	var reqs []SimRequest
	for _, size := range []int{512, 1024, 2048} {
		reqs = append(reqs, SimRequest{tr, cache.Config{SizeBytes: size, BlockBytes: 64, Assoc: 0}})
	}
	got, err := e.Batch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rq := range reqs {
		want, err := cache.Simulate(rq.Config, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%v: sweep %+v, sequential %+v", rq.Config, got[i], want)
		}
	}
	if passes := reg.Counter("sweep.trace_passes").Value(); passes != 1 {
		t.Errorf("size sweep cost %d trace passes, want 1", passes)
	}
	if derived := reg.Counter("sweep.stack_pass_sizes").Value(); derived != 3 {
		t.Errorf("stack_pass_sizes = %d, want 3", derived)
	}
}

// tableGeometries returns the deduplicated cache organisations Tables
// 1, 6, 7, and 8 measure, split by which trace each is replayed into:
// Table 1's fully associative design targets run over the natural
// layout, everything else over the optimized layout.
func tableGeometries() (nat, opt []cache.Config) {
	add := func(dst *[]cache.Config, seen map[canonConfig]bool, cfg cache.Config) {
		cc := canonicalize(cfg)
		if !seen[cc] {
			seen[cc] = true
			*dst = append(*dst, cfg)
		}
	}
	natSeen := make(map[canonConfig]bool)
	optSeen := make(map[canonConfig]bool)
	for _, cs := range smith.CacheSizes { // Table 1
		for _, bs := range smith.BlockSizes {
			add(&nat, natSeen, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 0})
			add(&opt, optSeen, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1})
		}
	}
	for _, cs := range Table6CacheSizes { // Table 6
		add(&opt, optSeen, cache.Config{SizeBytes: cs, BlockBytes: 64, Assoc: 1})
	}
	for _, bs := range Table7BlockSizes { // Table 7
		add(&opt, optSeen, cache.Config{SizeBytes: 2048, BlockBytes: bs, Assoc: 1})
	}
	add(&opt, optSeen, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8}) // Table 8
	add(&opt, optSeen, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true})
	return nat, opt
}

// TestTablesStreamDifferential is the workload-scale referee for the
// streaming pipeline: across every cache organisation Tables 1, 6, 7,
// and 8 measure, the streaming fan-out simulator and the end-to-end
// generate-and-simulate stream (no materialized trace anywhere) both
// reproduce sequential cache.Simulate bit for bit.
func TestTablesStreamDifferential(t *testing.T) {
	s, err := prepareBenchmarks(workload.Suite(0.05)[:3])
	if err != nil {
		t.Fatal(err)
	}
	natCfgs, optCfgs := tableGeometries()
	serial := func(tr *memtrace.Trace, cfgs []cache.Config) []cache.Stats {
		out := make([]cache.Stats, len(cfgs))
		for i, cfg := range cfgs {
			st, err := cache.Simulate(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = st
		}
		return out
	}
	for _, p := range s.Items {
		natWant := serial(p.NatTrace, natCfgs)
		optWant := serial(p.OptTrace, optCfgs)
		for _, side := range []struct {
			name string
			tr   *memtrace.Trace
			cfgs []cache.Config
			want []cache.Stats
		}{
			{"natural", p.NatTrace, natCfgs, natWant},
			{"optimized", p.OptTrace, optCfgs, optWant},
		} {
			// Streaming fan-out: one replay of the materialized trace
			// feeds every organisation at once.
			sim, err := cache.NewSinkSimulator(side.cfgs...)
			if err != nil {
				t.Fatal(err)
			}
			side.tr.Replay(sim)
			for i, st := range sim.Stats() {
				if st != side.want[i] {
					t.Errorf("%s/%s %v: streaming %+v, sequential %+v",
						p.Name(), side.name, side.cfgs[i], st, side.want[i])
				}
			}
		}
		// End-to-end streaming generation: re-run the natural-layout
		// evaluation input straight into the fan-out simulator AND a
		// sweep plan (one stack pass per block size), with no
		// materialized trace in between.
		lay := layout.Natural(p.Bench.Prog)
		sim, err := cache.NewSinkSimulator(natCfgs...)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sweep.NewPlan(natCfgs...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := layout.Stream(lay, p.Bench.EvalSeed, p.Bench.EvalConfig(), memtrace.Tee(sim, plan))
		if err != nil {
			t.Fatal(err)
		}
		_, natRun, err := layout.Trace(lay, p.Bench.EvalSeed, p.Bench.EvalConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res != natRun {
			t.Errorf("%s: streamed run %+v, traced run %+v", p.Name(), res, natRun)
		}
		for i, st := range sim.Stats() {
			if st != natWant[i] {
				t.Errorf("%s %v: generated stream %+v, materialized %+v",
					p.Name(), natCfgs[i], st, natWant[i])
			}
		}
		for i, st := range plan.Stats() {
			if st != natWant[i] {
				t.Errorf("%s %v: streamed plan %+v, sequential %+v",
					p.Name(), natCfgs[i], st, natWant[i])
			}
		}
	}
}
