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

// TestEnginePassReuse pins the retained-stack-pass memo level: sweeping
// several sizes of one stackable geometry costs exactly one trace pass,
// and a later request for a NEW size of that geometry is derived
// arithmetically from the retained pass — zero further passes, counted
// on sweep.stack_pass_reused — with results identical to sequential
// cache.Simulate.
func TestEnginePassReuse(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.AttachObs(reg)
	tr := sweepTestTrace(8, 1200)
	template := cache.Config{BlockBytes: 64, Assoc: 0}
	sizes := []int{512, 1024, 2048}

	got, err := e.SweepSizes(tr, template, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range sizes {
		cfg := template
		cfg.SizeBytes = size
		want, err := cache.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("size %d: sweep %+v, sequential %+v", size, got[i], want)
		}
	}
	if passes := reg.Counter("sweep.trace_passes").Value(); passes != 1 {
		t.Fatalf("size sweep cost %d trace passes, want 1", passes)
	}

	// A size the sweep never requested: no memo entry, but the retained
	// pass covers its geometry.
	cfg := template
	cfg.SizeBytes = 4096
	st, err := e.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cache.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Errorf("pass-derived result %+v, sequential %+v", st, want)
	}
	if passes := reg.Counter("sweep.trace_passes").Value(); passes != 1 {
		t.Errorf("new size of a swept geometry cost a trace pass (%d total, want 1)", passes)
	}
	if reused := reg.Counter("sweep.stack_pass_reused").Value(); reused != 1 {
		t.Errorf("stack_pass_reused = %d, want 1", reused)
	}
	if run := reg.Counter("sweep.sims_run").Value(); run != 3 {
		t.Errorf("sims_run = %d, want 3 (pass reuse must not count as a run)", run)
	}

	// Asking again is a plain memo hit, not a second derivation.
	if _, err := e.Simulate(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if reused := reg.Counter("sweep.stack_pass_reused").Value(); reused != 1 {
		t.Errorf("repeat request re-derived from the pass (reused=%d, want 1)", reused)
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
	s, err := PrepareBenchmarks(workload.Suite(0.05)[:3])
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
		// streaming stack pass, with no materialized trace in between.
		lay := layout.Natural(p.Bench.Prog)
		sim, err := cache.NewSinkSimulator(natCfgs...)
		if err != nil {
			t.Fatal(err)
		}
		z, err := sweep.NewStream(64, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := layout.Stream(lay, p.Bench.EvalSeed, p.Bench.EvalConfig(), memtrace.Tee(sim, z))
		if err != nil {
			t.Fatal(err)
		}
		if res != p.NatRun {
			t.Errorf("%s: streamed run %+v, prepared run %+v", p.Name(), res, p.NatRun)
		}
		for i, st := range sim.Stats() {
			if st != natWant[i] {
				t.Errorf("%s %v: generated stream %+v, materialized %+v",
					p.Name(), natCfgs[i], st, natWant[i])
			}
		}
		pass := z.Pass()
		for i, cfg := range natCfgs {
			if cfg.BlockBytes != 64 || cfg.Assoc != 0 {
				continue
			}
			st, err := pass.Stats(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st != natWant[i] {
				t.Errorf("%s %v: streamed stack pass %+v, sequential %+v",
					p.Name(), cfg, st, natWant[i])
			}
		}
	}
}
