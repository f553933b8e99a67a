package experiments

import (
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/workload"
	"impact/internal/xrand"
)

func sweepTestTrace(seed uint64, runs int) *memtrace.Trace {
	rng := xrand.New(seed)
	tr := &memtrace.Trace{}
	hot := uint32(rng.Intn(1<<10)) * 4
	for i := 0; i < runs; i++ {
		if rng.Bool(0.7) {
			tr.Run(memtrace.Run{Addr: hot + uint32(rng.Intn(256))*4, Bytes: uint32(rng.IntRange(1, 32)) * 4})
		} else {
			tr.Run(memtrace.Run{Addr: uint32(rng.Intn(1<<13)) * 4, Bytes: uint32(rng.IntRange(1, 16)) * 4})
		}
	}
	return tr
}

// TestEngineBatchMatchesSimulate drives a mixed batch — stack-eligible
// sweeps, replay-only organisations, repeated requests, two traces —
// through a fresh engine and checks every result against sequential
// cache.Simulate.
func TestEngineBatchMatchesSimulate(t *testing.T) {
	e := NewEngine()
	tr1 := sweepTestTrace(1, 1500)
	tr2 := sweepTestTrace(2, 1500)
	var reqs []SimRequest
	for _, tr := range []*memtrace.Trace{tr1, tr2} {
		for _, size := range []int{512, 1024, 2048, 4096} {
			reqs = append(reqs,
				SimRequest{tr, cache.Config{SizeBytes: size, BlockBytes: 64, Assoc: 0}},
				SimRequest{tr, cache.Config{SizeBytes: size, BlockBytes: 64, Assoc: 1}})
		}
		reqs = append(reqs,
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 4}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, Replacement: cache.FIFO}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true}},
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &cache.TimingConfig{InitialLatency: 8}}},
			// duplicate of an earlier request
			SimRequest{tr, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}})
	}
	got, err := e.Batch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rq := range reqs {
		want, err := cache.Simulate(rq.Config, rq.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("req %d %v: batch %+v, sequential %+v", i, rq.Config, got[i], want)
		}
	}
}

// TestEngineMemoization checks the two dedup levels: within a batch
// and across batches, including content-identical but distinct trace
// values (the ablation re-run case) and canonically-equal configs
// (explicit full associativity vs Assoc 0).
func TestEngineMemoization(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.AttachObs(reg)
	tr := sweepTestTrace(3, 800)
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}

	if _, err := e.Batch([]SimRequest{{tr, cfg}, {tr, cfg}}); err != nil {
		t.Fatal(err)
	}
	if run, memo := reg.Counter("sweep.sims_run").Value(), reg.Counter("sweep.sims_memoized").Value(); run != 1 || memo != 1 {
		t.Errorf("after first batch: sims_run=%d sims_memoized=%d, want 1, 1", run, memo)
	}

	// A value-identical trace must hit the memo (content addressing).
	clone := &memtrace.Trace{Runs: append([]memtrace.Run(nil), tr.Runs...), Instrs: tr.Instrs}
	st, err := e.Simulate(cfg, clone)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cache.Simulate(cfg, tr)
	if st != want {
		t.Errorf("memoized result %+v, want %+v", st, want)
	}
	// Explicit full associativity and Assoc 0 are the same organisation.
	full := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 16}
	if _, err := e.Simulate(full, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Simulate(cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 0}, tr); err != nil {
		t.Fatal(err)
	}
	if run := reg.Counter("sweep.sims_run").Value(); run != 2 {
		t.Errorf("sims_run = %d, want 2 (memo must absorb clone + canonical aliases)", run)
	}
	if memo := reg.Counter("sweep.sims_memoized").Value(); memo != 3 {
		t.Errorf("sims_memoized = %d, want 3", memo)
	}
}

// TestEngineDirectMappedReplacementAliases pins that the canonical key
// ignores the replacement policy for single-way sets: a direct-mapped
// FIFO request is served from the LRU entry and vice versa.
func TestEngineDirectMappedReplacementAliases(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.AttachObs(reg)
	tr := sweepTestTrace(4, 500)
	for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.RandomRepl} {
		cfg := cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1, Replacement: repl}
		st, err := e.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cache.Simulate(cfg, tr)
		if st != want {
			t.Errorf("%v: %+v, want %+v", cfg, st, want)
		}
	}
	if run := reg.Counter("sweep.sims_run").Value(); run != 1 {
		t.Errorf("sims_run = %d, want 1", run)
	}
}

func TestEngineRejectsBadRequests(t *testing.T) {
	e := NewEngine()
	tr := sweepTestTrace(5, 10)
	if _, err := e.Batch([]SimRequest{{nil, cache.Config{SizeBytes: 512, BlockBytes: 32}}}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := e.Batch([]SimRequest{{tr, cache.Config{SizeBytes: 7}}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFingerprintDistinguishesTraces(t *testing.T) {
	a := sweepTestTrace(6, 300)
	b := sweepTestTrace(7, 300)
	if fingerprint(a) == fingerprint(b) {
		t.Error("distinct traces share a fingerprint")
	}
	clone := &memtrace.Trace{Runs: append([]memtrace.Run(nil), a.Runs...), Instrs: a.Instrs}
	if fingerprint(a) != fingerprint(clone) {
		t.Error("value-identical traces disagree")
	}
}

// TestEachSuiteMeasuresIntoItsOwnRegistry: every suite measures
// through its own engine, attached to its own registry. Preparing the
// same programs again, with or without a registry, neither moves an
// earlier suite's sweep counters nor serves the new suite from the
// earlier suite's memo.
func TestEachSuiteMeasuresIntoItsOwnRegistry(t *testing.T) {
	table6 := func(opts Options) {
		t.Helper()
		s, err := PrepareBenchmarksWith(workload.Suite(0.05)[:3], opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Table6(s); err != nil {
			t.Fatal(err)
		}
	}
	counter := func(r *obs.Registry, name string) uint64 { return r.Counter(name).Value() }
	sims := uint64(3 * len(Table6CacheSizes))

	a := obs.NewRegistry()
	table6(Options{Obs: a})
	run, memo := counter(a, "sweep.sims_run"), counter(a, "sweep.sims_memoized")
	if run != sims || memo != 0 {
		t.Fatalf("first suite: %d simulations run, %d memoized, want %d and 0", run, memo, sims)
	}

	table6(Options{})
	if got := counter(a, "sweep.sims_run"); got != run {
		t.Errorf("a suite without a registry moved the first suite's sweep.sims_run from %d to %d", run, got)
	}
	if got := counter(a, "sweep.sims_memoized"); got != memo {
		t.Errorf("a suite without a registry moved the first suite's sweep.sims_memoized from %d to %d", memo, got)
	}

	b := obs.NewRegistry()
	table6(Options{Obs: b})
	if got := counter(b, "sweep.sims_run"); got != sims {
		t.Errorf("third suite: %d simulations run, want %d", got, sims)
	}
	if got := counter(b, "sweep.sims_memoized"); got != 0 {
		t.Errorf("third suite: %d simulations served from another suite's memo", got)
	}
}
