package search_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/core"
	"impact/internal/core/globallayout"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/paging"
	"impact/internal/profile"
	"impact/internal/search"
	"impact/internal/workload"
)

// prepared runs the greedy pipeline on a synthetic workload and
// returns the state the search stage starts from.
func prepared(t *testing.T, seed uint64) (*core.Result, search.Input) {
	t.Helper()
	b, err := workload.Build(workload.Params{
		Name: "search", InputDesc: "search", Seed: seed,
		Phases: 2, WorkersPerPhase: [2]int{2, 3},
		WorkerSegments: [2]int{1, 3}, BlockInstrs: [2]int{1, 8},
		Utilities: 3, UtilInstrs: [2]int{2, 6},
		ColdFuncs: 2, ColdFuncInstrs: [2]int{2, 8},
		WorkerLoopTrips: 6, CallFrac: 0.5, DiamondFrac: 0.5, BranchBias: 0.8,
		ColdEscapeFrac: 0.3, ColdEscapeProb: 0.02,
		PhaseTrips: 2, TargetInstrs: 9000, ProfileRuns: 1,
	})
	if err != nil {
		t.Fatalf("workload.Build: %v", err)
	}
	cfg := core.DefaultConfig(seed + 7)
	cfg.Interp = interp.Config{MaxSteps: 1 << 19}
	res, err := core.Optimize(b.Prog, cfg)
	if err != nil {
		t.Fatalf("core.Optimize: %v", err)
	}
	in := search.Input{
		Prog: res.Prog, Weights: res.Weights,
		Orders: res.Orders, Global: res.GlobalOrder,
		SplitCold: cfg.Strategy.SplitCold,
	}
	return res, in
}

var tightGeom = cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1}

// TestComposeMatchesPipeline: composing the pipeline's own orders must
// reproduce the pipeline's layout address for address.
func TestComposeMatchesPipeline(t *testing.T) {
	res, in := prepared(t, 11)
	lay, err := search.Compose(in.Prog, in.Orders, in.Global, in.SplitCold)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	if lay.Total != res.Layout.Total {
		t.Fatalf("Total %d != pipeline %d", lay.Total, res.Layout.Total)
	}
	for _, f := range in.Prog.Funcs {
		for _, blk := range f.Blocks {
			got := lay.BlockAddr(f.ID, blk.ID)
			want := res.Layout.BlockAddr(f.ID, blk.ID)
			if got != want {
				t.Fatalf("func %d block %d: addr %#x != pipeline %#x", f.ID, blk.ID, got, want)
			}
		}
	}
}

// TestOptimizeDeterministic: the search is a pure function of its
// inputs and seed.
func TestOptimizeDeterministic(t *testing.T) {
	_, in := prepared(t, 3)
	cfg := search.Config{Cache: tightGeom, Seed: 42, Budget: 48}
	a, err := search.Optimize(in, cfg)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	b, err := search.Optimize(in, cfg)
	if err != nil {
		t.Fatalf("Optimize (repeat): %v", err)
	}
	if !reflect.DeepEqual(a.Order, b.Order) {
		t.Fatalf("same seed, different orders:\n a=%v\n b=%v", a.Order.Funcs, b.Order.Funcs)
	}
	if a.Evals != b.Evals || a.Accepted != b.Accepted || a.Improved != b.Improved {
		t.Fatalf("same seed, different trajectories: %+v vs %+v", a, b)
	}
	if a.Analysis.Bounds != b.Analysis.Bounds {
		t.Fatalf("same seed, different bounds")
	}
}

// TestOptimizeNeverWorse: whatever the walk does, the emitted order
// must not lose to the input order on the objective, and its reported
// analysis must be exactly the from-scratch analysis of the emitted
// layout (the incremental scorer is bit-identical).
func TestOptimizeNeverWorse(t *testing.T) {
	for _, seed := range []uint64{3, 11, 19} {
		_, in := prepared(t, seed)
		res, err := search.Optimize(in, search.Config{Cache: tightGeom, Seed: 1, Budget: 64})
		if err != nil {
			t.Fatalf("seed %d: Optimize: %v", seed, err)
		}
		if res.Analysis.Bounds.Upper > res.Initial.Bounds.Upper {
			t.Errorf("seed %d: emitted Upper %d worse than initial %d",
				seed, res.Analysis.Bounds.Upper, res.Initial.Bounds.Upper)
		}
		if res.Improved && !(res.Analysis.Bounds.Upper < res.Initial.Bounds.Upper ||
			res.Analysis.Conflicts.TotalExcess < res.Initial.Conflicts.TotalExcess ||
			res.Analysis.Score.ExtTSP > res.Initial.Score.ExtTSP) {
			t.Errorf("seed %d: Improved but no objective component improved", seed)
		}

		full, err := analysis.Analyze(res.Layout, in.Weights, analysis.Config{Cache: tightGeom})
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		got, want := *res.Analysis, *full
		got.Iterations, want.Iterations = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: search's analysis differs from from-scratch analysis of its layout", seed)
		}
	}
}

// TestOptimizeCheckpoints: the ground-truth callback fires once per
// CheckpointEvery accepted moves, in eval order, with the incumbent
// layout.
func TestOptimizeCheckpoints(t *testing.T) {
	_, in := prepared(t, 3)
	calls := 0
	res, err := search.Optimize(in, search.Config{
		Cache: tightGeom, Seed: 5, Budget: 64, CheckpointEvery: 1,
		Checkpoint: func(lay *layout.Layout) (uint64, error) {
			calls++
			if lay == nil {
				t.Fatal("checkpoint with nil layout")
			}
			return uint64(calls), nil
		},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if calls != res.Accepted {
		t.Fatalf("checkpoint calls %d != accepted moves %d", calls, res.Accepted)
	}
	if len(res.Checkpoints) != calls {
		t.Fatalf("recorded %d checkpoints, callback ran %d times", len(res.Checkpoints), calls)
	}
	for i := 1; i < len(res.Checkpoints); i++ {
		if res.Checkpoints[i].Eval <= res.Checkpoints[i-1].Eval {
			t.Fatalf("checkpoints out of eval order: %+v", res.Checkpoints)
		}
	}
}

// TestSearchStage: the pipeline's fifth stage runs under strict
// verification — every emitted layout passes the same funclayout and
// globallayout analyzers as the greedy layout.
func TestSearchStage(t *testing.T) {
	b, err := workload.Build(workload.Params{
		Name: "stage", InputDesc: "stage", Seed: 9,
		Phases: 2, WorkersPerPhase: [2]int{2, 3},
		WorkerSegments: [2]int{1, 3}, BlockInstrs: [2]int{1, 8},
		Utilities: 3, UtilInstrs: [2]int{2, 6},
		ColdFuncs: 2, ColdFuncInstrs: [2]int{2, 8},
		WorkerLoopTrips: 6, CallFrac: 0.5, DiamondFrac: 0.5, BranchBias: 0.8,
		ColdEscapeFrac: 0.3, ColdEscapeProb: 0.02,
		PhaseTrips: 2, TargetInstrs: 9000, ProfileRuns: 1,
	})
	if err != nil {
		t.Fatalf("workload.Build: %v", err)
	}
	cfg := core.DefaultConfig(16)
	cfg.Interp = interp.Config{MaxSteps: 1 << 19}
	cfg.Check = check.Strict
	cfg.Search = &search.Config{Cache: tightGeom, Seed: 2, Budget: 48}
	res, err := core.Optimize(b.Prog, cfg)
	if err != nil {
		t.Fatalf("core.Optimize with search: %v", err)
	}
	if res.Search == nil {
		t.Fatal("no search result recorded")
	}
	if res.Search.Improved {
		if res.Layout != res.Search.Layout {
			t.Fatal("Improved search did not replace the pipeline layout")
		}
		if !reflect.DeepEqual(res.GlobalOrder, res.Search.Order) {
			t.Fatal("Improved search did not replace the global order")
		}
	} else if res.Search.Initial.Bounds.Upper != res.Search.Analysis.Bounds.Upper {
		t.Fatal("unimproved search changed the reported bounds")
	}
	// The searched layout still profiles/executes correctly.
	w, _, err := profile.Profile(res.Prog, profile.Config{Seeds: []uint64{99}, Interp: cfg.Interp})
	if err != nil {
		t.Fatalf("profiling searched program: %v", err)
	}
	if w.DynInstrs == 0 {
		t.Fatal("searched program executed nothing")
	}
}

// pureCheckpoint is a ground-truth callback whose value depends only
// on the layout it is handed — never on call order — so serial and
// portfolio runs must record identical Checkpoints.
func pureCheckpoint(lay *layout.Layout) (uint64, error) {
	return uint64(lay.Total), nil
}

// TestOptimizeWorkersBitIdentical: the portfolio reduction makes the
// worker count invisible — every Workers value yields the serial
// result bit for bit: same order, same layout, same eval/accept
// accounting, same checkpoints, same analysis (modulo the fixpoint
// iteration diagnostic, which is path-dependent by design).
func TestOptimizeWorkersBitIdentical(t *testing.T) {
	_, in := prepared(t, 11)
	base := search.Config{
		Cache: tightGeom, Seed: 7, Budget: 60, Restarts: 4,
		CheckpointEvery: 2, Checkpoint: pureCheckpoint,
	}
	serial := base
	serial.Workers = 1
	want, err := search.Optimize(in, serial)
	if err != nil {
		t.Fatalf("Optimize(workers=1): %v", err)
	}
	for _, w := range []int{2, 3, 5, 8} { // 8 > climbs exercises the cap
		cfg := base
		cfg.Workers = w
		got, err := search.Optimize(in, cfg)
		if err != nil {
			t.Fatalf("Optimize(workers=%d): %v", w, err)
		}
		if !reflect.DeepEqual(want.Order, got.Order) {
			t.Fatalf("workers=%d picked a different order:\n serial=%v\n got=%v", w, want.Order.Funcs, got.Order.Funcs)
		}
		if !reflect.DeepEqual(want.Layout, got.Layout) {
			t.Fatalf("workers=%d produced a different layout", w)
		}
		if want.Evals != got.Evals || want.Accepted != got.Accepted ||
			want.Restarts != got.Restarts || want.Improved != got.Improved {
			t.Fatalf("workers=%d trajectory differs: serial {E:%d A:%d R:%d I:%v} vs {E:%d A:%d R:%d I:%v}",
				w, want.Evals, want.Accepted, want.Restarts, want.Improved,
				got.Evals, got.Accepted, got.Restarts, got.Improved)
		}
		if !reflect.DeepEqual(want.Checkpoints, got.Checkpoints) {
			t.Fatalf("workers=%d checkpoints differ:\n serial=%+v\n got=%+v", w, want.Checkpoints, got.Checkpoints)
		}
		ga, wa := *got.Analysis, *want.Analysis
		ga.Iterations, wa.Iterations = 0, 0
		if !reflect.DeepEqual(ga, wa) {
			t.Fatalf("workers=%d analysis differs from serial", w)
		}
	}
}

// TestOptimizeParallelStress runs several portfolio searches
// concurrently; its value is under `go test -race`, pinning the worker
// pool's memory discipline (cloned engines, serialized checkpoints).
func TestOptimizeParallelStress(t *testing.T) {
	_, in := prepared(t, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := search.Optimize(in, search.Config{
				Cache: tightGeom, Seed: uint64(i), Budget: 24, Restarts: 3,
				Workers: 2 + i, CheckpointEvery: 1, Checkpoint: pureCheckpoint,
			})
			if err != nil {
				t.Errorf("Optimize: %v", err)
				return
			}
			if res.Evals == 0 {
				t.Error("portfolio search evaluated nothing")
			}
		}(i)
	}
	wg.Wait()
}

// FuzzSearchWorkers varies seed, budget, restart and worker counts
// against the serial referee: any (budget, restarts) split must make
// the worker count invisible in the result.
func FuzzSearchWorkers(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(2), uint8(3))
	f.Add(uint64(9), uint8(40), uint8(4), uint8(6))
	var (
		once sync.Once
		in   search.Input
	)
	f.Fuzz(func(t *testing.T, seed uint64, budget, restarts, workers uint8) {
		once.Do(func() { _, in = prepared(t, 3) })
		if in.Prog == nil {
			t.Skip("workload preparation failed")
		}
		base := search.Config{
			Cache: tightGeom, Seed: seed,
			Budget:   int(budget%48) + 2,
			Restarts: int(restarts % 5),
		}
		serial := base
		serial.Workers = 1
		want, err := search.Optimize(in, serial)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Workers = int(workers%7) + 2
		got, err := search.Optimize(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Order, got.Order) ||
			want.Evals != got.Evals || want.Accepted != got.Accepted ||
			want.Improved != got.Improved {
			t.Fatalf("workers=%d diverged from serial (seed %d budget %d restarts %d)",
				cfg.Workers, seed, base.Budget, base.Restarts)
		}
	})
}

// TestOptimizePagingObjective: with Config.Paging set the search adds
// the page-fault upper bound as a tie-break below the cache objective:
// the cache-miss objective can never regress, the page bounds of the
// input and final layouts are reported, and the worker count stays
// invisible in the result.
func TestOptimizePagingObjective(t *testing.T) {
	_, in := prepared(t, 5)
	pcfg := paging.Config{PageBytes: 4096, Frames: 8}
	cfg := search.Config{
		Cache: tightGeom, Paging: &pcfg, Seed: 7, Budget: 60, Restarts: 4, Workers: 1,
	}
	res, err := search.Optimize(in, cfg)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Pages == nil || res.InitialPages == nil {
		t.Fatalf("paging objective reported no page bounds: %+v", res)
	}
	if res.Analysis.Bounds.Upper > res.Initial.Bounds.Upper {
		t.Fatalf("cache objective regressed: %d > %d", res.Analysis.Bounds.Upper, res.Initial.Bounds.Upper)
	}
	if res.Analysis.Bounds.Upper == res.Initial.Bounds.Upper && res.Pages.Upper > res.InitialPages.Upper {
		t.Fatalf("page objective regressed on a cache plateau: %d > %d", res.Pages.Upper, res.InitialPages.Upper)
	}
	// The reported page bounds must be exactly what a fresh analysis
	// of the final layout computes.
	fresh, err := analysis.AnalyzePages(res.Layout, in.Weights, analysis.PageConfig{Paging: pcfg})
	if err != nil {
		t.Fatalf("AnalyzePages: %v", err)
	}
	if *res.Pages != fresh.Bounds {
		t.Fatalf("reported page bounds %+v != fresh analysis %+v", *res.Pages, fresh.Bounds)
	}

	for _, w := range []int{2, 4} {
		pcfg := cfg
		pcfg.Workers = w
		got, err := search.Optimize(in, pcfg)
		if err != nil {
			t.Fatalf("Optimize(workers=%d): %v", w, err)
		}
		if !reflect.DeepEqual(res.Order, got.Order) || *got.Pages != *res.Pages {
			t.Fatalf("workers=%d changed the paging-objective result", w)
		}
	}

	// Without Config.Paging no page bounds are computed.
	plain, err := search.Optimize(in, search.Config{Cache: tightGeom, Seed: 7, Budget: 12, Workers: 1})
	if err != nil {
		t.Fatalf("Optimize(plain): %v", err)
	}
	if plain.Pages != nil || plain.InitialPages != nil {
		t.Fatalf("cache-only search reported page bounds")
	}
	if plain.PageRefined != nil {
		t.Fatalf("cache-only search emitted a page-refined variant")
	}
}

// TestPageRefine: the page-refinement phase is deterministic, never
// fires when disabled, and any variant it emits has a strictly lower
// static page-fault bound than the winner, a cache bound within the
// refinement cap, and bounds that match a from-scratch analysis of
// its layout. Evaluating under weights from a run the training
// profile never saw gives the refiner the train-hot/eval-cold holes
// it relocates.
func TestPageRefine(t *testing.T) {
	res, in := prepared(t, 5)
	ew, _, err := profile.Profile(res.Prog, profile.Config{
		Seeds: []uint64{777}, Interp: interp.Config{MaxSteps: 1 << 19},
	})
	if err != nil {
		t.Fatalf("profiling eval run: %v", err)
	}
	in.Weights = ew
	pcfg := paging.Config{PageBytes: 1024, Frames: 4}
	cfg := search.Config{Cache: tightGeom, Paging: &pcfg, Seed: 3, Budget: 96, Workers: 1}
	a, err := search.Optimize(in, cfg)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	b, err := search.Optimize(in, cfg)
	if err != nil {
		t.Fatalf("Optimize (repeat): %v", err)
	}
	if !reflect.DeepEqual(a.Order, b.Order) {
		t.Fatalf("same seed, different orders")
	}
	if (a.PageRefined == nil) != (b.PageRefined == nil) {
		t.Fatalf("same seed, refinement fired on one run only")
	}
	if a.PageRefined != nil && !reflect.DeepEqual(a.PageRefined.Order, b.PageRefined.Order) {
		t.Fatalf("same seed, different refined orders")
	}

	if ref := a.PageRefined; ref != nil {
		if ref.Pages.Upper >= a.Pages.Upper {
			t.Fatalf("refined page upper %d not below winner's %d", ref.Pages.Upper, a.Pages.Upper)
		}
		base := a.Initial.Bounds.Upper
		if a.Analysis.Bounds.Upper > base {
			base = a.Analysis.Bounds.Upper
		}
		if cap := base + base/20; ref.Analysis.Bounds.Upper > cap {
			t.Fatalf("refined cache upper %d above the refinement cap %d", ref.Analysis.Bounds.Upper, cap)
		}
		freshP, err := analysis.AnalyzePages(ref.Layout, in.Weights, analysis.PageConfig{Paging: pcfg})
		if err != nil {
			t.Fatalf("AnalyzePages(refined): %v", err)
		}
		if ref.Pages != freshP.Bounds {
			t.Fatalf("refined page bounds %+v != fresh analysis %+v", ref.Pages, freshP.Bounds)
		}
		freshC, err := analysis.Analyze(ref.Layout, in.Weights, analysis.Config{Cache: tightGeom})
		if err != nil {
			t.Fatalf("Analyze(refined): %v", err)
		}
		if ref.Analysis.Bounds != freshC.Bounds {
			t.Fatalf("refined cache bounds %+v != fresh analysis %+v", ref.Analysis.Bounds, freshC.Bounds)
		}
	} else {
		// This workload/geometry is a regression anchor: the eval run
		// skips enough train-hot code that the cold-sink macro frees a
		// page — if that stops happening, the refiner broke.
		t.Fatal("refinement found nothing on this workload")
	}

	// A negative PageBudget disables the phase outright.
	off := cfg
	off.PageBudget = -1
	c, err := search.Optimize(in, off)
	if err != nil {
		t.Fatalf("Optimize(PageBudget=-1): %v", err)
	}
	if c.PageRefined != nil {
		t.Fatalf("PageBudget=-1 still emitted a refined variant")
	}
}

// TestOptimizeRejectsBadInput has one row per input rejection of
// Optimize — a nil program or nil weights, a block-order count that
// does not match the program, and a global order that is not a
// permutation of its functions — plus the analyzer's rejection of an
// unsupported cache, and a valid row.
func TestOptimizeRejectsBadInput(t *testing.T) {
	_, in := prepared(t, 3)
	n := len(in.Prog.Funcs)
	funcs := func(edit func([]ir.FuncID) []ir.FuncID) globallayout.Order {
		return globallayout.Order{Funcs: edit(append([]ir.FuncID(nil), in.Global.Funcs...))}
	}
	tests := []struct {
		name    string
		edit    func(*search.Input)
		cache   cache.Config
		wantErr string // "" means the search runs
	}{
		{"nil program", func(in *search.Input) { in.Prog = nil }, tightGeom, "search: nil program or weights"},
		{"nil weights", func(in *search.Input) { in.Weights = nil }, tightGeom, "search: nil program or weights"},
		{"missing block order", func(in *search.Input) { in.Orders = in.Orders[:n-1] }, tightGeom,
			"block orders for"},
		{"extra block order", func(in *search.Input) { in.Orders = append(in.Orders[:n:n], in.Orders[0]) }, tightGeom,
			"block orders for"},
		{"function missing from the global order", func(in *search.Input) {
			in.Global = funcs(func(f []ir.FuncID) []ir.FuncID { return f[:n-1] })
		}, tightGeom, "global order is not a permutation"},
		{"function placed twice", func(in *search.Input) {
			in.Global = funcs(func(f []ir.FuncID) []ir.FuncID { f[1] = f[0]; return f })
		}, tightGeom, "global order is not a permutation"},
		{"function out of range", func(in *search.Input) {
			in.Global = funcs(func(f []ir.FuncID) []ir.FuncID { f[0] = ir.FuncID(n + 5); return f })
		}, tightGeom, "global order is not a permutation"},
		{"cache outside the abstract model", func(*search.Input) {},
			cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 2, Replacement: cache.FIFO}, "search: analysing input order"},
		{"greedy input", func(*search.Input) {}, tightGeom, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := in
			tt.edit(&bad)
			res, err := search.Optimize(bad, search.Config{Cache: tt.cache, Seed: 1, Budget: 8, Restarts: 1})
			if tt.wantErr == "" {
				if err != nil || res == nil {
					t.Fatalf("Optimize = %v; want a result", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) || res != nil {
				t.Errorf("Optimize = %v, want an error containing %q", err, tt.wantErr)
			}
		})
	}
}
