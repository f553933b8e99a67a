package analysis

import (
	"testing"

	"impact/internal/cache"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/profile"
	"impact/internal/workload"
)

// noScopes returns an empty scope partition: the classifier degrades to
// global persistence only, which is what the tightening tests compare
// against.
func noScopes(sg *supergraph) *sccInfo {
	sc := &sccInfo{scope: make([]int32, len(sg.regions))}
	for i := range sc.scope {
		sc.scope[i] = -1
	}
	return sc
}

// analyzeBoth classifies one converged fixpoint twice — with and
// without persistence scopes — and returns (scoped, legacy).
func analyzeBoth(t *testing.T, lay *layout.Layout, w *profile.Weights, cfg cache.Config) (Bounds, Bounds) {
	t.Helper()
	inc, err := NewIncremental(lay, w, Config{Cache: cfg})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	scoped := inc.Result().Bounds
	inc.sc = noScopes(inc.sg)
	inc.lin = inc.buildLinear(lay)
	return scoped, inc.assemble(lay, nil).Bounds
}

// buildPhasedProgram returns a program whose hot loop fits the cache
// by itself but shares every direct-mapped set with a once-executed
// straight-line phase larger than the cache — the shape global
// persistence cannot tighten (the loop's sets overflow program-wide)
// but scope persistence can (the loop evicts nothing while it spins).
func buildPhasedProgram(t *testing.T) (*ir.Program, *profile.Weights) {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 6)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	entry := main.NewBlock()
	loop := main.NewBlock()
	phase := main.NewBlock()
	exit := main.NewBlock()
	main.Fill(entry, 2)
	main.Jump(entry, loop)
	main.Fill(loop, 20)
	main.Call(loop, leaf.ID())
	main.Branch(loop, ir.Arc{To: loop, Prob: 0.97}, ir.Arc{To: phase, Prob: 0.03})
	// The phase covers every set of a 512-byte cache at least once.
	main.Fill(phase, 512/int(ir.InstrBytes)+8)
	main.Jump(phase, exit)
	main.Fill(exit, 1)
	main.Ret(exit)
	pb.SetEntry(main.ID())
	p := pb.Build()
	w := profileOne(t, p, 21)
	return p, w
}

func TestScopePersistenceTightensPhasedLoop(t *testing.T) {
	p, w := buildPhasedProgram(t)
	lay := layout.Natural(p)
	cfg := cache.Config{SizeBytes: 512, BlockBytes: 64, Assoc: 1}

	scoped, legacy := analyzeBoth(t, lay, w, cfg)
	if scoped.Scopes == 0 {
		t.Fatalf("Scopes = 0, want the loop SCC recognised")
	}
	if scoped.ScopePools == 0 {
		t.Fatalf("ScopePools = 0, want the loop's lines pooled under the scope entry bound")
	}
	if scoped.Upper >= legacy.Upper {
		t.Fatalf("scoped Upper = %d, want < legacy Upper %d (loop misses capped at scope entries)",
			scoped.Upper, legacy.Upper)
	}
	if scoped.Lower != legacy.Lower {
		t.Fatalf("scope persistence changed Lower: %d != %d", scoped.Lower, legacy.Lower)
	}
	if scoped.Refs[ClassFirstMiss] <= legacy.Refs[ClassFirstMiss] {
		t.Fatalf("first-miss refs %d, want > legacy %d", scoped.Refs[ClassFirstMiss], legacy.Refs[ClassFirstMiss])
	}

	// The bracket must survive the tightening: simulate the profiled run.
	res := mustAnalyze(t, lay, w, Config{Cache: cfg})
	tr, run, err := layout.Trace(lay, 21, interp.Config{})
	if err != nil || !run.Completed {
		t.Fatalf("trace: %v completed=%v", err, run.Completed)
	}
	st, err := cache.Simulate(cfg, tr)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if st.Misses < res.Bounds.Lower || st.Misses > res.Bounds.Upper {
		t.Fatalf("measured %d outside tightened [%d, %d]", st.Misses, res.Bounds.Lower, res.Bounds.Upper)
	}
}

// TestScopeUpperNeverExceedsLegacy: across generated workloads,
// layouts, and geometries, the scope-tightened upper bound can only
// improve on the global-persistence-only bound, never regress it.
func TestScopeUpperNeverExceedsLegacy(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5, 9} {
		b, err := workload.Build(workload.Params{
			Name: "persist", InputDesc: "persist", Seed: seed,
			Phases: 2, WorkersPerPhase: [2]int{1, 2},
			WorkerSegments: [2]int{1, 3}, BlockInstrs: [2]int{1, 8},
			Utilities: 2, UtilInstrs: [2]int{2, 6},
			ColdFuncs: 1, ColdFuncInstrs: [2]int{2, 8},
			WorkerLoopTrips: 4, CallFrac: 0.5, DiamondFrac: 0.5, BranchBias: 0.8,
			ColdEscapeFrac: 0.3, ColdEscapeProb: 0.02,
			PhaseTrips: 2, TargetInstrs: 6000, ProfileRuns: 1,
		})
		if err != nil {
			t.Fatalf("workload.Build: %v", err)
		}
		w, _, err := profile.Profile(b.Prog, profile.Config{Seeds: []uint64{seed + 100}, Interp: interp.Config{MaxSteps: 1 << 18}})
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		for _, lay := range []*layout.Layout{layout.Natural(b.Prog), layout.Random(b.Prog, seed)} {
			for _, cfg := range []cache.Config{
				{SizeBytes: 512, BlockBytes: 16, Assoc: 1},
				{SizeBytes: 512, BlockBytes: 64, Assoc: 1},
				{SizeBytes: 1024, BlockBytes: 32, Assoc: 2},
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
			} {
				scoped, legacy := analyzeBoth(t, lay, w, cfg)
				if scoped.Upper > legacy.Upper {
					t.Errorf("seed %d cfg %+v: scoped Upper %d > legacy %d", seed, cfg, scoped.Upper, legacy.Upper)
				}
				if scoped.Lower != legacy.Lower {
					t.Errorf("seed %d cfg %+v: Lower changed %d != %d", seed, cfg, scoped.Lower, legacy.Lower)
				}
				if scoped.Lower > scoped.Upper {
					t.Errorf("seed %d cfg %+v: Lower %d > Upper %d", seed, cfg, scoped.Lower, scoped.Upper)
				}
			}
		}
	}
}

// TestBuildScopesLoopProgram pins the scope structure of the canonical
// loop program: the loop block and the leaf it calls share one cyclic
// SCC, entered once from the entry block.
func TestBuildScopesLoopProgram(t *testing.T) {
	p, w := buildLoopProgram(t)
	lay := layout.Natural(p)
	sg := buildSupergraph(lay, w)
	sc := buildScopes(sg, effectiveRuns(w))

	if len(sc.members) != 1 {
		t.Fatalf("cyclic SCCs = %d, want 1 (the loop+leaf cycle)", len(sc.members))
	}
	var mainID, leafID ir.FuncID
	for _, f := range p.Funcs {
		switch f.Name {
		case "main":
			mainID = f.ID
		case "leaf":
			leafID = f.ID
		}
	}
	inScope := map[ir.FuncID]bool{}
	for _, ri := range sc.members[0] {
		inScope[sg.regions[ri].f] = true
	}
	if !inScope[mainID] || !inScope[leafID] {
		t.Fatalf("scope spans funcs %v, want both main and leaf", inScope)
	}
	// The loop is entered exactly once per run, from main's entry block.
	entryW := w.BlockWeight(mainID, p.Funcs[mainID].Entry)
	if sc.entries[0] != entryW {
		t.Fatalf("entries = %d, want the entry block weight %d", sc.entries[0], entryW)
	}
}
