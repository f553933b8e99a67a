package analysis

import (
	"testing"

	"impact/internal/cache"
	"impact/internal/interp"
	"impact/internal/layout"
	"impact/internal/profile"
	"impact/internal/workload"
)

// FuzzBounds is the adversarial side of the differential check: for
// fuzzer-chosen program shapes, layouts, and cache geometries, the
// static must/may bounds must bracket the simulator's measured misses
// whenever the weights describe the simulated run exactly.
//
// Each case also moves an engine built on the other layout (natural or
// shuffled) to the analysed one: the incremental update must reproduce
// the fresh analysis bit for bit, so the fuzzer drives the dirty-set
// re-solve as hard as the from-scratch one.
//
// The trips byte scales the workload's loop trip counts: hot loops
// over code that does not fit the cache are exactly the shape whose
// upper bound the scope-persistence pass (persist.go) caps at the
// scope's entry count, so high-trips seeds hold the tightened bracket
// against the simulator too.
func FuzzBounds(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(0), uint8(0), uint8(1), uint8(3), false)
	f.Add(uint64(2), uint64(11), uint8(1), uint8(1), uint8(2), uint8(3), true)
	f.Add(uint64(3), uint64(13), uint8(2), uint8(2), uint8(0), uint8(3), false)
	f.Add(uint64(99), uint64(5), uint8(0), uint8(2), uint8(3), uint8(3), true)
	// Persistence-heavy shapes: many trips around loops vs the smallest
	// direct-mapped geometry (scope pools dominate the upper bound),
	// and the same with associativity for the scoped-fit boundary.
	f.Add(uint64(17), uint64(23), uint8(0), uint8(0), uint8(1), uint8(11), false)
	f.Add(uint64(17), uint64(23), uint8(0), uint8(0), uint8(1), uint8(11), true)
	f.Add(uint64(29), uint64(31), uint8(1), uint8(2), uint8(2), uint8(9), false)
	f.Add(uint64(41), uint64(43), uint8(2), uint8(1), uint8(3), uint8(15), true)
	f.Fuzz(func(t *testing.T, progSeed, evalSeed uint64, sizeIdx, blockIdx, assocIdx, trips uint8, random bool) {
		sizes := []int{256, 512, 1024}
		blocks := []int{16, 32, 64}
		assocs := []int{0, 1, 2, 4} // 0 = fully associative
		cfg := cache.Config{
			SizeBytes:  sizes[int(sizeIdx)%len(sizes)],
			BlockBytes: blocks[int(blockIdx)%len(blocks)],
			Assoc:      assocs[int(assocIdx)%len(assocs)],
		}

		b, err := workload.Build(workload.Params{
			Name: "fuzz", InputDesc: "fuzz", Seed: progSeed,
			Phases: 1, WorkersPerPhase: [2]int{1, 2},
			WorkerSegments: [2]int{1, 3}, BlockInstrs: [2]int{1, 8},
			Utilities: 1, UtilInstrs: [2]int{2, 6},
			ColdFuncs: 1, ColdFuncInstrs: [2]int{2, 8},
			WorkerLoopTrips: float64(1 + int(trips)%15), CallFrac: 0.5, DiamondFrac: 0.5, BranchBias: 0.8,
			ColdEscapeFrac: 0.3, ColdEscapeProb: 0.02,
			PhaseTrips: float64(1 + int(trips)%4), TargetInstrs: 4000, ProfileRuns: 1,
		})
		if err != nil {
			t.Skipf("workload.Build: %v", err)
		}

		icfg := interp.Config{MaxSteps: 1 << 18}
		w, runs, err := profile.Profile(b.Prog, profile.Config{Seeds: []uint64{evalSeed}, Interp: icfg})
		if err != nil {
			t.Fatalf("profile: %v", err)
		}

		lay, other := layout.Natural(b.Prog), layout.Random(b.Prog, progSeed)
		if random {
			lay, other = other, lay
		}
		res, err := Analyze(lay, w, Config{Cache: cfg})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		inc, err := NewIncremental(other, w, Config{Cache: cfg})
		if err != nil {
			t.Fatalf("NewIncremental: %v", err)
		}
		moved, err := inc.Update(lay)
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		sameResult(t, "update", moved, res)
		if res.Bounds.Lower > res.Bounds.Upper {
			t.Fatalf("Lower %d > Upper %d", res.Bounds.Lower, res.Bounds.Upper)
		}
		if !runs[0].Completed {
			// Capped run: weights are a prefix, bounds are estimates.
			if res.Bounds.Exact {
				t.Fatalf("Exact bounds from a capped run")
			}
			return
		}

		tr, run, err := layout.Trace(lay, evalSeed, icfg)
		if err != nil || !run.Completed {
			t.Fatalf("trace: %v completed=%v", err, run.Completed)
		}
		st, err := cache.Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if st.Accesses != res.Bounds.Accesses {
			t.Fatalf("simulator accesses %d != modelled %d", st.Accesses, res.Bounds.Accesses)
		}
		if st.Misses < res.Bounds.Lower || st.Misses > res.Bounds.Upper {
			t.Fatalf("measured %d outside [%d, %d] (cfg %+v, seeds %d/%d, random=%v)",
				st.Misses, res.Bounds.Lower, res.Bounds.Upper, cfg, progSeed, evalSeed, random)
		}
	})
}
