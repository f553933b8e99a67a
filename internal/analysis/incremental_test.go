package analysis

import (
	"reflect"
	"testing"

	"impact/internal/cache"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/profile"
	"impact/internal/workload"
)

// sameResult compares two analyses for bit-identical equality modulo
// the Iterations counter (the incremental engine legitimately
// evaluates fewer region transfers).
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.Iterations, w.Iterations = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: incremental result differs from full analysis\n got: %+v\nwant: %+v", label, g, w)
	}
}

// swapFuncs returns a layout with the functions at positions i and j
// of the natural order exchanged (blocks in natural order inside each
// function) — the single-function move the search loop makes.
func swapFuncs(t *testing.T, p *ir.Program, i, j int) *layout.Layout {
	t.Helper()
	order := make([]ir.FuncID, len(p.Funcs))
	for k := range order {
		order[k] = ir.FuncID(k)
	}
	order[i], order[j] = order[j], order[i]
	var pl layout.Placement
	for _, f := range order {
		for _, b := range p.Funcs[f].Blocks {
			pl.Order = append(pl.Order, layout.BlockRef{F: f, B: b.ID})
		}
	}
	lay, err := layout.FromPlacement(p, pl)
	if err != nil {
		t.Fatalf("FromPlacement: %v", err)
	}
	return lay
}

func TestIncrementalMatchesFull(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		b, err := workload.Build(workload.Params{
			Name: "inc", InputDesc: "inc", Seed: seed,
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
		w, _, err := profile.Profile(b.Prog, profile.Config{Seeds: []uint64{seed + 50}, Interp: interp.Config{MaxSteps: 1 << 18}})
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		for _, cfg := range []cache.Config{
			{SizeBytes: 512, BlockBytes: 32, Assoc: 1},
			{SizeBytes: 1024, BlockBytes: 64, Assoc: 2},
			{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
		} {
			acfg := Config{Cache: cfg}
			inc, err := NewIncremental(layout.Natural(b.Prog), w, acfg)
			if err != nil {
				t.Fatalf("NewIncremental: %v", err)
			}
			full := mustAnalyze(t, layout.Natural(b.Prog), w, acfg)
			sameResult(t, "base", inc.Result(), full)

			// A chain of single-function swaps, each checked against a
			// from-scratch analysis of the same layout.
			n := len(b.Prog.Funcs)
			for step := 0; step < 4 && n > 1; step++ {
				lay := swapFuncs(t, b.Prog, step%n, (step+1+step/n)%n)
				got, err := inc.Update(lay)
				if err != nil {
					t.Fatalf("Update: %v", err)
				}
				sameResult(t, "swap", got, mustAnalyze(t, lay, w, acfg))
			}

			// A whole-layout shuffle (everything moves) still matches.
			lay := layout.Random(b.Prog, seed)
			got, err := inc.Update(lay)
			if err != nil {
				t.Fatalf("Update(random): %v", err)
			}
			sameResult(t, "random", got, mustAnalyze(t, lay, w, acfg))
		}
	}
}

func TestIncrementalRevert(t *testing.T) {
	p, w := buildLoopProgram(t)
	acfg := Config{Cache: cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1}}
	base := layout.Natural(p)
	inc, err := NewIncremental(base, w, acfg)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	want := mustAnalyze(t, base, w, acfg)
	sameResult(t, "base", inc.Result(), want)

	if err := inc.Revert(); err == nil {
		t.Fatalf("Revert before any Update should error")
	}

	moved := swapFuncs(t, p, 0, 1)
	if _, err := inc.Update(moved); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := inc.Revert(); err != nil {
		t.Fatalf("Revert: %v", err)
	}
	if inc.Layout() != base {
		t.Fatalf("Revert did not restore the base layout")
	}
	sameResult(t, "reverted", inc.Result(), want)
	if err := inc.Revert(); err == nil {
		t.Fatalf("second Revert should error")
	}

	// The engine must still converge correctly after a revert.
	got, err := inc.Update(moved)
	if err != nil {
		t.Fatalf("Update after Revert: %v", err)
	}
	sameResult(t, "post-revert", got, mustAnalyze(t, moved, w, acfg))
}

func TestIncrementalRejectsForeignProgram(t *testing.T) {
	p, w := buildLoopProgram(t)
	inc, err := NewIncremental(layout.Natural(p), w, Config{Cache: cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1}})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	other, _ := buildPhasedProgram(t)
	if _, err := inc.Update(layout.Natural(other)); err == nil {
		t.Fatalf("Update with a different program should error")
	}
}

// TestIncrementalRejectsResizedLayout: every layout of one program
// places the same bytes, so an engine never re-sizes its line universe
// and refuses a layout claiming another size.
func TestIncrementalRejectsResizedLayout(t *testing.T) {
	p, w := buildLoopProgram(t)
	inc, err := NewIncremental(layout.Natural(p), w, Config{Cache: cache.Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1}})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	grown := *layout.Natural(p)
	grown.Total += 64
	if _, err := inc.Update(&grown); err == nil {
		t.Fatalf("Update with a layout of another size should error")
	}
}
