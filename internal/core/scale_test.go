package core

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/workload"
	"impact/internal/xrand"
)

// table9Scales are the code scaling factors of the paper's Table 9
// (experiments.Table9Scales, which this package cannot import).
var table9Scales = []float64{0.5, 0.7, 1.0, 1.1}

// sameProfile reports the first exported field in which two profiled
// values differ, or "".
func sameProfile(a, b *Profiled) string {
	for _, c := range []struct {
		what string
		a, b any
	}{
		{"Input", a.Input, b.Input},
		{"OrigWeights", a.OrigWeights, b.OrigWeights},
		{"Inlined", a.Inlined, b.Inlined},
		{"Weights", a.Weights, b.Weights},
		{"InlineReport", a.InlineReport, b.InlineReport},
		{"ProfileSeeds", a.ProfileSeeds, b.ProfileSeeds},
		{"Interp", a.Interp, b.Interp},
		{"Inline", a.Inline, b.Inline},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			return c.what
		}
	}
	return ""
}

// scaleDerived reports what Scale derived of got, the value it
// returned for pr: step 1, from pr's context counts, and step 2, from
// the same counts (trivially, when pr does not inline).
func scaleDerived(pr, got *Profiled) (step1, step2 bool) {
	if got.contexts != pr.contexts {
		return false, false
	}
	if got.Inlined == nil {
		return true, true
	}
	_, _, ok := deriveInlined(got, got.contexts)
	return true, ok
}

// checkScale scales pr by factor and checks the result against
// profiling the scaled program afresh: every exported field, and
// Place's layout under cfg. It reports whether the scaled value was
// derived without interpreting.
func checkScale(t *testing.T, pr *Profiled, factor float64, cfg Config) bool {
	t.Helper()
	got, err := pr.Scale(factor)
	if err != nil {
		t.Fatalf("Scale(%g): %v", factor, err)
	}
	step1, step2 := scaleDerived(pr, got)
	derived := step1 && step2
	want, err := Profile(ir.ScaleCode(pr.Input, factor), cfg)
	if err != nil {
		t.Fatalf("Profile at %g: %v", factor, err)
	}
	if diff := sameProfile(got, want); diff != "" {
		t.Errorf("Scale(%g) (derived %t): %s differs from profiling the scaled program", factor, derived, diff)
	}
	gotRes, err := Place(got, cfg)
	if err != nil {
		t.Fatalf("Place on Scale(%g): %v", factor, err)
	}
	wantRes, err := Place(want, cfg)
	if err != nil {
		t.Fatalf("Place at %g: %v", factor, err)
	}
	if !reflect.DeepEqual(blockAddrs(gotRes.Layout), blockAddrs(wantRes.Layout)) {
		t.Errorf("Scale(%g) (derived %t): placed layout differs", factor, derived)
	}
	return derived
}

// TestScaleMatchesProfile is the differential grid for deriving
// code-scaled profiles: the suite's programs at the experiments' test
// scale, on the paper's profiling inputs and on re-derived ones, at
// every Table 9 factor. Each scaled value must equal a fresh Profile
// of the scaled program and place identically. The derived counts are
// pinned so that a change which quietly stops deriving fails here.
func TestScaleMatchesProfile(t *testing.T) {
	derivedWant := map[uint64]int{0: 36, 1: 39}
	for _, seed := range []uint64{0, 1} {
		derived := 0
		for _, b := range workload.Suite(0.08) {
			seeds := b.ProfileSeeds
			if seed != 0 {
				seeds = make([]uint64, len(b.ProfileSeeds))
				for j, s := range b.ProfileSeeds {
					seeds[j] = xrand.Seed(s, seed)
				}
			}
			cfg := DefaultConfig(seeds...)
			cfg.Interp = b.InterpConfig()
			pr, err := Profile(b.Prog, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", b.Name(), seed, err)
			}
			for _, f := range table9Scales {
				if checkScale(t, pr, f, cfg) {
					derived++
				}
			}
		}
		if derived != derivedWant[seed] {
			t.Errorf("seed %d: %d of %d scaled profiles derived, want %d",
				seed, derived, 10*len(table9Scales), derivedWant[seed])
		}
	}
}

// TestScaleFallsBack: each case Scale cannot prove exact is measured
// instead, each case only exact run lengths and context counts prove is
// derived, and every one returns what profiling the scaled program
// does.
func TestScaleFallsBack(t *testing.T) {
	profileOf := func(t *testing.T, p *ir.Program, cfg Config) *Profiled {
		t.Helper()
		pr, err := Profile(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	base := DefaultConfig(seeds(4)...)

	tests := []struct {
		name   string
		build  func(t *testing.T) (*Profiled, Config)
		factor float64
		// step1 and step2 are whether Scale derives each step.
		step1, step2 bool
	}{
		{
			name: "prepared run capped",
			build: func(t *testing.T) (*Profiled, Config) {
				// Every block halves at 0.5, so a capped run's
				// scaled length falls below the guard: only its
				// Completed flag shows that it did not finish.
				cfg := base
				cfg.Interp.MaxSteps = 300
				pr := profileOf(t, halvingLoopProgram(), cfg)
				if pr.OrigWeights.Capped == 0 {
					t.Fatal("no profiling run hit the 300-step guard")
				}
				return pr, cfg
			},
			factor: 0.5,
		},
		{
			name: "guard within reach of the scaled runs",
			build: func(t *testing.T) (*Profiled, Config) {
				// The guard is the longest scaled run's length, so
				// that run stops at the guard as it would end.
				p := testProgram(t)
				free := profileOf(t, ir.ScaleCode(p, 1.1), base)
				var longest uint64
				for _, r := range slices.Concat(free.origRuns, free.inlinedRuns) {
					longest = max(longest, r.Instrs)
				}
				cfg := base
				cfg.Interp.MaxSteps = longest
				pr := profileOf(t, p, cfg)
				if pr.OrigWeights.Capped != 0 || pr.Weights.Capped != 0 {
					t.Fatal("a profiling run hit the guard before scaling")
				}
				shrunk, err := pr.Scale(0.5)
				if err != nil {
					t.Fatal(err)
				}
				if step1, step2 := scaleDerived(pr, shrunk); !step1 || !step2 {
					t.Fatal("shrinking code could not derive under the same guard")
				}
				return pr, cfg
			},
			factor: 1.1,
		},
		{
			name: "expansions differ",
			build: func(t *testing.T) (*Profiled, Config) {
				pr := profileOf(t, bigCalleeProgram(1000), base)
				if pr.InlineReport.SitesInlined != 1 {
					t.Fatalf("%d sites inlined at scale 1, want the big callee's", pr.InlineReport.SitesInlined)
				}
				if n := profileOf(t, ir.ScaleCode(pr.Input, 1.1), base).InlineReport.SitesInlined; n != 0 {
					t.Fatalf("%d sites inlined at scale 1.1; the expansions do not differ", n)
				}
				return pr, base
			},
			factor: 1.1,
			step1:  true, step2: true,
		},
		{
			name: "executed empty block grows",
			build: func(t *testing.T) (*Profiled, Config) {
				pr := profileOf(t, callsOnlyLoopProgram(), base)
				head := pr.Inlined.Funcs[pr.Inlined.Entry].Blocks[0]
				if len(head.Instrs) != 0 || pr.Weights.Funcs[pr.Inlined.Entry].BlockW[0] == 0 {
					t.Fatal("inlining the loop's first call left no executed empty head block")
				}
				return pr, base
			},
			factor: 1.1,
			step1:  true, step2: true,
		},
		{
			name: "no run records",
			build: func(t *testing.T) (*Profiled, Config) {
				pr := profileOf(t, testProgram(t), base)
				return &Profiled{
					Input: pr.Input, OrigWeights: pr.OrigWeights,
					Inlined: pr.Inlined, Weights: pr.Weights, InlineReport: pr.InlineReport,
					ProfileSeeds: pr.ProfileSeeds, Interp: pr.Interp, Inline: pr.Inline,
				}, base
			},
			factor: 0.7,
		},
		{
			// The big callee is over the callee cap at scale 1, so
			// step 1 counts its activations in its root context
			// alone; at 0.9 it is inlined, and the scaled expansion
			// needs the context step 1 did not count.
			name: "callee fits only when scaled",
			build: func(t *testing.T) (*Profiled, Config) {
				pr := profileOf(t, bigCalleeProgram(1100), base)
				if pr.InlineReport.SitesInlined != 0 {
					t.Fatalf("%d sites inlined at scale 1, want none", pr.InlineReport.SitesInlined)
				}
				if n := profileOf(t, ir.ScaleCode(pr.Input, 0.9), base).InlineReport.SitesInlined; n != 1 {
					t.Fatalf("%d sites inlined at scale 0.9, want the big callee's", n)
				}
				return pr, base
			},
			factor: 0.9,
			step1:  true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pr, cfg := tt.build(t)
			checkScale(t, pr, tt.factor, cfg)
			got, err := pr.Scale(tt.factor)
			if err != nil {
				t.Fatal(err)
			}
			if step1, step2 := scaleDerived(pr, got); step1 != tt.step1 || step2 != tt.step2 {
				t.Errorf("Scale(%g) derived step 1 %t and step 2 %t, want %t and %t",
					tt.factor, step1, step2, tt.step1, tt.step2)
			}
		})
	}
}

// halvingLoopProgram builds a one-function loop of about 800
// instructions per run whose two blocks, eight and two instructions
// long, both halve at code scale 0.5.
func halvingLoopProgram() *ir.Program {
	pb := ir.NewProgramBuilder()
	m := pb.NewFunc("main")
	loop := m.NewBlock()
	x := m.NewBlock()
	m.Fill(loop, 7)
	m.Branch(loop, ir.Arc{To: loop, Prob: 0.99}, ir.Arc{To: x, Prob: 0.01})
	m.Fill(x, 1)
	m.Ret(x)
	pb.SetEntry(m.ID())
	return pb.Build()
}

// bigCalleeProgram builds a program whose one hot call goes to a
// callee of n instructions. inline.DefaultConfig caps a callee at
// 4,096 bytes: 1,000 instructions fit it and do not at code scale
// 1.1, and 1,100 do not fit it and do at 0.9. A dead function keeps
// the 35% growth budget above the callee's size.
func bigCalleeProgram(n int) *ir.Program {
	pb := ir.NewProgramBuilder()
	big := pb.NewFunc("big")
	bb := big.NewBlock()
	big.Fill(bb, n-1)
	big.Ret(bb)

	dead := pb.NewFunc("dead")
	db := dead.NewBlock()
	dead.Fill(db, 2999)
	dead.Ret(db)

	m := pb.NewFunc("main")
	loop := m.NewBlock()
	x := m.NewBlock()
	m.Fill(loop, 4)
	m.Call(loop, big.ID())
	m.Branch(loop, ir.Arc{To: loop, Prob: 0.9}, ir.Arc{To: x, Prob: 0.1})
	m.Fill(x, 1)
	m.Ret(x)
	pb.SetEntry(m.ID())
	return pb.Build()
}

// callsOnlyLoopProgram builds a program whose hot loop block holds
// five calls and its branch and no other instruction. Inlining its
// first call leaves an empty head block, and code scale 1.1 rounds the
// loop block up by one filler instruction that lands in that head: an
// executed block grows from nothing.
func callsOnlyLoopProgram() *ir.Program {
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 3)
	leaf.Ret(lb)

	m := pb.NewFunc("main")
	loop := m.NewBlock()
	x := m.NewBlock()
	for range 5 {
		m.Call(loop, leaf.ID())
	}
	m.Branch(loop, ir.Arc{To: loop, Prob: 0.9}, ir.Arc{To: x, Prob: 0.1})
	m.Fill(x, 1)
	m.Ret(x)
	pb.SetEntry(m.ID())
	return pb.Build()
}

// TestScaleRejectsBadFactor: a factor that is not a finite number
// above zero is an error, not a panic in ir.ScaleCode.
func TestScaleRejectsBadFactor(t *testing.T) {
	pr, err := Profile(testProgram(t), DefaultConfig(seeds(2)...))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := pr.Scale(f); err == nil || got != nil {
			t.Errorf("Scale(%v) = %v, %v; want an error", f, got, err)
		}
	}
}

// TestScaleWithoutInlining: a value profiled without inlining scales
// to one without inlining, derived from step 1 alone.
func TestScaleWithoutInlining(t *testing.T) {
	cfg := DefaultConfig(seeds(3)...)
	cfg.Strategy = NaturalStrategy()
	cfg.Interp = interp.Config{ProbJitter: 0.1}
	pr, err := Profile(testProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range table9Scales {
		if !checkScale(t, pr, f, cfg) {
			t.Errorf("Scale(%g) of a completed, unguarded profile was measured", f)
		}
	}
}

// TestScaleDerivedValue: a derived value keeps its runs and context
// counts, so scaling it again derives too.
func TestScaleDerivedValue(t *testing.T) {
	cfg := DefaultConfig(seeds(3)...)
	pr, err := Profile(testProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	half, err := pr.Scale(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if step1, step2 := scaleDerived(pr, half); !step1 || !step2 {
		t.Fatal("Scale(0.5) was measured")
	}
	if !checkScale(t, half, 1.7, cfg) {
		t.Error("scaling a derived value again was measured")
	}
}

// TestScaleConcurrent: Scale only reads the profiled value and its
// context counts, so concurrent calls on one value each return what a
// serial call does.
func TestScaleConcurrent(t *testing.T) {
	pr, err := Profile(testProgram(t), DefaultConfig(seeds(3)...))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Profiled, len(table9Scales))
	for i, f := range table9Scales {
		if want[i], err = pr.Scale(f); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range table9Scales {
				got, err := pr.Scale(f)
				if err != nil {
					t.Error(err)
					return
				}
				if d := sameProfile(got, want[i]); d != "" {
					t.Errorf("Scale(%g): %s differs from the serial call's", f, d)
				}
			}
		}()
	}
	wg.Wait()
}
