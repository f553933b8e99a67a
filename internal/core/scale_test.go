package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"impact/internal/core/inline"
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

// checkScale scales pr by factor and checks the result against
// profiling the scaled program afresh: every exported field, and
// Place's layout under cfg. It reports whether the scaled value was
// derived rather than measured.
func checkScale(t *testing.T, pr *Profiled, factor float64, cfg Config) bool {
	t.Helper()
	q := ir.ScaleCode(pr.Input, factor)
	_, derived := pr.derive(q)
	got, err := pr.Scale(factor)
	if err != nil {
		t.Fatalf("Scale(%g): %v", factor, err)
	}
	want, err := Profile(q, cfg)
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
	derivedWant := map[uint64]int{0: 36, 1: 38}
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
// instead, and still returns what profiling the scaled program does.
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
	}{
		{
			name: "prepared run capped",
			build: func(t *testing.T) (*Profiled, Config) {
				// Every block halves at 0.5, so a capped run's
				// scaled length bound falls below the guard: only
				// its Completed flag shows that it did not finish.
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
				p := testProgram(t)
				free := profileOf(t, p, base)
				var longest uint64
				for _, r := range slices.Concat(free.origRuns, free.inlinedRuns) {
					longest = max(longest, r.Instrs)
				}
				cfg := base
				cfg.Interp.MaxSteps = longest + 1
				pr := profileOf(t, p, cfg)
				if pr.OrigWeights.Capped != 0 || pr.Weights.Capped != 0 {
					t.Fatal("a profiling run hit a guard above the longest run")
				}
				if _, ok := pr.derive(ir.ScaleCode(p, 0.5)); !ok {
					t.Fatal("shrinking code could not derive under the same guard")
				}
				return pr, cfg
			},
			factor: 1.1,
		},
		{
			name: "expansions differ",
			build: func(t *testing.T) (*Profiled, Config) {
				pr := profileOf(t, bigCalleeProgram(), base)
				if pr.InlineReport.SitesInlined != 1 {
					t.Fatalf("%d sites inlined at scale 1, want the big callee's", pr.InlineReport.SitesInlined)
				}
				q := ir.ScaleCode(pr.Input, 1.1)
				w, ok := rescale(pr.Input, q, pr.OrigWeights, pr.origRuns, interp.DefaultMaxSteps)
				if !ok {
					t.Fatal("the scaled program's step-1 profile could not derive")
				}
				if _, rep, err := inline.Expand(q, w, pr.Inline); err != nil || rep.SitesInlined != 0 {
					t.Fatalf("the scaled big callee was inlined (%v); the expansions do not differ", err)
				}
				return pr, base
			},
			factor: 1.1,
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
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pr, cfg := tt.build(t)
			if checkScale(t, pr, tt.factor, cfg) {
				t.Errorf("Scale(%g) derived a profile it cannot prove exact", tt.factor)
			}
		})
	}
}

// TestRescaleNeedsTheSameSkeleton: rescale derives nothing for a
// program that differs from the profiled one in more than block
// lengths — in anything the interpreter reads.
func TestRescaleNeedsTheSameSkeleton(t *testing.T) {
	pr, err := Profile(testProgram(t), DefaultConfig(seeds(2)...))
	if err != nil {
		t.Fatal(err)
	}
	p := pr.Input
	main := p.Entry
	phase := func(q *ir.Program) *ir.Block { return q.Funcs[main].Blocks[1] }
	for _, tt := range []struct {
		name string
		edit func(q *ir.Program)
	}{
		{"unedited", func(*ir.Program) {}},
		{"other entry function", func(q *ir.Program) { q.Entry = 0 }},
		{"other entry block", func(q *ir.Program) { q.Funcs[main].Entry = 1 }},
		{"extra block", func(q *ir.Program) {
			f := q.Funcs[main]
			f.Blocks = append(f.Blocks, &ir.Block{ID: ir.BlockID(len(f.Blocks))})
		}},
		{"other arc probability", func(q *ir.Program) { phase(q).Out[0].Prob = 0.5 }},
		{"extra call", func(q *ir.Program) {
			b := phase(q)
			b.Instrs = slices.Insert(b.Instrs, len(b.Instrs)-1, ir.Instr{Op: ir.OpCall, Callee: 0})
		}},
		{"other callee", func(q *ir.Program) {
			b := phase(q)
			b.Instrs[b.CallSites()[0]].Callee = 2
		}},
	} {
		q := ir.Clone(p)
		tt.edit(q)
		_, ok := rescale(p, q, pr.OrigWeights, pr.origRuns, interp.DefaultMaxSteps)
		if want := tt.name == "unedited"; ok != want {
			t.Errorf("%s: rescale derived %t, want %t", tt.name, ok, want)
		}
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
// 1,000-instruction callee: 4,000 bytes fit inline.DefaultConfig's
// 4,096-byte callee cap, and 4,400 at code scale 1.1 do not. A dead
// function keeps the 35% growth budget above the callee's size.
func bigCalleeProgram() *ir.Program {
	pb := ir.NewProgramBuilder()
	big := pb.NewFunc("big")
	bb := big.NewBlock()
	big.Fill(bb, 999)
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
// first call leaves an empty head block, while code scale 1.1 rounds
// the loop block up by one filler instruction that lands in that head:
// no length ratio bounds the scaled block.
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
