package core

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"impact/internal/core/inline"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/obs"
	"impact/internal/profile"
	"impact/internal/workload"
	"impact/internal/xrand"
)

// weightsDiff names the first field in which two profiles differ, or
// returns "".
func weightsDiff(a, b *profile.Weights) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := range va.NumField() {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// checkReprofile profiles p with inlining under cfg and checks both
// sessions against interpreting afresh, in every field: the step-1
// profile against profile.Profile of p, and the inlined program's
// profile and per-run results against profile.Profile of pr.Inlined.
// It returns the profiled value and reports whether the inlined profile
// was derived, as the pipeline counters record it.
func checkReprofile(t *testing.T, name string, p *ir.Program, cfg Config) (*Profiled, bool) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	pr, err := Profile(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pc := profile.Config{Seeds: cfg.ProfileSeeds, Interp: cfg.Interp}
	orig, origRuns, err := profile.Profile(p, pc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if d := weightsDiff(pr.OrigWeights, orig); d != "" || !reflect.DeepEqual(pr.origRuns, origRuns) {
		t.Errorf("%s: step-1 profile differs from interpreting the input (field %q)", name, d)
	}
	want, wantRuns, err := profile.Profile(pr.Inlined, pc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	derived := reg.Counter("pipeline.inline.derived").Value()
	measured := reg.Counter("pipeline.inline.reprofiled").Value()
	if derived+measured != 1 {
		t.Errorf("%s: %d derived and %d re-profiled inlined profiles, want one in all", name, derived, measured)
	}
	if d := weightsDiff(pr.Weights, want); d != "" {
		t.Errorf("%s (derived %t): inlined profile's %s differs from interpreting the inlined program", name, derived == 1, d)
	}
	if !reflect.DeepEqual(pr.inlinedRuns, wantRuns) {
		t.Errorf("%s (derived %t): inlined runs %+v, interpreting gives %+v", name, derived == 1, pr.inlinedRuns, wantRuns)
	}
	return pr, derived == 1
}

// TestReprofileMatchesProfile is the differential test of the derived
// re-profile: the suite's programs at the experiments' test scale, on
// the paper's profiling inputs and on re-derived ones. The derived
// counts are pinned so that a change which quietly stops deriving
// fails here; cmp's session on the paper's inputs caps a run, so it is
// measured.
func TestReprofileMatchesProfile(t *testing.T) {
	derivedWant := map[uint64]int{0: 9, 1: 10}
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
			if _, ok := checkReprofile(t, b.Name(), b.Prog, cfg); ok {
				derived++
			}
		}
		if derived != derivedWant[seed] {
			t.Errorf("seed %d: %d of 10 inlined profiles derived, want %d", seed, derived, derivedWant[seed])
		}
	}
}

// cycleProgram loads the mutual-recursion fixture: main loops calling
// a, and a and b call each other, so expansion unrolls the cycle into
// main.
func cycleProgram(t testing.TB) *ir.Program {
	t.Helper()
	src, err := os.ReadFile("testdata/cycle.ir")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Decode(strings.NewReader(string(src)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReprofileUnrolledCycle: an inlined body nests the same function
// several times along one path, so only exact calling contexts give its
// clones' counts. The fixture's profile must derive.
func TestReprofileUnrolledCycle(t *testing.T) {
	cfg := DefaultConfig(seeds(6)...)
	cfg.Interp.ProbJitter = 0.1
	p := cycleProgram(t)
	if _, ok := checkReprofile(t, "cycle", p, cfg); !ok {
		t.Error("the unrolled cycle's inlined profile was measured, not derived")
	}
}

// dropContext is a context table with one nested context removed: the
// activations of context n's call number call count, as far as the
// derivation can tell, in the callee's root context.
type dropContext struct {
	*interp.Contexts
	n, call int
}

func (d dropContext) Child(n, call int) (int, bool) {
	child, nested := d.Contexts.Child(n, call)
	if n == d.n && call == d.call && child >= 0 {
		return child, false
	}
	return child, nested
}

// TestReprofileFallsBack: each case the derivation cannot prove exact
// is measured instead, and still returns what interpreting the inlined
// program does.
func TestReprofileFallsBack(t *testing.T) {
	t.Run("step-1 run capped", func(t *testing.T) {
		cfg := DefaultConfig(seeds(4)...)
		cfg.Interp.MaxSteps = 300
		if _, ok := checkReprofile(t, "capped", testProgram(t), cfg); ok {
			t.Error("derived the profile of a capped session")
		}
	})
	t.Run("chain over the budget from its root", func(t *testing.T) {
		// main calls a once per run and a calls b in a loop: b is
		// inlined into a, but a chain of both below main does not fit
		// the growth budget, so step 1 counts a's calls of b from main
		// in b's root context.
		p := overBudgetChainProgram()
		cfg := DefaultConfig(seeds(4)...)
		l := contextLimit(p, cfg.Inline)
		if a, b := l.Cost[0], l.Cost[1]; a > l.Budget || b > l.Budget || a+b <= l.Budget {
			t.Fatalf("costs %d and %d against budget %d: want each to fit and both not", a, b, l.Budget)
		}
		pr, ok := checkReprofile(t, "over budget", p, cfg)
		if ok {
			t.Error("derived a profile whose expansion needs an uncounted context")
		}
		if exps := pr.InlineReport.Expansions; len(exps) != 1 || exps[0].Callee != 1 || exps[0].Site.Func != 0 {
			t.Errorf("expansions %+v, want b inlined into a alone", exps)
		}
	})
	t.Run("needed context removed", func(t *testing.T) {
		p := cycleProgram(t)
		cfg := DefaultConfig(seeds(4)...)
		pc := profile.Config{Seeds: cfg.ProfileSeeds}
		pr := &Profiled{Input: p, ProfileSeeds: cfg.ProfileSeeds, Inline: cfg.Inline}
		var x *interp.Contexts
		var err error
		pr.OrigWeights, pr.origRuns, x, err = profile.ProfileContexts(p, pc, contextLimit(p, cfg.Inline))
		if err != nil {
			t.Fatal(err)
		}
		if pr.Inlined, pr.InlineReport, err = inline.Expand(p, pr.OrigWeights, cfg.Inline); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := deriveInlined(pr, x); !ok {
			t.Fatal("the whole table does not derive")
		}
		// Main's one call, the outermost expansion.
		drop := dropContext{Contexts: x, n: x.Root(p.Entry), call: 0}
		reg := obs.NewRegistry()
		pc.Obs = reg
		w, runs, err := pr.reprofile(drop, pc)
		if err != nil {
			t.Fatal(err)
		}
		if n := reg.Counter("pipeline.inline.reprofiled").Value(); n != 1 {
			t.Errorf("re-profiled %d times, want 1", n)
		}
		want, wantRuns, err := profile.Profile(pr.Inlined, profile.Config{Seeds: cfg.ProfileSeeds})
		if err != nil {
			t.Fatal(err)
		}
		if d := weightsDiff(w, want); d != "" || !reflect.DeepEqual(runs, wantRuns) {
			t.Errorf("fallback differs from interpreting the inlined program (field %q)", d)
		}
	})
}

// overBudgetChainProgram builds main calling a once, a looping over
// calls of b, and a dead function that sizes the growth budget so that
// a and b each fit it and the two nested below main do not.
func overBudgetChainProgram() *ir.Program {
	pb := ir.NewProgramBuilder()
	a := pb.NewFunc("a")
	b := pb.NewFunc("b")
	dead := pb.NewFunc("dead")
	m := pb.NewFunc("main")

	loop := a.NewBlock()
	ax := a.NewBlock()
	a.Fill(loop, 98)
	a.Call(loop, b.ID())
	a.Branch(loop, ir.Arc{To: loop, Prob: 0.95}, ir.Arc{To: ax, Prob: 0.05})
	a.Ret(ax)

	bb := b.NewBlock()
	b.Fill(bb, 99)
	b.Ret(bb)

	db := dead.NewBlock()
	dead.Fill(db, 299)
	dead.Ret(db)

	mb := m.NewBlock()
	m.Fill(mb, 2)
	m.Call(mb, a.ID())
	m.Ret(mb)
	pb.SetEntry(m.ID())
	return pb.Build()
}
