package profile

import (
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
)

// fixture builds:
//
//	main: entry(2i) -call A- -call B- loop{body -call A-} exit(ret)
//	A: single block (4i, ret)
//	B: diamond with one hot and one cold side
func fixture(t testing.TB) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()

	fa := pb.NewFunc("A")
	ab := fa.NewBlock()
	fa.Fill(ab, 3)
	fa.Ret(ab)

	fb := pb.NewFunc("B")
	be := fb.NewBlock()
	bh := fb.NewBlock()
	bc := fb.NewBlock()
	bj := fb.NewBlock()
	fb.Fill(be, 1)
	fb.Branch(be, ir.Arc{To: bh, Prob: 0.95}, ir.Arc{To: bc, Prob: 0.05})
	fb.Fill(bh, 2)
	fb.Jump(bh, bj)
	fb.Fill(bc, 8)
	fb.FallThrough(bc, bj)
	fb.Fill(bj, 1)
	fb.Ret(bj)

	fm := pb.NewFunc("main")
	me := fm.NewBlock()
	loop := fm.NewBlock()
	exit := fm.NewBlock()
	fm.Fill(me, 2)
	fm.Call(me, fa.ID())
	fm.Call(me, fb.ID())
	fm.FallThrough(me, loop)
	fm.Fill(loop, 1)
	fm.Call(loop, fa.ID())
	fm.Branch(loop, ir.Arc{To: loop, Prob: 0.9}, ir.Arc{To: exit, Prob: 0.1})
	fm.Fill(exit, 1)
	fm.Ret(exit)
	pb.SetEntry(fm.ID())
	return pb.Build()
}

func profileFixture(t testing.TB, seeds ...uint64) (*ir.Program, *Weights) {
	t.Helper()
	p := fixture(t)
	w, _, err := Profile(p, Config{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	return p, w
}

func TestProfileNeedsSeeds(t *testing.T) {
	p := fixture(t)
	if _, _, err := Profile(p, Config{}); err == nil {
		t.Fatal("Profile with no seeds succeeded")
	}
}

func TestEntryCountsPerRun(t *testing.T) {
	p, w := profileFixture(t, 1, 2, 3)
	if got := w.FuncWeight(p.Entry); got != 3 {
		t.Fatalf("main entries = %d, want 3 (one per run)", got)
	}
	if w.Runs != 3 {
		t.Fatalf("Runs = %d, want 3", w.Runs)
	}
}

func TestCalleeEntriesMatchSites(t *testing.T) {
	p, w := profileFixture(t, 1, 2, 3, 4)
	// A is called from two sites; its entry count must equal the sum
	// of those site counts.
	var aSites uint64
	for s, c := range w.Sites {
		if p.Callee(s) == 0 {
			aSites += c
		}
	}
	if got := w.FuncWeight(0); got != aSites {
		t.Fatalf("A entries = %d, site sum = %d", got, aSites)
	}
}

func TestPairWeightsMatchSites(t *testing.T) {
	p, w := profileFixture(t, 5, 6)
	var fromMainToA uint64
	for s, c := range w.Sites {
		if s.Func == p.Entry && p.Callee(s) == 0 {
			fromMainToA += c
		}
	}
	if got := w.PairWeight(p.Entry, 0); got != fromMainToA {
		t.Fatalf("pair weight main->A = %d, want %d", got, fromMainToA)
	}
}

func TestBlockWeightsConserveFlow(t *testing.T) {
	_, w := profileFixture(t, 7, 8, 9)
	// For function B: entry block weight equals function entries, and
	// the weight of the join block equals the sum of incoming arcs.
	fw := w.Funcs[1]
	if fw.BlockW[0] != fw.Entries {
		t.Fatalf("B entry block weight %d != entries %d", fw.BlockW[0], fw.Entries)
	}
	incoming := fw.ArcW[1][0] + fw.ArcW[2][0] // bh->bj, bc->bj
	if fw.BlockW[3] != incoming {
		t.Fatalf("join weight %d != incoming arc sum %d", fw.BlockW[3], incoming)
	}
	// Block weight == sum of outgoing arc weights for non-exit blocks.
	for b, arcs := range fw.ArcW {
		if len(arcs) == 0 {
			continue
		}
		var out uint64
		for _, c := range arcs {
			out += c
		}
		if out != fw.BlockW[b] {
			t.Fatalf("B block %d: weight %d != outgoing %d", b, fw.BlockW[b], out)
		}
	}
}

func TestHotColdBias(t *testing.T) {
	_, w := profileFixture(t, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	fw := w.Funcs[1]
	hot, cold := fw.BlockW[1], fw.BlockW[2]
	if hot <= cold {
		t.Fatalf("hot block weight %d not above cold %d", hot, cold)
	}
}

func TestDynCountsMatchResults(t *testing.T) {
	p := fixture(t)
	w, results, err := Profile(p, Config{Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var instrs, branches, calls uint64
	for _, r := range results {
		instrs += r.Instrs
		branches += r.Branches
		calls += r.Calls
	}
	if w.DynInstrs != instrs || w.DynBranches != branches || w.DynCalls != calls {
		t.Fatalf("aggregates %d/%d/%d don't match results %d/%d/%d",
			w.DynInstrs, w.DynBranches, w.DynCalls, instrs, branches, calls)
	}
}

func TestEffectiveBytes(t *testing.T) {
	p := fixture(t)
	w := NewWeights(p)
	// Nothing executed: zero effective bytes.
	if got := w.EffectiveBytes(p); got != 0 {
		t.Fatalf("effective bytes of empty profile = %d", got)
	}
	// Mark only A's block executed.
	w.Funcs[0].BlockW[0] = 5
	want := p.Funcs[0].Blocks[0].Bytes()
	if got := w.EffectiveBytes(p); got != want {
		t.Fatalf("effective bytes = %d, want %d", got, want)
	}
	// Effective never exceeds total.
	_, full := profileFixture(t, 1, 2, 3)
	if eff := full.EffectiveBytes(p); eff > p.Bytes() {
		t.Fatalf("effective %d exceeds total %d", eff, p.Bytes())
	}
}

func TestCheckShape(t *testing.T) {
	p, w := profileFixture(t, 1)
	if err := w.Check(p); err != nil {
		t.Fatalf("Check on matching program: %v", err)
	}
	other := fixture(t)
	other.Funcs = other.Funcs[:2]
	other.Entry = 0
	if err := w.Check(other); err == nil {
		t.Fatal("Check accepted mismatched program")
	}
}

func TestDeterministicProfile(t *testing.T) {
	_, w1 := profileFixture(t, 42, 43)
	_, w2 := profileFixture(t, 42, 43)
	if w1.DynInstrs != w2.DynInstrs || w1.DynBranches != w2.DynBranches {
		t.Fatal("profiling is not deterministic")
	}
	for f := range w1.Funcs {
		for b := range w1.Funcs[f].BlockW {
			if w1.Funcs[f].BlockW[b] != w2.Funcs[f].BlockW[b] {
				t.Fatalf("block weight diverged at f%d b%d", f, b)
			}
		}
	}
}

func TestProfileWithJitter(t *testing.T) {
	p := fixture(t)
	w, _, err := Profile(p, Config{
		Seeds:  []uint64{1, 2, 3},
		Interp: interp.Config{ProbJitter: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(p); err != nil {
		t.Fatal(err)
	}
	if w.DynInstrs == 0 {
		t.Fatal("no instructions profiled")
	}
}

func TestAccessorMethods(t *testing.T) {
	p, w := profileFixture(t, 1, 2)
	if w.BlockWeight(p.Entry, 0) != w.Funcs[p.Entry].BlockW[0] {
		t.Fatal("BlockWeight accessor mismatch")
	}
	if w.ArcWeight(p.Entry, 1, 0) != w.Funcs[p.Entry].ArcW[1][0] {
		t.Fatal("ArcWeight accessor mismatch")
	}
	var anySite ir.CallSite
	for s := range w.Sites {
		anySite = s
		break
	}
	if w.SiteWeight(anySite) != w.Sites[anySite] {
		t.Fatal("SiteWeight accessor mismatch")
	}
}

func TestCheckRejectsArcMismatch(t *testing.T) {
	p, w := profileFixture(t, 1)
	w.Funcs[1].ArcW[0] = nil // B's entry block has arcs; weights claim none
	if err := w.Check(p); err == nil {
		t.Fatal("Check accepted arc shape mismatch")
	}
	_, w2 := profileFixture(t, 1)
	w2.Funcs[0].BlockW = w2.Funcs[0].BlockW[:0]
	if err := w2.Check(p); err == nil {
		t.Fatal("Check accepted block shape mismatch")
	}
}
