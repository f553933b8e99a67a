package core

import (
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
)

// testProgram builds a small but complete program: main runs phases
// that call worker functions with hot loops and cold error paths.
func testProgram(t testing.TB) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()

	// worker: entry -> loop (hot, self) -> exit; cold block off loop.
	worker := func(name string, loopProb float64) ir.FuncID {
		fb := pb.NewFunc(name)
		e := fb.NewBlock()
		loop := fb.NewBlock()
		cold := fb.NewBlock()
		x := fb.NewBlock()
		fb.Fill(e, 3)
		fb.FallThrough(e, loop)
		fb.Fill(loop, 6)
		fb.Branch(loop,
			ir.Arc{To: loop, Prob: loopProb},
			ir.Arc{To: x, Prob: 1 - loopProb - 0.0005},
			ir.Arc{To: cold, Prob: 0.0005})
		fb.Fill(cold, 12)
		fb.Jump(cold, x)
		fb.Fill(x, 2)
		fb.Ret(x)
		return fb.ID()
	}
	w1 := worker("w1", 0.9)
	w2 := worker("w2", 0.8)

	deadFn := pb.NewFunc("dead")
	db := deadFn.NewBlock()
	deadFn.Fill(db, 20)
	deadFn.Ret(db)

	m := pb.NewFunc("main")
	e := m.NewBlock()
	phase := m.NewBlock()
	x := m.NewBlock()
	m.Fill(e, 2)
	m.FallThrough(e, phase)
	m.Fill(phase, 1)
	m.Call(phase, w1)
	m.Call(phase, w2)
	m.Branch(phase, ir.Arc{To: phase, Prob: 0.85}, ir.Arc{To: x, Prob: 0.15})
	m.Fill(x, 1)
	m.Ret(x)
	pb.SetEntry(m.ID())
	return pb.Build()
}

func seeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

func TestOptimizeFullPipeline(t *testing.T) {
	p := testProgram(t)
	res, err := Optimize(p, DefaultConfig(seeds(4)...))
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Validate(res.Prog); err != nil {
		t.Fatalf("transformed program invalid: %v", err)
	}
	if res.Layout == nil || res.Layout.Total == 0 {
		t.Fatal("no layout produced")
	}
	if res.Layout.Total != uint32(res.Prog.Bytes()) {
		t.Fatalf("layout total %d != program bytes %d", res.Layout.Total, res.Prog.Bytes())
	}
	if res.EffectiveBytes <= 0 || res.EffectiveBytes > res.TotalBytes {
		t.Fatalf("effective bytes %d outside (0, %d]", res.EffectiveBytes, res.TotalBytes)
	}
	if res.InlineReport.SitesInlined == 0 {
		t.Fatal("full pipeline inlined nothing on a call-heavy program")
	}
}

func TestOptimizeRequiresSeeds(t *testing.T) {
	if _, err := Optimize(testProgram(t), Config{}); err == nil {
		t.Fatal("Optimize without seeds succeeded")
	}
}

func TestColdCodeAboveEffectiveBoundary(t *testing.T) {
	p := testProgram(t)
	res, err := Optimize(p, DefaultConfig(seeds(4)...))
	if err != nil {
		t.Fatal(err)
	}
	// Every block with zero weight must be placed at or above
	// EffectiveBytes; every non-zero-weight block below it.
	for _, f := range res.Prog.Funcs {
		for _, b := range f.Blocks {
			if b.Bytes() == 0 {
				continue
			}
			addr := res.Layout.BlockAddr(f.ID, b.ID)
			wgt := res.Weights.BlockWeight(f.ID, b.ID)
			if wgt > 0 && addr >= uint32(res.EffectiveBytes) {
				t.Fatalf("hot block %s/%d at %d above effective boundary %d",
					f.Name, b.ID, addr, res.EffectiveBytes)
			}
			if wgt == 0 && addr < uint32(res.EffectiveBytes) {
				t.Fatalf("cold block %s/%d at %d below effective boundary %d",
					f.Name, b.ID, addr, res.EffectiveBytes)
			}
		}
	}
}

func TestEntryFunctionPlacedFirst(t *testing.T) {
	p := testProgram(t)
	res, err := Optimize(p, DefaultConfig(seeds(4)...))
	if err != nil {
		t.Fatal(err)
	}
	entry := res.Prog.EntryFunc()
	if got := res.Layout.BlockAddr(entry.ID, entry.Entry); got != 0 {
		t.Fatalf("main entry block at %d, want 0", got)
	}
}

func TestNaturalStrategyMatchesNaturalLayout(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultConfig(seeds(3)...)
	cfg.Strategy = NaturalStrategy()
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nat := layout.Natural(p)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if res.Layout.BlockAddr(f.ID, b.ID) != nat.BlockAddr(f.ID, b.ID) {
				t.Fatalf("natural strategy deviates from natural layout at %s/%d", f.Name, b.ID)
			}
		}
	}
	if res.InlineReport.SitesInlined != 0 {
		t.Fatal("natural strategy ran inlining")
	}
}

func TestStrategyCombinations(t *testing.T) {
	p := testProgram(t)
	combos := []Strategy{
		{Inline: true},
		{TraceLayout: true},
		{TraceLayout: true, SplitCold: true},
		{GlobalDFS: true},
		{Inline: true, TraceLayout: true, GlobalDFS: true},
		FullStrategy(),
	}
	for _, st := range combos {
		cfg := DefaultConfig(seeds(3)...)
		cfg.Strategy = st
		res, err := Optimize(p, cfg)
		if err != nil {
			t.Fatalf("strategy %+v: %v", st, err)
		}
		if err := ir.Validate(res.Prog); err != nil {
			t.Fatalf("strategy %+v: invalid program: %v", st, err)
		}
		if res.Layout.Total != uint32(res.Prog.Bytes()) {
			t.Fatalf("strategy %+v: bad layout total", st)
		}
	}
}

func TestEvalTraceConsistent(t *testing.T) {
	p := testProgram(t)
	res, err := Optimize(p, DefaultConfig(seeds(3)...))
	if err != nil {
		t.Fatal(err)
	}
	tr, runRes, err := layout.Trace(res.Layout, 99, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !runRes.Completed {
		t.Fatal("eval run did not complete")
	}
	if tr.Instrs != runRes.Instrs {
		t.Fatalf("trace instrs %d != run instrs %d", tr.Instrs, runRes.Instrs)
	}
	for _, r := range tr.Runs {
		if end := uint64(r.Addr) + uint64(r.Bytes); end > uint64(res.Layout.Total) {
			t.Fatalf("trace touches %d beyond layout end %d", end, res.Layout.Total)
		}
	}
}

func TestCallDecreasePositive(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultConfig(seeds(4)...)
	// The two hot workers are most of this fixture's code, so the
	// paper's 1.5x growth budget only covers one of them; allow both.
	cfg.Inline.MaxGrowth = 2.5
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec := res.CallDecrease()
	if dec <= 0.5 {
		t.Fatalf("call decrease = %v, want > 0.5 for hot call sites", dec)
	}
	if res.InstrsPerCall() <= 0 || res.TransfersPerCall() <= 0 {
		t.Fatal("per-call metrics not positive")
	}
}

func TestTraceStatsPopulated(t *testing.T) {
	p := testProgram(t)
	res, err := Optimize(p, DefaultConfig(seeds(4)...))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceStats.Total() == 0 {
		t.Fatal("no control transfers classified")
	}
	// The hot loops should give a healthy desirable+neutral fraction.
	if res.TraceStats.UndesirableFrac() > 0.3 {
		t.Fatalf("undesirable fraction %v suspiciously high", res.TraceStats.UndesirableFrac())
	}
	if res.TraceStats.AvgTraceLength() < 1 {
		t.Fatal("average trace length below 1")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := testProgram(t)
	r1, err := Optimize(p, DefaultConfig(seeds(3)...))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(p, DefaultConfig(seeds(3)...))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Prog.Bytes() != r2.Prog.Bytes() || r1.EffectiveBytes != r2.EffectiveBytes {
		t.Fatal("pipeline is not deterministic")
	}
	for _, f := range r1.Prog.Funcs {
		for _, b := range f.Blocks {
			if r1.Layout.BlockAddr(f.ID, b.ID) != r2.Layout.BlockAddr(f.ID, b.ID) {
				t.Fatalf("layout differs at %s/%d", f.Name, b.ID)
			}
		}
	}
}

func TestDeadFunctionInColdRegion(t *testing.T) {
	p := testProgram(t)
	res, err := Optimize(p, DefaultConfig(seeds(4)...))
	if err != nil {
		t.Fatal(err)
	}
	var dead *ir.Function
	for _, f := range res.Prog.Funcs {
		if f.Name == "dead" {
			dead = f
		}
	}
	if dead == nil {
		t.Fatal("dead function missing")
	}
	addr := res.Layout.BlockAddr(dead.ID, dead.Entry)
	if addr < uint32(res.EffectiveBytes) {
		t.Fatalf("never-called function placed at %d, inside effective region (%d)",
			addr, res.EffectiveBytes)
	}
}

func TestPerCallMetricsEdgeCases(t *testing.T) {
	p := testProgram(t)
	res, err := Optimize(p, DefaultConfig(seeds(3)...))
	if err != nil {
		t.Fatal(err)
	}
	// Zero-call edge cases (mutate copies of the counters).
	saved := *res.Weights
	savedOrig := *res.OrigWeights
	defer func() { *res.Weights = saved; *res.OrigWeights = savedOrig }()
	res.Weights.DynCalls = 0
	if got := res.InstrsPerCall(); got != float64(res.Weights.DynInstrs) {
		t.Fatalf("InstrsPerCall with zero calls = %v", got)
	}
	if got := res.TransfersPerCall(); got != float64(res.Weights.DynBranches) {
		t.Fatalf("TransfersPerCall with zero calls = %v", got)
	}
	res.Weights.DynCalls = res.OrigWeights.DynCalls + 5
	if got := res.CallDecrease(); got != 0 {
		t.Fatalf("CallDecrease with more calls after = %v, want 0", got)
	}
	res.OrigWeights.DynCalls = 0
	if got := res.CallDecrease(); got != 0 {
		t.Fatalf("CallDecrease with zero calls before = %v, want 0", got)
	}
}
