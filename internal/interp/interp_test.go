package interp

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"impact/internal/ir"
	"impact/internal/memtrace"
)

// runRecorder is a memtrace.Sink that keeps every fetch run.
type runRecorder struct {
	runs  []memtrace.Run
	words uint64
}

func (r *runRecorder) Run(run memtrace.Run) {
	r.runs = append(r.runs, run)
	r.words += uint64(run.Words())
}

// naturalAddrs returns every block's address with blocks laid out in
// program order, the engine's address-table order.
func naturalAddrs(p *ir.Program) []uint32 {
	var addrs []uint32
	var at uint32
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			addrs = append(addrs, at)
			at += uint32(b.Bytes())
		}
	}
	return addrs
}

// countAndTrace runs p once counting and once tracing and counting
// under its natural addresses, and checks both runs agree: the same
// result, the same counts, and a maximal trace of the run.
func countAndTrace(t *testing.T, p *ir.Program, seed uint64, cfg Config) (Result, *Counts, *runRecorder) {
	t.Helper()
	e := NewEngine(p)
	c := e.NewCounts()
	res, err := e.Count(seed, cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	rec := &runRecorder{}
	tc := e.NewCounts()
	tres, err := e.Trace(seed, cfg, naturalAddrs(p), rec, tc)
	if err != nil {
		t.Fatal(err)
	}
	if tres != res {
		t.Fatalf("traced run %+v, counting run %+v", tres, res)
	}
	if !reflect.DeepEqual(tc, c) {
		t.Fatalf("traced run counted %+v, counting run %+v", tc, c)
	}
	checkMaximal(t, rec.runs, res.Instrs)
	return res, c, rec
}

// checkMaximal fails t unless runs is a maximal run sequence of an
// execution of instrs instructions: no run is empty, no run starts
// where the previous one ends unless joining the two would pass 32
// bits, and the runs' words sum to instrs.
func checkMaximal(t testing.TB, runs []memtrace.Run, instrs uint64) {
	t.Helper()
	var words uint64
	for i, r := range runs {
		if r.Bytes == 0 {
			t.Fatalf("run %d is empty", i)
		}
		words += uint64(r.Words())
		if i == 0 {
			continue
		}
		prev := runs[i-1]
		if uint64(prev.Addr)+uint64(prev.Bytes) == uint64(r.Addr) && uint64(prev.Bytes)+uint64(r.Bytes) <= math.MaxUint32 {
			t.Fatalf("run %d %+v continues run %d %+v", i, r, i-1, prev)
		}
	}
	if words != instrs {
		t.Fatalf("runs hold %d words, run executed %d instructions", words, instrs)
	}
}

// count runs e once into fresh counters.
func count(e *Engine, seed uint64, cfg Config) (Result, error) {
	return e.Count(seed, cfg, e.NewCounts())
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// straightLine builds: main: b0(3 instrs) -> b1(2 instrs, ret).
func straightLine(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	b0 := fb.NewBlock()
	b1 := fb.NewBlock()
	fb.Fill(b0, 3)
	fb.FallThrough(b0, b1)
	fb.Fill(b1, 1)
	fb.Ret(b1)
	return pb.Build()
}

// callProgram builds main calling leaf once mid-block.
func callProgram(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 2)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	mb := main.NewBlock()
	main.Fill(mb, 2)
	main.Call(mb, leaf.ID())
	main.Fill(mb, 3)
	main.Ret(mb)
	pb.SetEntry(main.ID())
	return pb.Build()
}

// loopProgram builds a loop with back-edge probability p.
func loopProgram(t *testing.T, p float64) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	head := fb.NewBlock()
	body := fb.NewBlock()
	exit := fb.NewBlock()
	fb.Fill(head, 1)
	fb.FallThrough(head, body)
	fb.Fill(body, 4)
	fb.Branch(body, ir.Arc{To: body, Prob: p}, ir.Arc{To: exit, Prob: 1 - p})
	fb.Fill(exit, 1)
	fb.Ret(exit)
	return pb.Build()
}

func TestStraightLineEvents(t *testing.T) {
	p := straightLine(t)
	res, c, rec := countAndTrace(t, p, 1, Config{})
	if !res.Completed {
		t.Fatal("straight-line run did not complete")
	}
	// 3 filler in b0 (fallthrough adds no instr) + 2 in b1 = 5.
	if res.Instrs != 5 {
		t.Fatalf("Instrs = %d, want 5", res.Instrs)
	}
	if rec.words != 5 {
		t.Fatalf("trace holds %d words, want 5", rec.words)
	}
	// One segment per block, b0 [0,12) and b1 [12,20), contiguous
	// under natural addresses: the sink sees one maximal run.
	want := []memtrace.Run{{Addr: 0, Bytes: 20}}
	if !slices.Equal(rec.runs, want) {
		t.Fatalf("runs %v, want %v", rec.runs, want)
	}
	if !slices.Equal(c.Blocks, []uint64{1, 1}) {
		t.Fatalf("block entries %v, want [1 1]", c.Blocks)
	}
	if !slices.Equal(c.Arcs, []uint64{1}) {
		t.Fatalf("arc counts %v, want [1]", c.Arcs)
	}
	if res.Branches != 1 {
		t.Fatalf("Branches = %d, want 1", res.Branches)
	}
	if res.Returns != 1 {
		t.Fatal("expected exactly one return")
	}
}

func TestCallSequence(t *testing.T) {
	p := callProgram(t)
	res, c, rec := countAndTrace(t, p, 7, Config{})
	// main block: 2 fill + call + 3 fill + ret = 7; leaf: 3. Total 10.
	if res.Instrs != 10 {
		t.Fatalf("Instrs = %d, want 10", res.Instrs)
	}
	if res.Calls != 1 {
		t.Fatalf("Calls = %d, want 1", res.Calls)
	}
	if res.Returns != 2 {
		t.Fatalf("Returns = %d, want 2", res.Returns)
	}
	// The program's one call instruction (main's, at instruction 2)
	// executed once.
	if !slices.Equal(c.Calls, []uint64{1}) {
		t.Fatalf("call counts %v, want [1]", c.Calls)
	}
	if p.Funcs[1].Blocks[0].Instrs[2].Op != ir.OpCall {
		t.Fatal("main's call is not at instruction 2")
	}
	// Segments: main [0,3) (incl. call), leaf [0,3), main [3,7). The
	// leaf block sits at 0, main's at 12.
	want := []memtrace.Run{{Addr: 12, Bytes: 12}, {Addr: 0, Bytes: 12}, {Addr: 24, Bytes: 16}}
	if !slices.Equal(rec.runs, want) {
		t.Fatalf("runs %v, want %v", rec.runs, want)
	}
	// Block entries: main entry once, leaf entry once. Resuming main
	// after the call must NOT re-enter the block.
	if !slices.Equal(c.Blocks, []uint64{1, 1}) {
		t.Fatalf("block entries %v, want [1 1]", c.Blocks)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := loopProgram(t, 0.9)
	e := NewEngine(p)
	r1, err := count(e, 123, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := count(e, 123, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

// TestEngineConcurrentRuns drives one engine from many goroutines
// (mixed seeds, each re-run many times) under the race detector and
// checks every run equals a fresh engine's run of its seed.
func TestEngineConcurrentRuns(t *testing.T) {
	p := loopProgram(t, 0.6)
	e := NewEngine(p)
	cfg := Config{MaxSteps: 1000, ProbJitter: 0.2}
	want := map[uint64]Result{}
	for seed := uint64(0); seed < 4; seed++ {
		r, err := count(NewEngine(p), seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = r
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				seed := uint64((g + i) % 4)
				r, err := count(e, seed, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if r != want[seed] {
					t.Errorf("seed %d: %+v, want %+v", seed, r, want[seed])
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p := loopProgram(t, 0.9)
	e := NewEngine(p)
	r1, _ := count(e, 1, Config{})
	r2, _ := count(e, 2, Config{})
	if r1.Instrs == r2.Instrs {
		// Possible but wildly unlikely for a geometric loop; try a
		// third seed before declaring failure.
		r3, _ := count(e, 3, Config{})
		if r3.Instrs == r1.Instrs {
			t.Fatal("three seeds produced identical loop lengths")
		}
	}
}

func TestLoopMeanTripCount(t *testing.T) {
	p := loopProgram(t, 0.9) // mean 10 iterations
	e := NewEngine(p)
	var totalBody uint64
	const runs = 2000
	for s := uint64(0); s < runs; s++ {
		res, err := count(e, s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// body executes (instrs - head 1 - exit 2) / 5 times.
		totalBody += (res.Instrs - 3) / 5
	}
	mean := float64(totalBody) / runs
	if mean < 8.5 || mean > 11.5 {
		t.Fatalf("mean trip count %v, want ~10", mean)
	}
}

func TestMaxStepsStopsRun(t *testing.T) {
	p := loopProgram(t, 0.999999) // effectively infinite
	res, err := count(NewEngine(p), 5, Config{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run claimed completion despite step cap")
	}
	if res.Instrs < 1000 || res.Instrs > 1100 {
		t.Fatalf("Instrs = %d, want ~1000", res.Instrs)
	}
}

func TestMaxDepthError(t *testing.T) {
	// Build mutually recursive a <-> b with no escape below the depth
	// cap: a calls b, b calls a, both before their rets... but
	// validation requires exits; give each a ret after the call so the
	// program is valid yet recursion is unconditional.
	pb := ir.NewProgramBuilder()
	fa := pb.NewFunc("a")
	fbF := pb.NewFunc("b")
	ab := fa.NewBlock()
	fa.Call(ab, fbF.ID())
	fa.Ret(ab)
	bb := fbF.NewBlock()
	fbF.Call(bb, fa.ID())
	fbF.Ret(bb)
	pb.SetEntry(fa.ID())
	p := pb.Build()

	_, err := count(NewEngine(p), 1, Config{MaxDepth: 64})
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("err = %v, want ErrDepthExceeded", err)
	}
}

func TestProbJitterValidation(t *testing.T) {
	p := straightLine(t)
	if _, err := count(NewEngine(p), 1, Config{ProbJitter: 1.5}); err == nil {
		t.Fatal("ProbJitter 1.5 accepted")
	}
	if _, err := count(NewEngine(p), 1, Config{ProbJitter: -0.1}); err == nil {
		t.Fatal("negative ProbJitter accepted")
	}
}

func TestProbJitterChangesBehaviour(t *testing.T) {
	p := loopProgram(t, 0.95)
	e := NewEngine(p)
	// Same arc-choice seed, different jitter: trip counts should
	// differ for at least one of a few seeds.
	differs := false
	for s := uint64(0); s < 5 && !differs; s++ {
		a, _ := count(e, s, Config{})
		b, _ := count(e, s, Config{ProbJitter: 0.3})
		differs = a.Instrs != b.Instrs
	}
	if !differs {
		t.Fatal("jitter had no observable effect")
	}
}

func TestEmptyBlockExecutes(t *testing.T) {
	// Hand-build a program with an empty pass-through block, as inline
	// expansion creates.
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	b0 := fb.NewBlock()
	mid := fb.NewBlock()
	b1 := fb.NewBlock()
	fb.Fill(b0, 2)
	fb.FallThrough(b0, mid)
	fb.FallThrough(mid, b1) // mid stays empty
	fb.Fill(b1, 1)
	fb.Ret(b1)
	p := pb.Build()

	res, c, rec := countAndTrace(t, p, 1, Config{})
	if res.Instrs != 4 {
		t.Fatalf("Instrs = %d, want 4", res.Instrs)
	}
	if !slices.Equal(c.Blocks, []uint64{1, 1, 1}) {
		t.Fatalf("block entries %v, want [1 1 1] (empty block still entered)", c.Blocks)
	}
	// Empty block must not emit a zero-length run.
	for _, r := range rec.runs {
		if r.Bytes == 0 {
			t.Fatalf("zero-length run emitted: %v", r)
		}
	}
}

func TestBranchDistribution(t *testing.T) {
	// entry branches 0.8/0.2 to two ret blocks; measure arc frequency.
	pb := ir.NewProgramBuilder()
	fb := pb.NewFunc("main")
	e0 := fb.NewBlock()
	l := fb.NewBlock()
	r := fb.NewBlock()
	fb.Fill(e0, 1)
	fb.Branch(e0, ir.Arc{To: l, Prob: 0.8}, ir.Arc{To: r, Prob: 0.2})
	fb.Ret(l)
	fb.Ret(r)
	p := pb.Build()

	eng := NewEngine(p)
	c := eng.NewCounts()
	const runs = 5000
	for s := uint64(0); s < runs; s++ {
		if _, err := eng.Count(s, Config{}, c); err != nil {
			t.Fatal(err)
		}
	}
	if c.Arcs[0]+c.Arcs[1] != runs {
		t.Fatalf("arc counts %v, want %d in total", c.Arcs, runs)
	}
	frac := float64(c.Arcs[0]) / runs
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("arc 0 taken fraction %v, want ~0.8", frac)
	}
}

// TestShapeMismatch: counters or an address table shaped for another
// program are rejected before the run starts.
func TestShapeMismatch(t *testing.T) {
	e := NewEngine(callProgram(t))
	other := NewEngine(straightLine(t))
	if _, err := e.Count(1, Config{}, other.NewCounts()); err == nil {
		t.Error("Count accepted counters of another program")
	}
	if _, err := e.Trace(1, Config{}, []uint32{0}, &runRecorder{}, nil); err == nil {
		t.Error("Trace accepted a one-block address table for a two-block program")
	}
	if _, err := e.Trace(1, Config{}, naturalAddrs(callProgram(t)), &runRecorder{}, other.NewCounts()); err == nil {
		t.Error("Trace accepted counters of another program")
	}
}

// TestTraceRunsAreMaximal: Trace hands its sink maximal runs whose
// words sum to the executed instructions, under natural addresses and
// under a table that puts block 0 at the top of the address space and
// its successor at address 0, where a run ending at the top must not
// join one starting at 0.
func TestTraceRunsAreMaximal(t *testing.T) {
	for _, p := range []*ir.Program{straightLine(t), callProgram(t), loopProgram(t, 0.9), loopCallProgram(t)} {
		nat := naturalAddrs(p)
		top := make([]uint32, len(nat))
		for i, a := range nat {
			top[i] = a - uint32(p.Funcs[0].Blocks[0].Bytes())
		}
		for _, addrs := range [][]uint32{nat, top} {
			for seed := uint64(1); seed <= 3; seed++ {
				rec := &runRecorder{}
				res, err := NewEngine(p).Trace(seed, Config{MaxSteps: 5000, ProbJitter: 0.3}, addrs, rec, nil)
				if err != nil {
					t.Fatalf("%s seed %d: %v", p.EntryFunc().Name, seed, err)
				}
				checkMaximal(t, rec.runs, res.Instrs)
			}
		}
	}
	rec := &runRecorder{}
	top := []uint32{0xFFFFFFF4, 0}
	if _, err := NewEngine(straightLine(t)).Trace(1, Config{}, top, rec, nil); err != nil {
		t.Fatal(err)
	}
	if want := []memtrace.Run{{Addr: 0xFFFFFFF4, Bytes: 12}, {Addr: 0, Bytes: 8}}; !slices.Equal(rec.runs, want) {
		t.Fatalf("runs %v, want %v", rec.runs, want)
	}
}
