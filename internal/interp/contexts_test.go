package interp

import (
	"math"
	"reflect"
	"testing"

	"impact/internal/ir"
)

// TestContextsNestUnderTheLimit: a call nests its callee below the
// caller's context while the chain's cost fits the budget and the
// callee is not the root function; every other call counts in the
// callee's root context. The contexts sum to the plain counts, and
// RunCalls splits the call counts by run.
func TestContextsNestUnderTheLimit(t *testing.T) {
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf") // 0
	mid := pb.NewFunc("mid")   // 1
	main := pb.NewFunc("main") // 2
	lb := leaf.NewBlock()
	leaf.Fill(lb, 1)
	leaf.Ret(lb)
	mb := mid.NewBlock()
	mid.Call(mb, leaf.ID())
	mid.Ret(mb)
	b := main.NewBlock()
	main.Call(b, mid.ID())  // call 0: nests
	main.Call(b, leaf.ID()) // call 1: nests
	main.Ret(b)
	pb.SetEntry(main.ID())
	p := pb.Build()

	e := NewEngine(p)
	// mid and leaf cost 4 each: mid nests below main (4 <= 6), and
	// leaf below main (4 <= 6), but not below main/mid (8 > 6).
	x := e.NewContexts(ContextLimit{Cost: []int{4, 4, 4}, Budget: 6})
	c := e.NewCounts()
	for seed := uint64(1); seed <= 2; seed++ {
		res, err := x.Count(seed, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if cres, err := e.Count(seed, Config{}, c); err != nil || cres != res {
			t.Fatalf("counting in context gave %+v, counting %+v (%v)", res, cres, err)
		}
	}
	if !reflect.DeepEqual(x.Sum(), c) {
		t.Fatalf("contexts sum to %+v, counting gave %+v", x.Sum(), c)
	}
	root := x.Root(main.ID())
	if root < 0 || x.Root(mid.ID()) >= 0 {
		t.Fatalf("root contexts main %d, mid %d: want main's only", root, x.Root(mid.ID()))
	}
	m, nested := x.Child(root, 0)
	if m < 0 || !nested {
		t.Fatalf("main's call of mid: context %d nested %t, want a nested one", m, nested)
	}
	if l, nested := x.Child(root, 1); l < 0 || !nested {
		t.Fatalf("main's call of leaf: context %d nested %t, want a nested one", l, nested)
	}
	l, nested := x.Child(m, 0)
	if nested || l != x.Root(leaf.ID()) {
		t.Fatalf("mid's call of leaf below main: context %d nested %t, want leaf's root %d", l, nested, x.Root(leaf.ID()))
	}
	if blocks, _, calls := x.Counts(l); blocks[0] != 2 || len(calls) != 0 {
		t.Fatalf("leaf's root context counted blocks %v calls %v, want one entry per run", blocks, calls)
	}
	for r := range 2 {
		if n := x.RunCalls(r, m, 0); n != 1 {
			t.Errorf("run %d: mid's call counted %d times, want 1", r, n)
		}
	}
}

// TestContextsBoundedByProgram: recursion that fans out below its root
// would nest a context on almost every call; the table stops nesting
// once its nested contexts hold nestedScale times the program's
// counters, and still sums to the plain counts.
func TestContextsBoundedByProgram(t *testing.T) {
	pb := ir.NewProgramBuilder()
	f := pb.NewFunc("f")
	main := pb.NewFunc("main")
	e := f.NewBlock()
	two := f.NewBlock()
	x := f.NewBlock()
	f.Fill(e, 1)
	f.Branch(e, ir.Arc{To: two, Prob: 0.45}, ir.Arc{To: x, Prob: 0.55})
	f.Call(two, f.ID())
	f.Call(two, f.ID())
	f.Jump(two, x)
	f.Ret(x)
	loop := main.NewBlock()
	done := main.NewBlock()
	main.Call(loop, f.ID())
	main.Branch(loop, ir.Arc{To: loop, Prob: 0.999}, ir.Arc{To: done, Prob: 0.001})
	main.Ret(done)
	pb.SetEntry(main.ID())
	p := pb.Build()

	eng := NewEngine(p)
	tab := eng.NewContexts(ContextLimit{Cost: []int{0, 0}, Budget: 0})
	c := eng.NewCounts()
	cfg := Config{MaxSteps: 1 << 16}
	res, err := tab.Count(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Count(1, cfg, c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab.Sum(), c) {
		t.Fatal("contexts do not sum to the plain counts")
	}
	prog := len(c.Blocks) + len(c.Arcs) + len(c.Calls)
	held := len(tab.blocks) + len(tab.arcs) + len(tab.calls) - prog
	if res.Calls < uint64(10*len(tab.nodes)) || held > (nestedScale+1)*prog {
		t.Errorf("%d calls made %d contexts holding %d counters; want far fewer contexts than calls and at most %d counters",
			res.Calls, len(tab.nodes), held, (nestedScale+1)*prog)
	}
}

// TestContextsRunInstrs: a completed run's block entries weighted by
// another program's block lengths are what that program executes on
// the same seed, when it differs only in block lengths; a count past
// 64 bits saturates instead of wrapping below the step guard.
func TestContextsRunInstrs(t *testing.T) {
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	main := pb.NewFunc("main")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 2)
	leaf.Ret(lb)
	loop := main.NewBlock()
	done := main.NewBlock()
	main.Fill(loop, 3)
	main.Call(loop, leaf.ID())
	main.Branch(loop, ir.Arc{To: loop, Prob: 0.9}, ir.Arc{To: done, Prob: 0.1})
	main.Ret(done)
	pb.SetEntry(main.ID())
	p := pb.Build()

	x := NewEngine(p).NewContexts(ContextLimit{Cost: []int{4, 4}, Budget: 4})
	seeds := []uint64{1, 2}
	var want, wantScaled []uint64
	q := ir.ScaleCode(p, 1.7)
	for _, seed := range seeds {
		res, err := x.Count(seed, Config{})
		if err != nil || !res.Completed {
			t.Fatalf("seed %d: %+v, %v", seed, res, err)
		}
		scaled, err := NewEngine(q).Count(seed, Config{}, NewEngine(q).NewCounts())
		if err != nil || !scaled.Completed {
			t.Fatalf("seed %d on the scaled program: %+v, %v", seed, scaled, err)
		}
		want, wantScaled = append(want, res.Instrs), append(wantScaled, scaled.Instrs)
	}
	if got := x.RunInstrs(p); !reflect.DeepEqual(got, want) {
		t.Errorf("RunInstrs on the counted program %v, runs executed %v", got, want)
	}
	if got := x.RunInstrs(q); !reflect.DeepEqual(got, wantScaled) {
		t.Errorf("RunInstrs on the scaled program %v, its runs executed %v", got, wantScaled)
	}
	// Run 1 entered main's loop block 2^63 more times.
	slot := int(x.nodes[x.Root(main.ID())].b + x.fb[main.ID()])
	x.runBlocks[1][slot] += 1 << 63
	if got := x.RunInstrs(p); got[0] != want[0] || got[1] != math.MaxUint64 {
		t.Errorf("RunInstrs past 64 bits %v, want [%d %d]", got, want[0], uint64(math.MaxUint64))
	}
}
