package interp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"impact/internal/ir"
)

// FuzzEngine runs arbitrary IR text through the run loop three times,
// counting, counting in context and tracing while counting, under a
// small step cap. All runs must agree on the Result, the contexts and
// the traced run's counts must equal the plain counts, the trace must
// be maximal — no run starts where the previous one ends unless
// joining them would pass 32 bits — and its words must equal the
// executed instructions, and a completed run's counts must balance:
// blocks weighted by their lengths sum to Instrs, as the context
// table's RunInstrs does, each non-exit block's arcs sum to its
// entries, and the call counts sum to Calls. The only error a valid
// program may produce is ErrDepthExceeded — recursion must stop
// there, never panic.
func FuzzEngine(f *testing.F) {
	// Unbounded mutual recursion.
	f.Add("program entry=0\nfunc 0 a\nblock 0 entry\n alu call:1 ret\nfunc 1 b\nblock 0 entry\n call:0 ret\n", uint64(1), uint8(0))
	// A single block.
	f.Add("program entry=0\nfunc 0 main\nblock 0 entry\n alu*3\n ret\n", uint64(2), uint8(0))
	// Calls at instruction 0, one of them in an empty-headed loop.
	f.Add("program entry=1\nfunc 0 leaf\nblock 0 entry\n alu\n ret\n"+
		"func 1 main\nblock 0 entry\n call:0 alu\n jump\n -> 1 1\nblock 1\n call:0\n branch\n -> 1 0.75\n -> 2 0.25\nblock 2\n ret\n",
		uint64(3), uint8(30))
	// Zero-probability arcs, including a block whose only live arc is
	// its last.
	f.Add("program entry=0\nfunc 0 main\nblock 0 entry\n alu\n branch\n -> 1 0\n -> 2 0\n -> 3 1\n"+
		"block 1\n ret\nblock 2\n ret\nblock 3\n alu*2\n branch\n -> 0 0.5\n -> 1 0.5\n", uint64(4), uint8(50))
	// Recursion that usually unwinds.
	f.Add("program entry=0\nfunc 0 f\nblock 0 entry\n alu\n branch\n -> 1 0.4\n -> 2 0.6\nblock 1\n call:0 alu\n ret\nblock 2\n ret\n",
		uint64(5), uint8(10))

	f.Fuzz(func(t *testing.T, src string, seed uint64, jitter uint8) {
		p, err := ir.Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		cfg := Config{MaxSteps: 1 << 12, MaxDepth: 64, ProbJitter: float64(jitter%100) / 100}
		e := NewEngine(p)
		c := e.NewCounts()
		res, cerr := e.Count(seed, cfg, c)
		var rec runRecorder
		tc := e.NewCounts()
		tres, terr := e.Trace(seed, cfg, naturalAddrs(p), &rec, tc)
		if (cerr == nil) != (terr == nil) || (cerr != nil && cerr.Error() != terr.Error()) {
			t.Fatalf("counting run error %v, tracing run error %v", cerr, terr)
		}
		if res != tres {
			t.Fatalf("counting run %+v, tracing run %+v", res, tres)
		}
		if !reflect.DeepEqual(tc, c) {
			t.Fatalf("tracing run counted %+v, counting run %+v", tc, c)
		}
		checkMaximal(t, rec.runs, res.Instrs)
		x := e.NewContexts(fuzzLimit(p, int(jitter)))
		xres, xerr := x.Count(seed, cfg)
		if (cerr == nil) != (xerr == nil) || (cerr != nil && cerr.Error() != xerr.Error()) {
			t.Fatalf("counting run error %v, context run error %v", cerr, xerr)
		}
		if res != xres {
			t.Fatalf("counting run %+v, context run %+v", res, xres)
		}
		if xerr == nil && !reflect.DeepEqual(x.Sum(), c) {
			t.Fatalf("contexts sum to %+v, counting run counted %+v", x.Sum(), c)
		}
		if cerr != nil {
			if !errors.Is(cerr, ErrDepthExceeded) {
				t.Fatalf("unexpected error: %v", cerr)
			}
			return
		}
		if sum(c.Calls) != res.Calls {
			t.Fatalf("call counts sum to %d, Calls = %d", sum(c.Calls), res.Calls)
		}
		if !res.Completed {
			return
		}
		var instrs uint64
		bi, ai := 0, 0
		for _, fn := range p.Funcs {
			for _, b := range fn.Blocks {
				instrs += c.Blocks[bi] * uint64(len(b.Instrs))
				if len(b.Out) > 0 {
					if arcs := sum(c.Arcs[ai : ai+len(b.Out)]); arcs != c.Blocks[bi] {
						t.Fatalf("%s block %d: arcs taken %d times, block entered %d times", fn.Name, b.ID, arcs, c.Blocks[bi])
					}
				}
				bi++
				ai += len(b.Out)
			}
		}
		if instrs != res.Instrs {
			t.Fatalf("block counts x lengths = %d, Instrs = %d", instrs, res.Instrs)
		}
		if got := x.RunInstrs(p); len(got) != 1 || got[0] != res.Instrs {
			t.Fatalf("context table's run lengths %v, Instrs = %d", got, res.Instrs)
		}
	})
}

// fuzzLimit prices every function at its byte size less one
// instruction, as inline expansion's growth does, under a budget of
// budget instructions' worth of bytes: the fuzz input decides how deep
// contexts nest.
func fuzzLimit(p *ir.Program, budget int) ContextLimit {
	l := ContextLimit{Cost: make([]int, len(p.Funcs)), Budget: budget * ir.InstrBytes}
	for f, fn := range p.Funcs {
		l.Cost[f] = fn.Bytes() - ir.InstrBytes
		if fn.NoInline {
			l.Cost[f] = -1
		}
	}
	return l
}
