package interp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"impact/internal/ir"
)

// ContextLimit bounds a Contexts table by the program rather than by
// its runs: it decides which calls nest their callee's activations
// below the caller's context. A call nests when its callee's Cost is
// not negative, the callee is not the context's root function, the
// context's chain cost plus the callee's Cost stays within Budget, and
// the table's nested contexts still fit nestedScale times the
// program's own counters. Every other call counts in its callee's root
// context.
type ContextLimit struct {
	// Cost[f] is what nesting function f adds to a context's chain
	// cost, one entry per function; a negative cost means f never
	// nests.
	Cost []int
	// Budget caps a context's chain cost: the summed Cost of the
	// functions on its path below the root.
	Budget int
}

// nestedScale bounds a table's nested contexts at this many times the
// counters of the program, so that the table grows with the program
// and not with the runs: recursion that fans out below a root would
// otherwise nest a new context on almost every call. The 22 suite and
// extension programs need at most 1.2 times (make, scale 1.0).
const nestedScale = 8

// Contexts counts a profiling session per calling context. A context
// is a root function and the exact path of call instructions below it;
// a root context is the root function alone, and it counts every
// activation whose call did not nest (and the entry function's run).
// Each context counts its function's blocks, arcs and calls as Counts
// does for the whole program, so the contexts sum to the session's
// Counts (Sum).
//
// Contexts are created when first entered, and each keeps a child
// table indexed by its function's call instructions, so a counting run
// looks up one slot per call. The table also keeps every run's block
// and call counts (RunInstrs, RunCalls). Build one with
// Engine.NewContexts and count into it with Count, which is not safe
// for concurrent runs; once counting ends, the table is only read.
type Contexts struct {
	e     *Engine
	limit ContextLimit
	// fb, fa and fc are the flat indices of every function's first
	// block, arc and call instruction, plus one entry past the last.
	fb, fa, fc []int32
	nodes      []context
	// roots[f] is one more than the index of f's root context, zero
	// until f's first root activation.
	roots []int32
	// blocks, arcs and calls hold every context's counts, and kids,
	// parallel to calls, the context each call's activations count in
	// (one more than its index; zero until the call first executes).
	// Each starts with one program's worth of unused slots, so that
	// every context's counts can be addressed by flat index from a
	// subslice, as a run counts into Counts.
	blocks, arcs, calls []uint64
	kids                []int32
	// runBlocks[r] and runCalls[r] are copies of blocks and calls
	// after run r.
	runBlocks, runCalls [][]uint64
	// room is how many more counters nested contexts may take.
	room int
}

// context is one node of a Contexts table.
type context struct {
	fn, root ir.FuncID
	// cost is the chain cost of the path below root.
	cost int
	// b, a and c start the subslices of blocks, arcs and calls/kids
	// that hold the context's counts at fn's flat indices.
	b, a, c int32
}

// NewContexts returns an empty context table for the engine's program
// under limit, which must hold one Cost per function.
func (e *Engine) NewContexts(limit ContextLimit) *Contexts {
	n := len(e.prog.Funcs)
	x := &Contexts{
		e:      e,
		limit:  limit,
		fb:     e.funcs,
		fa:     make([]int32, n+1),
		fc:     make([]int32, n+1),
		roots:  make([]int32, n),
		blocks: make([]uint64, len(e.blocks)),
		arcs:   make([]uint64, len(e.succ)),
		calls:  make([]uint64, len(e.calls)),
		kids:   make([]int32, len(e.calls)),
		room:   nestedScale * (len(e.blocks) + len(e.succ) + len(e.calls)),
	}
	x.fa[n], x.fc[n] = int32(len(e.succ)), int32(len(e.calls))
	for f := n - 1; f >= 0; f-- {
		x.fa[f], x.fc[f] = x.fa[f+1], x.fc[f+1]
		if e.funcs[f] < e.funcs[f+1] {
			b := e.blocks[e.funcs[f]]
			x.fa[f], x.fc[f] = b.arcs, b.calls
		}
	}
	return x
}

// Count executes the engine's program with the given seed as its
// "input", adding its block, arc and call counts to the contexts of x.
func (x *Contexts) Count(seed uint64, cfg Config) (Result, error) {
	if n := len(x.e.prog.Funcs); len(x.limit.Cost) != n {
		return Result{}, fmt.Errorf("interp: context limit prices %d functions, program has %d", len(x.limit.Cost), n)
	}
	res, err := x.e.run(seed, cfg, nil, x, nil, nil)
	if err == nil {
		x.runBlocks = append(x.runBlocks, slices.Clone(x.blocks))
		x.runCalls = append(x.runCalls, slices.Clone(x.calls))
	}
	return res, err
}

// newContext appends a zeroed context of function fn.
func (x *Contexts) newContext(fn, root ir.FuncID, cost int) int32 {
	x.nodes = append(x.nodes, context{
		fn: fn, root: root, cost: cost,
		b: int32(len(x.blocks)) - x.fb[fn], a: int32(len(x.arcs)) - x.fa[fn], c: int32(len(x.calls)) - x.fc[fn],
	})
	x.blocks = append(x.blocks, make([]uint64, x.fb[fn+1]-x.fb[fn])...)
	x.arcs = append(x.arcs, make([]uint64, x.fa[fn+1]-x.fa[fn])...)
	nc := x.fc[fn+1] - x.fc[fn]
	x.calls = append(x.calls, make([]uint64, nc)...)
	x.kids = append(x.kids, make([]int32, nc)...)
	return int32(len(x.nodes) - 1)
}

// root returns f's root context, creating it on first use.
func (x *Contexts) root(f ir.FuncID) int32 {
	if x.roots[f] == 0 {
		x.roots[f] = x.newContext(f, f, 0) + 1
	}
	return x.roots[f] - 1
}

// enter returns the context in which the activations of flat call
// instruction call, executed in context n, count. entry is the flat
// index of the callee's entry block.
func (x *Contexts) enter(n, call, entry int32) int32 {
	if k := x.kids[x.nodes[n].c+call]; k != 0 {
		return k - 1
	}
	return x.decide(n, call, entry)
}

// decide settles where the activations of context n's call count, on
// its first execution: in a new child of n when the call nests under
// the limit, in the callee's root context otherwise.
func (x *Contexts) decide(n, call, entry int32) int32 {
	callee := x.e.funcOf(entry)
	from := x.nodes[n]
	size := int(x.fb[callee+1] - x.fb[callee] + x.fa[callee+1] - x.fa[callee] + x.fc[callee+1] - x.fc[callee])
	var to int32
	if cost := x.limit.Cost[callee]; cost >= 0 && callee != from.root && from.cost+cost <= x.limit.Budget && size <= x.room {
		x.room -= size
		to = x.newContext(callee, from.root, from.cost+cost)
	} else {
		to = x.root(callee)
	}
	x.kids[from.c+call] = to + 1
	return to
}

// counts returns the subslices a run counts context n's activations
// into, addressed by flat index.
func (x *Contexts) counts(n int32) (blocks, arcs, calls []uint64) {
	nd := &x.nodes[n]
	return x.blocks[nd.b:], x.arcs[nd.a:], x.calls[nd.c:]
}

// Root returns f's root context, or -1 when f never had a root
// activation.
func (x *Contexts) Root(f ir.FuncID) int { return int(x.roots[f]) - 1 }

// Counts returns context n's counts, indexed as in Counts but from its
// function's first block, arc and call instruction: blocks by BlockID,
// arcs and calls in the function's program order. The slices alias the
// table.
func (x *Contexts) Counts(n int) (blocks, arcs, calls []uint64) {
	c := x.nodes[n]
	f := c.fn
	return x.blocks[c.b+x.fb[f] : c.b+x.fb[f+1]], x.arcs[c.a+x.fa[f] : c.a+x.fa[f+1]], x.calls[c.c+x.fc[f] : c.c+x.fc[f+1]]
}

// Child returns the context in which the activations of context n's
// call instruction number call (in its function's program order)
// count, and whether that context nests below n rather than being the
// callee's root context. It returns -1 when the call never executed
// in n.
func (x *Contexts) Child(n, call int) (child int, nested bool) {
	c := x.nodes[n]
	k := int(x.kids[int(c.c+x.fc[c.fn])+call]) - 1
	if k < 0 {
		return -1, false
	}
	return k, x.roots[x.nodes[k].fn]-1 != int32(k)
}

// RunCalls returns how many times run r (in Count order)
// executed context n's call instruction number call.
func (x *Contexts) RunCalls(r, n, call int) uint64 {
	c := x.nodes[n]
	return runCount(x.runCalls, r, int(c.c+x.fc[c.fn])+call)
}

// RunInstrs returns, for each run in Count order, its block entries
// weighted by q's block lengths, saturating at math.MaxUint64. q must
// have the table's functions and blocks; only block lengths may
// differ. A completed run executes the whole block on every entry, so
// on the table's own program this is the run's Instrs, and on q it is
// the Instrs of a run of q that enters the same blocks.
func (x *Contexts) RunInstrs(q *ir.Program) []uint64 {
	lens := make([]uint64, 0, len(x.e.blocks))
	for _, fn := range q.Funcs {
		for _, b := range fn.Blocks {
			lens = append(lens, uint64(len(b.Instrs)))
		}
	}
	out := make([]uint64, len(x.runBlocks))
runs:
	for r := range out {
		for _, c := range x.nodes {
			for b := x.fb[c.fn]; b < x.fb[c.fn+1]; b++ {
				hi, lo := bits.Mul64(runCount(x.runBlocks, r, int(c.b+b)), lens[b])
				var carry uint64
				if out[r], carry = bits.Add64(out[r], lo, 0); hi|carry != 0 {
					out[r] = math.MaxUint64
					continue runs
				}
			}
		}
	}
	return out
}

// runCount returns what run r added to counter slot, given copies of
// the counters after each run.
func runCount(runs [][]uint64, r, slot int) uint64 {
	at := func(r int) uint64 {
		if r < 0 || slot >= len(runs[r]) {
			return 0
		}
		return runs[r][slot]
	}
	return at(r) - at(r-1)
}

// Sum returns the table's counts summed over its contexts: the Counts
// that Count would have accumulated over the same runs.
func (x *Contexts) Sum() *Counts {
	out := x.e.NewCounts()
	for n := range x.nodes {
		f := x.nodes[n].fn
		blocks, arcs, calls := x.Counts(n)
		add(out.Blocks[x.fb[f]:], blocks)
		add(out.Arcs[x.fa[f]:], arcs)
		add(out.Calls[x.fc[f]:], calls)
	}
	return out
}

func add(dst, src []uint64) {
	for i, v := range src {
		dst[i] += v
	}
}
