// Package interp executes IR programs under their behavioural model.
//
// The engine is the reproduction's stand-in for running a compiled
// benchmark on real hardware with a real input: it walks a program's
// control-flow graphs, choosing among a block's outgoing arcs according
// to their behavioural probabilities with a deterministic, seeded PRNG.
// One seed plays the role of one input file; the paper's "runs" (Table
// 2) become runs of this engine with distinct seeds.
//
// NewEngine compiles a program once into flat tables — one record per
// block, a flat call list and a flat successor array, all in program
// order — and a single run loop walks them. The loop has three
// consumers, and the paper's instrumented binary and traced binary are
// one program executing identically under all of them:
//
//   - Count adds execution counts to dense per-block, per-arc and
//     per-call slices (Counts); internal/profile folds them into the
//     IMPACT-I profile (node and arc weights of the call graph and
//     control graphs).
//   - Contexts.Count adds the same counts per calling context
//     (Contexts), from which internal/core derives the profile of the
//     inline-expanded program.
//   - Trace emits one instruction fetch run per executed segment of a
//     block, addressed from a per-block address table;
//     internal/layout's dynamic-trace generator feeds the cache
//     simulator with it.
package interp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"impact/internal/ir"
	"impact/internal/memtrace"
	"impact/internal/xrand"
)

// Config controls one execution.
type Config struct {
	// MaxSteps caps the number of executed instructions. Zero means
	// DefaultMaxSteps. Reaching the cap stops the run gracefully with
	// Result.Completed == false.
	MaxSteps uint64
	// MaxDepth caps the call stack depth; exceeding it is an error.
	// Zero means DefaultMaxDepth.
	MaxDepth int
	// ProbJitter perturbs every arc probability by a per-run random
	// factor in [1-ProbJitter, 1+ProbJitter] (then renormalises), so
	// that different seeds behave like genuinely different inputs
	// rather than resamples of one input. Must be in [0, 1).
	ProbJitter float64
}

// DefaultMaxSteps bounds runaway executions; realistic runs configure
// an explicit budget well below this.
const DefaultMaxSteps = 1 << 40

// DefaultMaxDepth is the default call-stack limit.
const DefaultMaxDepth = 4096

// Result summarises one execution.
type Result struct {
	// Instrs is the number of instructions executed (= dynamic
	// instruction accesses in the paper's terms).
	Instrs uint64
	// Branches is the number of taken intra-function control
	// transfers (the paper's "control" column of Table 2 counts
	// control transfers other than call/return).
	Branches uint64
	// Calls is the number of executed call instructions.
	Calls uint64
	// Returns is the number of executed return instructions.
	Returns uint64
	// Completed reports whether the program ran to completion (entry
	// function returned) rather than hitting the step cap.
	Completed bool
}

// Counts holds a counting run's execution counts, indexed in program
// order: blocks by (FuncID, BlockID), arcs by (FuncID, BlockID, arc
// index), and calls by (FuncID, BlockID, instruction index) over the
// call instructions only. Count adds to the slices, so one Counts
// accumulates a whole profiling session.
type Counts struct {
	// Blocks counts how many times control entered each block at its
	// top (function entry or a taken arc; a return into the middle of
	// a block is not an entry).
	Blocks []uint64
	// Arcs counts how many times each arc was taken.
	Arcs []uint64
	// Calls counts how many times each call instruction executed.
	Calls []uint64
}

// block is one basic block's record in the engine's flat tables.
type block struct {
	// instrs is the block's instruction count.
	instrs int32
	// calls and callsEnd delimit the block's call instructions in
	// Engine.calls.
	calls, callsEnd int32
	// arcs and arcsEnd delimit the block's outgoing arcs in
	// Engine.succ and in a run's cumulative probabilities; a block
	// without arcs is a function exit.
	arcs, arcsEnd int32
}

// call is one call instruction's record.
type call struct {
	// instr is the call's instruction index within its block.
	instr int32
	// entry is the flat index of the callee's entry block.
	entry int32
}

// frame is one activation on the run loop's call stack.
type frame struct {
	// blk is the flat index of the executing block.
	blk int32
	// instr is the next instruction to execute in blk.
	instr int32
	// call is the flat index of blk's next call instruction.
	call int32
	// ctx is the activation's context in a Contexts table (counting
	// in context only).
	ctx int32
}

// Engine executes one program. NewEngine compiles the program into
// flat tables once and each run caches its jittered arc probabilities,
// so constructing one Engine and running it many times with different
// seeds is cheap. An Engine is safe for concurrent runs.
type Engine struct {
	prog *ir.Program
	// funcs[f] is the flat index of function f's block 0; funcs has
	// one extra entry, the block count.
	funcs []int32
	// entry is the flat index of the entry function's entry block.
	entry  int32
	blocks []block
	calls  []call
	// succ is the flat successor block of every arc, and probs its
	// behavioural probability, both in program order.
	succ  []int32
	probs []float64
	// probsCache holds the cumulative arc probabilities of the most
	// recent run. Re-running the same seed — tracing the same "input"
	// under a second layout, or re-deriving a memoized trace — skips
	// the whole-program table rebuild. Lock-free: entries are
	// immutable once published.
	probsCache atomic.Pointer[probsEntry]
}

// probsEntry is one cached cumulative-probability slice, keyed by the
// derived probability seed and the jitter amplitude.
type probsEntry struct {
	seed   uint64
	jitter float64
	cum    []float64
}

// NewEngine compiles p into the engine's flat tables. The program must
// be valid.
func NewEngine(p *ir.Program) *Engine {
	e := &Engine{
		prog:   p,
		funcs:  make([]int32, len(p.Funcs)+1),
		blocks: make([]block, 0, p.NumBlocks()),
	}
	for fi, f := range p.Funcs {
		e.funcs[fi] = int32(len(e.blocks))
		for _, b := range f.Blocks {
			rec := block{instrs: int32(len(b.Instrs)), calls: int32(len(e.calls)), arcs: int32(len(e.succ))}
			for j, in := range b.Instrs {
				if in.Op == ir.OpCall {
					e.calls = append(e.calls, call{instr: int32(j), entry: int32(in.Callee)})
				}
			}
			for _, a := range b.Out {
				e.succ = append(e.succ, e.funcs[fi]+int32(a.To))
				e.probs = append(e.probs, a.Prob)
			}
			rec.callsEnd, rec.arcsEnd = int32(len(e.calls)), int32(len(e.succ))
			e.blocks = append(e.blocks, rec)
		}
	}
	e.funcs[len(p.Funcs)] = int32(len(e.blocks))
	// Callee entries are resolved once every function's base is known.
	for i := range e.calls {
		f := e.calls[i].entry
		e.calls[i].entry = e.funcs[f] + int32(p.Funcs[f].Entry)
	}
	e.entry = e.funcs[p.Entry] + int32(p.EntryFunc().Entry)
	return e
}

// NewCounts returns zeroed counters shaped for the engine's program.
func (e *Engine) NewCounts() *Counts {
	return &Counts{
		Blocks: make([]uint64, len(e.blocks)),
		Arcs:   make([]uint64, len(e.succ)),
		Calls:  make([]uint64, len(e.calls)),
	}
}

// ErrDepthExceeded reports that the call stack grew past MaxDepth.
var ErrDepthExceeded = errors.New("interp: call depth exceeded")

// Count executes the program with the given seed as its "input",
// adding its block, arc and call counts to c.
func (e *Engine) Count(seed uint64, cfg Config, c *Counts) (Result, error) {
	if len(c.Blocks) != len(e.blocks) || len(c.Arcs) != len(e.succ) || len(c.Calls) != len(e.calls) {
		return Result{}, fmt.Errorf("interp: counts shaped for %d blocks, %d arcs, %d calls; program has %d, %d, %d",
			len(c.Blocks), len(c.Arcs), len(c.Calls), len(e.blocks), len(e.succ), len(e.calls))
	}
	return e.run(seed, cfg, c, nil, nil, nil)
}

// Trace executes the program with the given seed as its "input",
// feeding sink one fetch run per executed segment of a block: from
// where execution enters or resumes in the block to its next call
// instruction (inclusive) or its end. addr holds every block's byte
// address in program order. Empty segments are skipped; contiguous
// runs are not merged.
func (e *Engine) Trace(seed uint64, cfg Config, addr []uint32, sink memtrace.Sink) (Result, error) {
	if len(addr) != len(e.blocks) {
		return Result{}, fmt.Errorf("interp: address table covers %d blocks, program has %d", len(addr), len(e.blocks))
	}
	return e.run(seed, cfg, nil, nil, addr, sink)
}

// run is the engine's one run loop. It counts into c when c is
// non-nil, counts in context into x when x is non-nil, and traces into
// sink when sink is non-nil.
func (e *Engine) run(seed uint64, cfg Config, c *Counts, x *Contexts, addr []uint32, sink memtrace.Sink) (Result, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	if cfg.ProbJitter < 0 || cfg.ProbJitter >= 1 {
		return Result{}, fmt.Errorf("interp: ProbJitter %v outside [0, 1)", cfg.ProbJitter)
	}
	rng := xrand.New(xrand.Seed(seed, 0x45c0))
	cum := e.cumProbs(xrand.Seed(seed, 0x11f7), cfg.ProbJitter)

	var res Result
	blocks, calls, succ := e.blocks, e.calls, e.succ
	stack := make([]frame, 0, 64)
	fr := frame{blk: e.entry, call: blocks[e.entry].calls}
	// cb, ca and cc count the executing activation's block entries,
	// arcs and calls by flat index: the session's Counts, or its
	// context's counts in x.
	var cb, ca, cc []uint64
	if c != nil {
		cb, ca, cc = c.Blocks, c.Arcs, c.Calls
	}
	if x != nil {
		fr.ctx = x.root(e.prog.Entry)
		cb, ca, cc = x.counts(fr.ctx)
	}
	if cb != nil {
		cb[fr.blk]++
	}
	for {
		b := &blocks[fr.blk]
		// Execute up to and including the block's next call, or to
		// the block's end.
		lo, hi := fr.instr, b.instrs
		isCall := fr.call < b.callsEnd
		var cl call
		if isCall {
			cl = calls[fr.call]
			hi = cl.instr + 1
		}
		if hi > lo {
			if sink != nil {
				sink.Run(memtrace.Run{Addr: addr[fr.blk] + uint32(lo)*ir.InstrBytes, Bytes: uint32(hi-lo) * ir.InstrBytes})
			}
			res.Instrs += uint64(hi - lo)
		}
		if isCall {
			res.Calls++
			if cc != nil {
				cc[fr.call]++
			}
			if len(stack)+1 >= cfg.MaxDepth {
				return res, fmt.Errorf("%w (depth %d at %s calling %s)", ErrDepthExceeded,
					len(stack)+1, e.prog.Funcs[e.funcOf(fr.blk)].Name, e.prog.Funcs[e.funcOf(cl.entry)].Name)
			}
			at := fr.call
			fr.instr, fr.call = hi, fr.call+1
			stack = append(stack, fr)
			fr = frame{blk: cl.entry, call: blocks[cl.entry].calls, ctx: fr.ctx}
			if x != nil {
				fr.ctx = x.enter(fr.ctx, at, cl.entry)
				cb, ca, cc = x.counts(fr.ctx)
			}
			if res.Instrs >= cfg.MaxSteps {
				return res, nil
			}
			if cb != nil {
				cb[fr.blk]++
			}
			continue
		}
		if b.arcs == b.arcsEnd {
			// Function exit: return to the caller, or end the program.
			res.Returns++
			if len(stack) == 0 {
				res.Completed = res.Instrs < cfg.MaxSteps
				return res, nil
			}
			fr = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x != nil {
				cb, ca, cc = x.counts(fr.ctx)
			}
			if res.Instrs >= cfg.MaxSteps {
				return res, nil
			}
			continue
		}
		// Choose the outgoing arc; a block with one arc takes it
		// without drawing.
		j := b.arcs
		switch n := b.arcsEnd - j; {
		case n == 2:
			if rng.Float64() >= cum[j] {
				j++
			}
		case n > 2:
			x := rng.Float64()
			for j < b.arcsEnd-1 && x >= cum[j] {
				j++
			}
		}
		res.Branches++
		if ca != nil {
			ca[j]++
		}
		fr = frame{blk: succ[j], call: blocks[succ[j]].calls, ctx: fr.ctx}
		if res.Instrs >= cfg.MaxSteps {
			return res, nil
		}
		if cb != nil {
			cb[fr.blk]++
		}
	}
}

// funcOf returns the function owning flat block blk.
func (e *Engine) funcOf(blk int32) ir.FuncID {
	return ir.FuncID(sort.Search(len(e.funcs)-1, func(f int) bool { return e.funcs[f+1] > blk }))
}

// cumProbs returns the cumulative arc probabilities for one run,
// reusing the cached slice when the seed and jitter match.
func (e *Engine) cumProbs(seed uint64, jitter float64) []float64 {
	if c := e.probsCache.Load(); c != nil && c.seed == seed && c.jitter == jitter {
		return c.cum
	}
	cum := e.jitteredProbs(seed, jitter)
	e.probsCache.Store(&probsEntry{seed: seed, jitter: jitter, cum: cum})
	return cum
}

// jitteredProbs builds a run's cumulative arc probabilities: for each
// block, the running sum of its jittered arc probabilities,
// renormalised so that its last arc's entry is exactly 1.
//
// The jitter factor of an arc is a pure function of the run seed and
// the arc's shape (its probability, index, and fan-out), NOT of the
// arc's position in the program. This matters for comparing layouts
// and transformed programs: inline expansion clones arcs with
// identical probabilities, so under this scheme the same input seed
// makes identical branch decisions on the original and the inlined
// program — exactly as one input file drives one control-flow history
// regardless of how the compiler arranged the code.
func (e *Engine) jitteredProbs(seed uint64, jitter float64) []float64 {
	cum := make([]float64, len(e.probs))
	for _, b := range e.blocks {
		out := e.probs[b.arcs:b.arcsEnd]
		if len(out) == 0 {
			continue
		}
		blockCum := cum[b.arcs:b.arcsEnd]
		var total float64
		for k, p := range out {
			if jitter > 0 && p > 0 && len(out) > 1 {
				u := float64(xrand.Seed(seed, math.Float64bits(p), uint64(k), uint64(len(out)))>>11) / (1 << 53)
				p *= 1 + jitter*(2*u-1)
			}
			total += p
			blockCum[k] = total
		}
		for k := range blockCum {
			blockCum[k] /= total
		}
		blockCum[len(blockCum)-1] = 1
	}
	return cum
}
