// Package layout assigns memory addresses to basic blocks and turns
// executions into instruction-address traces.
//
// A Layout maps every block of a program to a byte address. The
// placement passes in internal/core produce an ordered list of block
// references (a Placement); this package turns any such order into
// addresses, and provides the two reference layouts the paper
// implicitly compares against: the natural layout (declaration order,
// what a conventional compiler and linker emit) and a random layout.
//
// Trace, TraceWeights and Stream bridge the execution engine to the
// cache simulator: the engine runs from the layout's per-block address
// table and emits the run's fetch trace as maximal sequential runs.
// TraceWeights also counts the traced run, so the profile the static
// analyzer reads and the trace the simulator replays come from one
// execution. Each call compiles its own engine (interp.NewEngine),
// which costs about a hundredth of a suite program's evaluation trace.
// Running the same program under two layouts yields two different
// address traces — which is precisely how instruction placement
// affects cache behaviour.
package layout

import (
	"fmt"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/memtrace"
	"impact/internal/profile"
	"impact/internal/xrand"
)

// BlockRef names one basic block of a program.
type BlockRef struct {
	F ir.FuncID
	B ir.BlockID
}

// Placement is a complete memory order for a program: every block
// appears exactly once, and blocks are placed contiguously in slice
// order starting at address 0.
type Placement struct {
	Order []BlockRef
}

// Layout maps blocks to byte addresses.
type Layout struct {
	prog *ir.Program
	// addr is the byte address of every block's first instruction in
	// program order — the execution engine's address table — and
	// base[f] the index of function f's block 0 in it.
	addr []uint32
	base []int
	// Total is one past the highest code byte.
	Total uint32
}

// Program returns the program this layout addresses.
func (l *Layout) Program() *ir.Program { return l.prog }

// BlockAddr returns the byte address of block b in function f.
func (l *Layout) BlockAddr(f ir.FuncID, b ir.BlockID) uint32 { return l.addr[l.base[f]+int(b)] }

// InstrAddr returns the byte address of instruction i of block b.
func (l *Layout) InstrAddr(f ir.FuncID, b ir.BlockID, i int32) uint32 {
	return l.BlockAddr(f, b) + uint32(i)*ir.InstrBytes
}

// BlockEnd returns one past the last code byte of block b in function
// f — the address a fall-through successor must start at.
func (l *Layout) BlockEnd(f ir.FuncID, b ir.BlockID) uint32 {
	return l.BlockAddr(f, b) + uint32(l.prog.Funcs[f].Blocks[b].Bytes())
}

// FromPlacement assigns addresses following pl's order. It returns an
// error unless pl covers every block of p exactly once.
func FromPlacement(p *ir.Program, pl Placement) (*Layout, error) {
	l := &Layout{prog: p, addr: make([]uint32, p.NumBlocks()), base: make([]int, len(p.Funcs))}
	for fi := 1; fi < len(p.Funcs); fi++ {
		l.base[fi] = l.base[fi-1] + len(p.Funcs[fi-1].Blocks)
	}
	seen := make([]bool, len(l.addr))
	var at uint32
	for _, ref := range pl.Order {
		if ref.F < 0 || int(ref.F) >= len(p.Funcs) {
			return nil, fmt.Errorf("layout: placement references func %d of %d", ref.F, len(p.Funcs))
		}
		f := p.Funcs[ref.F]
		if ref.B < 0 || int(ref.B) >= len(f.Blocks) {
			return nil, fmt.Errorf("layout: placement references block %d of %d in %q", ref.B, len(f.Blocks), f.Name)
		}
		i := l.base[ref.F] + int(ref.B)
		if seen[i] {
			return nil, fmt.Errorf("layout: block %q/%d placed twice", f.Name, ref.B)
		}
		seen[i] = true
		l.addr[i] = at
		at += uint32(f.Blocks[ref.B].Bytes())
	}
	for fi, f := range p.Funcs {
		for bi := range f.Blocks {
			if !seen[l.base[fi]+bi] {
				return nil, fmt.Errorf("layout: block %q/%d not placed", f.Name, bi)
			}
		}
	}
	l.Total = at
	return l, nil
}

// Natural returns the declaration-order layout: functions in FuncID
// order, blocks in BlockID order. This models what a conventional
// compiler emits with no placement optimization and serves as the
// baseline layout throughout the evaluation.
func Natural(p *ir.Program) *Layout {
	var pl Placement
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			pl.Order = append(pl.Order, BlockRef{F: f.ID, B: b.ID})
		}
	}
	l, err := FromPlacement(p, pl)
	if err != nil {
		panic(fmt.Sprintf("layout: natural placement invalid: %v", err))
	}
	return l
}

// Random returns a layout with functions in random order and each
// function's non-entry blocks randomly permuted (the entry block stays
// first within its function, as any real code generator keeps the
// function prologue at the function's address). It is the adversarial
// baseline: all sequential locality between blocks is destroyed.
func Random(p *ir.Program, seed uint64) *Layout {
	rng := xrand.New(xrand.Seed(seed, 0x1a70))
	var pl Placement
	funcOrder := rng.Perm(len(p.Funcs))
	for _, fi := range funcOrder {
		f := p.Funcs[fi]
		blocks := make([]ir.BlockID, 0, len(f.Blocks))
		for _, b := range f.Blocks {
			if b.ID != f.Entry {
				blocks = append(blocks, b.ID)
			}
		}
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		pl.Order = append(pl.Order, BlockRef{F: f.ID, B: f.Entry})
		for _, b := range blocks {
			pl.Order = append(pl.Order, BlockRef{F: f.ID, B: b})
		}
	}
	l, err := FromPlacement(p, pl)
	if err != nil {
		panic(fmt.Sprintf("layout: random placement invalid: %v", err))
	}
	return l
}

// Stream runs the program once with the given seed under layout lay,
// feeding the fetch trace to sink as the engine emits it — canonical
// runs, the exact sequence replaying a materialized Trace would
// deliver — without materializing it. This is the zero-copy path from
// the execution engine into the streaming simulators
// (cache.SinkSimulator, sweep.Plan).
func Stream(lay *Layout, seed uint64, cfg interp.Config, sink memtrace.Sink) (interp.Result, error) {
	return interp.NewEngine(lay.Program()).Trace(seed, cfg, lay.addr, sink, nil)
}

// Trace runs lay's program once with the given seed under layout lay
// and returns the resulting fetch trace. The trace accumulates in a
// chunked buffer and is sealed with one exact-size allocation, so
// building a multi-million-run trace never re-copies it.
func Trace(lay *Layout, seed uint64, cfg interp.Config) (*memtrace.Trace, interp.Result, error) {
	return trace(interp.NewEngine(lay.Program()), lay, seed, cfg, nil)
}

// TraceWeights is Trace that also counts the traced run: it returns
// the run's profile as well, the weights profile.Profile returns for
// the one seed, without interpreting the program a second time.
func TraceWeights(lay *Layout, seed uint64, cfg interp.Config) (*memtrace.Trace, *profile.Weights, interp.Result, error) {
	e := interp.NewEngine(lay.Program())
	c := e.NewCounts()
	tr, res, err := trace(e, lay, seed, cfg, c)
	if err != nil {
		return nil, nil, res, err
	}
	return tr, profile.Weigh(lay.Program(), c, []interp.Result{res}), res, nil
}

// trace runs e, the engine of lay's program, once under lay into a
// buffer, counting into c when c is non-nil.
func trace(e *interp.Engine, lay *Layout, seed uint64, cfg interp.Config, c *interp.Counts) (*memtrace.Trace, interp.Result, error) {
	var buf memtrace.Buffer
	res, err := e.Trace(seed, cfg, lay.addr, &buf, c)
	if err != nil {
		return nil, res, err
	}
	return buf.Seal(), res, nil
}
