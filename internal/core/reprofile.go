package core

import (
	"impact/internal/core/inline"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/profile"
)

// contextLimit returns the context limit under which step 1 counts for
// an expansion under cfg. A call nests its callee below the caller's
// context only along an edge inline.Expand could ever accept: the
// callee is not NoInline, fits MaxCalleeBytes (a function only grows
// while Expand runs), and is not the context's root function (the
// root is, or reaches, whichever function would receive the clones,
// and Expand never inlines a function that reaches its receiver). It
// nests only while the chain could still fit the growth budget: every
// nesting level grows the program by at least its callee's bytes less
// the deleted call, and Expand ends at most one instruction below its
// budget. A chain that fits only from a later receiver is not counted;
// deriveInlined then falls back.
func contextLimit(p *ir.Program, cfg inline.Config) interp.ContextLimit {
	before := p.Bytes()
	l := interp.ContextLimit{
		Cost:   make([]int, len(p.Funcs)),
		Budget: int(cfg.MaxGrowth*float64(before)) - ir.InstrBytes - before,
	}
	for f, fn := range p.Funcs {
		l.Cost[f] = fn.Bytes() - ir.InstrBytes
		if fn.NoInline || (cfg.MaxCalleeBytes > 0 && fn.Bytes() > cfg.MaxCalleeBytes) {
			l.Cost[f] = -1
		}
	}
	return l
}

// reprofile returns the profile of pr.Inlined and its per-run results:
// derived from x, step 1's context counts, when deriveInlined proves
// them exact, and measured by profiling pr.Inlined with cfg otherwise.
func (pr *Profiled) reprofile(x contextCounts, cfg profile.Config) (*profile.Weights, []interp.Result, error) {
	if w, runs, ok := deriveInlined(pr, x); ok {
		cfg.Obs.Counter("pipeline.inline.derived").Inc()
		return w, runs, nil
	}
	cfg.Obs.Counter("pipeline.inline.reprofiled").Inc()
	return profile.Profile(pr.Inlined, cfg)
}

// contextCounts is what deriveInlined reads of an interp.Contexts
// table.
type contextCounts interface {
	Root(f ir.FuncID) int
	Child(n, call int) (child int, nested bool)
	Counts(n int) (blocks, arcs, calls []uint64)
	RunCalls(r, n, call int) uint64
}

// deriveInlined returns what profile.Profile returns for pr.Inlined
// under pr's seeds, derived from x, the context counts of the session
// that measured pr.OrigWeights, and reports whether it could prove the
// result exact.
//
// Inline expansion adds only one-arc transfers, and the interpreter
// draws nothing for a one-arc block, so the inlined program's run of a
// seed makes the step-1 run's branch decisions. Each executed inlined
// call costs one instruction, one call and one return fewer and two
// transfers more, so when the step-1 run completed, its inlined twin
// is shorter and shallower at every step and completes too. The counts
// then map through the expansions: a block piece before an inlined
// call keeps its block's count, a piece after it gets the call's
// count, and a cloned block, arc or call gets its callee's count in
// calls from that site — its context. deriveInlined fails when a
// step-1 run did not complete, when the expansions do not replay onto
// pr.Inlined, or when one needs a context x did not count.
func deriveInlined(pr *Profiled, x contextCounts) (*profile.Weights, []interp.Result, bool) {
	for _, r := range pr.origRuns {
		if !r.Completed {
			return nil, nil, false
		}
	}
	p, q := pr.Input, pr.Inlined
	t, ok := replay(p, q, pr.InlineReport.Expansions)
	if !ok {
		return nil, nil, false
	}
	c := &interp.Counts{Blocks: make([]uint64, t.blocks), Arcs: make([]uint64, t.arcs), Calls: make([]uint64, t.callInstrs)}
	inlined := make([]uint64, len(pr.origRuns))
	// Every context a function's inlined body executes in from a real
	// activation: the root contexts, then each nested context whose
	// call the expansions kept.
	type activation struct {
		f   ir.FuncID
		ctx int
	}
	var queue []activation
	for f := range p.Funcs {
		if n := x.Root(ir.FuncID(f)); n >= 0 {
			queue = append(queue, activation{ir.FuncID(f), n})
		}
	}
	ctx := make([]int, len(t.nodes))
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		nodes := t.owned[a.f]
		ctx[nodes[0]] = a.ctx
		for _, n := range nodes[1:] {
			nd := t.nodes[n]
			ctx[n] = -1
			if up := ctx[nd.parent]; up >= 0 {
				child, nested := x.Child(up, int(nd.call))
				if child >= 0 && !nested {
					return nil, nil, false // an expansion needs a context x did not count
				}
				ctx[n] = child
				for r := range inlined {
					inlined[r] += x.RunCalls(r, up, int(nd.call))
				}
			}
		}
		for _, n := range nodes {
			d := ctx[n]
			if d < 0 {
				continue
			}
			for k, callee := range t.calls[t.nodes[n].fn] {
				if _, in := t.kids[[2]int32{n, int32(k)}]; in {
					continue
				}
				if child, nested := x.Child(d, k); nested {
					queue = append(queue, activation{callee, child})
				}
			}
		}
		for _, pc := range t.pieces[a.f] {
			d := ctx[pc.node]
			if d < 0 {
				continue
			}
			blocks, arcs, calls := x.Counts(d)
			n := blocks[pc.blk]
			if pc.from >= 0 {
				n = calls[pc.from]
			}
			c.Blocks[pc.at] += n
			switch {
			case pc.arcs >= 0:
				add(c.Arcs[pc.arc:pc.arc+pc.nArcs], arcs[pc.arcs:])
			case pc.nArcs == 1:
				c.Arcs[pc.arc] += n
			}
			for j, o := range pc.ords {
				c.Calls[pc.call+j] += calls[o]
			}
		}
	}
	runs := make([]interp.Result, len(pr.origRuns))
	for r, res := range pr.origRuns {
		n := inlined[r]
		runs[r] = interp.Result{
			Instrs: res.Instrs - n, Branches: res.Branches + 2*n,
			Calls: res.Calls - n, Returns: res.Returns - n, Completed: true,
		}
	}
	return profile.Weigh(q, c, runs), runs, true
}

// inlineTrees maps an inlined program back to the program it was
// expanded from. Each function's inline tree has one node per inlined
// body in it — the function's own at the root, and below a node one
// child per inlined call instruction of that body — and each block of
// the inlined program is a piece of one input block in one node.
type inlineTrees struct {
	// nodes[f] is function f's root; later nodes are inlined bodies.
	nodes []treeNode
	// kids maps a node and a call ordinal of its function to the
	// child inlined there.
	kids map[[2]int32]int32
	// owned[f] lists the nodes of f's tree, parents before children.
	owned [][]int32
	// calls[f] lists the callee of each of input function f's call
	// instructions, in program order.
	calls [][]ir.FuncID
	// pieces[f] describes inlined function f's blocks in order.
	pieces [][]piece
	// blocks, arcs and callInstrs count the inlined program's blocks,
	// arcs and call instructions.
	blocks, arcs, callInstrs int
}

// treeNode is one body in a function's inline tree: a body of function
// fn, inlined at call ordinal call of its parent's function (parent is
// -1 at a root).
type treeNode struct {
	fn     ir.FuncID
	parent int32
	call   int32
}

// piece is one block of the inlined program: instructions [lo, hi) of
// input block blk of the body at node, and where its counts come from
// and go in the inlined program's flat counts.
type piece struct {
	node   int32
	blk    ir.BlockID
	lo, hi int32
	// from is the call ordinal whose count enters the piece (the
	// inlined call before it), or -1 when the block's own count does.
	from int
	// at, arc and call are the piece's flat block index and its first
	// arc and call in the inlined program.
	at, arc, call int
	// arcs is the index of the block's first arc in its function when
	// the piece keeps the block's arcs, or -1 when its one arc — to an
	// inlined body or, at a body's exit, out of it — is taken once per
	// entry; nArcs is its arc count.
	arcs, nArcs int
	// ords are the call ordinals of the piece's call instructions.
	ords []int
}

// replay replays the expansions that made q from p, and reports
// whether they land on q's blocks exactly.
func replay(p, q *ir.Program, exps []inline.Expansion) (*inlineTrees, bool) {
	nf := len(p.Funcs)
	if len(q.Funcs) != nf {
		return nil, false
	}
	t := &inlineTrees{
		nodes:  make([]treeNode, nf),
		kids:   make(map[[2]int32]int32),
		owned:  make([][]int32, nf),
		calls:  make([][]ir.FuncID, nf),
		pieces: make([][]piece, nf),
	}
	// base[f][b] is the ordinal of block b's first call, arcBase[f][b]
	// the index of its first arc.
	base := make([][]int, nf)
	arcBase := make([][]int, nf)
	for f, fn := range p.Funcs {
		t.nodes[f] = treeNode{fn: ir.FuncID(f), parent: -1}
		t.owned[f] = []int32{int32(f)}
		base[f] = make([]int, len(fn.Blocks))
		arcBase[f] = make([]int, len(fn.Blocks))
		arcs := 0
		for b, blk := range fn.Blocks {
			base[f][b], arcBase[f][b] = len(t.calls[f]), arcs
			arcs += len(blk.Out)
			for _, in := range blk.Instrs {
				if in.Op == ir.OpCall {
					t.calls[f] = append(t.calls[f], in.Callee)
				}
			}
			t.pieces[f] = append(t.pieces[f], piece{node: int32(f), blk: ir.BlockID(b), hi: int32(len(blk.Instrs))})
		}
	}
	// ordinal returns the ordinal of the call at instruction i of
	// block b of function f.
	ordinal := func(f ir.FuncID, b ir.BlockID, i int32) int {
		n := base[f][b]
		for _, in := range p.Funcs[f].Blocks[b].Instrs[:i] {
			if in.Op == ir.OpCall {
				n++
			}
		}
		return n
	}
	// child adds to f's tree the body of fn inlined at call ordinal k
	// of node n. Each call instruction is in exactly one piece until
	// it is inlined, so the node is new.
	child := func(f ir.FuncID, n int32, k int, fn ir.FuncID) int32 {
		c := int32(len(t.nodes))
		t.nodes = append(t.nodes, treeNode{fn: fn, parent: n, call: int32(k)})
		t.kids[[2]int32{n, int32(k)}] = c
		t.owned[f] = append(t.owned[f], c)
		return c
	}
	for _, e := range exps {
		f, g := e.Site.Func, e.Callee
		if f < 0 || int(f) >= nf || g < 0 || int(g) >= nf || f == g ||
			e.Site.Block < 0 || int(e.Site.Block) >= len(t.pieces[f]) {
			return nil, false
		}
		ps := t.pieces[f]
		head := ps[e.Site.Block]
		i := head.lo + e.Site.Instr
		fn := t.nodes[head.node].fn
		if e.Site.Instr < 0 || i >= head.hi {
			return nil, false
		}
		if in := p.Funcs[fn].Blocks[head.blk].Instrs[i]; in.Op != ir.OpCall || in.Callee != g {
			return nil, false
		}
		if len(t.pieces[g]) != e.CloneBlocks || int(e.CloneBase) != len(ps) || int(e.Tail) != len(ps)+e.CloneBlocks {
			return nil, false
		}
		// Graft g's tree below the new node, parents first.
		graft := map[int32]int32{int32(g): child(f, head.node, ordinal(fn, head.blk, i), g)}
		for _, n := range t.owned[g][1:] {
			nd := t.nodes[n]
			graft[n] = child(f, graft[nd.parent], int(nd.call), nd.fn)
		}
		for _, pc := range t.pieces[g] {
			ps = append(ps, piece{node: graft[pc.node], blk: pc.blk, lo: pc.lo, hi: pc.hi})
		}
		ps = append(ps, piece{node: head.node, blk: head.blk, lo: i + 1, hi: head.hi})
		ps[e.Site.Block].hi = i
		t.pieces[f] = ps
	}
	// Resolve every piece against q's blocks.
	at, arc, call := 0, 0, 0
	for f, qf := range q.Funcs {
		ps := t.pieces[f]
		if len(ps) != len(qf.Blocks) {
			return nil, false
		}
		for b := range ps {
			pc := &ps[b]
			fn := t.nodes[pc.node].fn
			src := p.Funcs[fn].Blocks[pc.blk]
			qb := qf.Blocks[b]
			pc.at, pc.arc, pc.call = at, arc, call
			pc.from = -1
			if pc.lo > 0 {
				pc.from = ordinal(fn, pc.blk, pc.lo-1)
			}
			pc.arcs, pc.nArcs = -1, 1
			switch {
			case int(pc.hi) == len(src.Instrs) && len(src.Out) > 0:
				pc.arcs, pc.nArcs = arcBase[fn][pc.blk], len(src.Out)
			case int(pc.hi) == len(src.Instrs) && pc.node == int32(f):
				pc.nArcs = 0 // the function's own exit
			}
			k := ordinal(fn, pc.blk, pc.lo)
			for _, in := range src.Instrs[pc.lo:pc.hi] {
				if in.Op == ir.OpCall {
					pc.ords = append(pc.ords, k)
					k++
				}
			}
			if len(qb.Instrs) != int(pc.hi-pc.lo) || len(qb.Out) != pc.nArcs || len(qb.CallSites()) != len(pc.ords) {
				return nil, false
			}
			at++
			arc += pc.nArcs
			call += len(pc.ords)
		}
	}
	t.blocks, t.arcs, t.callInstrs = at, arc, call
	return t, true
}

// add adds src to dst element by element.
func add(dst, src []uint64) {
	for i := range dst {
		dst[i] += src[i]
	}
}
