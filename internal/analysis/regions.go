package analysis

import (
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/profile"
)

// The abstract interpretation runs over a region supergraph rather
// than the block-level CFG: a region is one maximal sequential fetch
// segment — the exact unit the interpreter's tracing run emits as one
// address run. A block with call sites
// c0 < c1 < ... splits into segments [0,c0], (c0,c1], ..., (ck,end):
// each segment up to and including a call instruction, then the tail.
// Edges mirror every control transfer the machine can take:
//
//   - a segment ending in a call flows to the callee's entry segment;
//   - a callee's exit regions (last segment of return blocks) flow,
//     context-insensitively, to the continuation segment after every
//     static call site of that callee;
//   - a block's last segment flows to the first segment of each arc
//     target.
//
// Context insensitivity only adds paths, so the may analysis stays an
// over-approximation and the must analysis an under-approximation of
// any real execution.

// region is one maximal sequential fetch segment.
type region struct {
	f ir.FuncID
	b ir.BlockID
	// start is the segment's first instruction index within its block;
	// addr is recomputable as lay.InstrAddr(f, b, start), which is how
	// the incremental analyzer re-addresses regions under a candidate
	// layout without rebuilding the supergraph.
	start int32
	// addr is the byte address of the segment's first instruction.
	addr uint32
	// words is the segment's instruction count (may be 0 for the empty
	// tail after a block-final call, kept for CFG connectivity).
	words int32
	// weight is the segment's execution count: the owning block's
	// profiled weight (every entered block runs all its segments when
	// the run completes).
	weight uint64
	succs  []int32
}

// supergraph is the region-level control flow graph of a laid-out
// program.
type supergraph struct {
	regions []region
	entry   int32
	rpo     []int32
}

// buildSupergraph splits every block of lay's program into regions and
// connects call, return, and arc edges.
func buildSupergraph(lay *layout.Layout, w *profile.Weights) *supergraph {
	p := lay.Program()
	sg := &supergraph{}
	first := make([][]int32, len(p.Funcs)) // first region of each block
	last := make([][]int32, len(p.Funcs))  // last region of each block
	conts := make([][]int32, len(p.Funcs)) // continuation regions per callee
	exits := make([][]int32, len(p.Funcs)) // exit regions per function
	type pendingCall struct {
		region int32
		callee ir.FuncID
	}
	var calls []pendingCall

	for _, f := range p.Funcs {
		first[f.ID] = make([]int32, len(f.Blocks))
		last[f.ID] = make([]int32, len(f.Blocks))
		for _, b := range f.Blocks {
			first[f.ID][b.ID] = int32(len(sg.regions))
			bw := w.Funcs[f.ID].BlockW[b.ID]
			start := int32(0)
			for _, c := range b.CallSites() {
				idx := int32(len(sg.regions))
				sg.regions = append(sg.regions, region{
					f: f.ID, b: b.ID, start: start,
					addr:   lay.InstrAddr(f.ID, b.ID, start),
					words:  int32(c) + 1 - start,
					weight: bw,
				})
				calls = append(calls, pendingCall{region: idx, callee: b.Instrs[c].Callee})
				// The region after the call (appended next) is the
				// continuation a return from the callee resumes at.
				conts[b.Instrs[c].Callee] = append(conts[b.Instrs[c].Callee], idx+1)
				start = int32(c) + 1
			}
			idx := int32(len(sg.regions))
			sg.regions = append(sg.regions, region{
				f: f.ID, b: b.ID, start: start,
				addr:   lay.InstrAddr(f.ID, b.ID, start),
				words:  int32(len(b.Instrs)) - start,
				weight: bw,
			})
			last[f.ID][b.ID] = idx
			if len(b.Out) == 0 {
				exits[f.ID] = append(exits[f.ID], idx)
			}
		}
	}

	for _, c := range calls {
		callee := p.Funcs[c.callee]
		sg.regions[c.region].succs = append(sg.regions[c.region].succs, first[c.callee][callee.Entry])
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			lr := last[f.ID][b.ID]
			for _, a := range b.Out {
				sg.regions[lr].succs = append(sg.regions[lr].succs, first[f.ID][a.To])
			}
		}
	}
	for fi := range p.Funcs {
		for _, e := range exits[fi] {
			sg.regions[e].succs = append(sg.regions[e].succs, conts[fi]...)
		}
	}

	sg.entry = first[p.Entry][p.EntryFunc().Entry]
	sg.computeRPO()
	return sg
}

// computeRPO orders the regions reachable from the entry in reverse
// postorder; the worklist processes them in that order so most states
// stabilise in few sweeps.
func (sg *supergraph) computeRPO() {
	n := len(sg.regions)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	post := make([]int32, 0, n)
	type frame struct {
		r    int32
		next int
	}
	stack := []frame{{sg.entry, 0}}
	state[sg.entry] = 1
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := sg.regions[fr.r].succs
		if fr.next < len(succs) {
			s := succs[fr.next]
			fr.next++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{r: s})
			}
			continue
		}
		state[fr.r] = 2
		post = append(post, fr.r)
		stack = stack[:len(stack)-1]
	}
	sg.rpo = make([]int32, len(post))
	for i, r := range post {
		sg.rpo[len(post)-1-i] = r
	}
}

// lineRange returns the cache lines [l0, l1] the region's fetches
// touch under block size blockBytes, and whether it fetches at all.
func (r *region) lineRange(blockBytes uint32) (l0, l1 uint32, ok bool) {
	if r.words == 0 {
		return 0, 0, false
	}
	l0 = r.addr / blockBytes
	l1 = (r.addr + uint32(r.words)*ir.InstrBytes - 1) / blockBytes
	return l0, l1, true
}
