package check

import (
	"sort"

	"impact/internal/ir"
	"impact/internal/profile"
)

// inlineAnalyzer checks that inline expansion only moved code. The
// dynamic invariants hold because core re-profiles the transformed
// program with the same inputs: eliminated calls must account exactly
// for the dynamic-instruction delta (each expansion deletes one call
// instruction and turns the matching return into a jump), and the
// profiled non-control work is conserved instruction for instruction.
func inlineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "inline",
		Doc:  "inline equivalence: eliminated calls account exactly for the dynamic-instruction delta; filler work conserved",
		applies: func(u *Unit) bool {
			return u.Before != nil && u.BeforeWeights != nil && u.Inline != nil && u.Weights != nil
		},
		run: runInline,
	}
}

func runInline(u *Unit, r *reporter) {
	before, after := u.Before, u.Prog
	rep := u.Inline

	// Static accounting against the report.
	if rep.BytesBefore != before.Bytes() {
		r.errorf(progLoc(), "report says %d bytes before inlining, program has %d", rep.BytesBefore, before.Bytes())
	}
	if rep.BytesAfter != after.Bytes() {
		r.errorf(progLoc(), "report says %d bytes after inlining, program has %d", rep.BytesAfter, after.Bytes())
	}
	if rep.SitesInlined != len(rep.Expansions) {
		r.errorf(progLoc(), "report counts %d inlined sites but records %d expansions", rep.SitesInlined, len(rep.Expansions))
	}
	if len(after.Funcs) != len(before.Funcs) {
		r.errorf(progLoc(), "inlining changed the function count %d -> %d", len(before.Funcs), len(after.Funcs))
		return
	}
	if after.Entry != before.Entry {
		r.errorf(progLoc(), "inlining moved the program entry %d -> %d", before.Entry, after.Entry)
	}

	// Per-function: identity preserved, block growth fully explained by
	// the recorded expansions (each splices callee-blocks clones plus
	// one tail block into the caller).
	added := make([]int, len(before.Funcs))
	for _, e := range rep.Expansions {
		if int(e.Site.Func) >= len(before.Funcs) || int(e.Callee) >= len(before.Funcs) {
			r.errorf(progLoc(), "expansion references out-of-range function (site %v, callee %d)", e.Site, e.Callee)
			continue
		}
		added[e.Site.Func] += e.CloneBlocks + 1
		if before.Funcs[e.Callee].NoInline {
			r.errorf(funcLoc(e.Site.Func), "expansion inlined %q, a NoInline (system-call boundary) function", before.Funcs[e.Callee].Name)
		}
		if e.Callee == e.Site.Func {
			r.errorf(funcLoc(e.Site.Func), "expansion inlined a function into itself")
		}
	}
	for i, bf := range before.Funcs {
		af := after.Funcs[i]
		if af.Name != bf.Name {
			r.errorf(funcLoc(bf.ID), "inlining renamed function %q -> %q", bf.Name, af.Name)
		}
		if af.NoInline != bf.NoInline {
			r.errorf(funcLoc(bf.ID), "inlining changed the NoInline marker")
		}
		if want := len(bf.Blocks) + added[i]; len(af.Blocks) != want {
			r.errorf(funcLoc(bf.ID), "function has %d blocks, but %d original blocks plus %d recorded expansions give %d",
				len(af.Blocks), len(bf.Blocks), added[i], want)
		}
	}

	// Dynamic equivalence. Only checkable when both profiles completed
	// every run.
	// Dynamic equivalence holds exactly only when every profiling run
	// completed; capped runs skip it (counted as check.inline.skips).
	bw, aw := u.BeforeWeights, u.Weights
	if bw.Capped > 0 || aw.Capped > 0 {
		r.skip()
		return
	}
	callDelta := int64(bw.DynCalls) - int64(aw.DynCalls)
	if callDelta < 0 {
		r.errorf(progLoc(), "inlining increased dynamic calls %d -> %d", bw.DynCalls, aw.DynCalls)
	}
	if instrDelta := int64(bw.DynInstrs) - int64(aw.DynInstrs); instrDelta != callDelta {
		r.errorf(progLoc(), "dynamic instruction delta %d != eliminated calls %d (each expansion deletes exactly the call instruction)",
			instrDelta, callDelta)
	}
	if retDelta := int64(bw.DynReturns) - int64(aw.DynReturns); retDelta != callDelta {
		r.errorf(progLoc(), "dynamic return delta %d != eliminated calls %d (each expansion turns one return into a jump)",
			retDelta, callDelta)
	}
	beforeWork := weightedFillerWork(before, bw)
	afterWork := weightedFillerWork(after, aw)
	if beforeWork != afterWork {
		r.errorf(progLoc(), "executed non-control work changed %d -> %d across inlining (the transform may only move code)",
			beforeWork, afterWork)
	}
}

// weightedFillerWork returns the total executed non-control
// instructions (ALU/load/store), weighting each block's filler count
// by its profiled execution count. Inline expansion must conserve it
// exactly: it is the pipeline's observable "work".
func weightedFillerWork(p *ir.Program, w *profile.Weights) uint64 {
	var total uint64
	for fi, f := range p.Funcs {
		for bi, blk := range f.Blocks {
			var n uint64
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpALU, ir.OpLoad, ir.OpStore:
					n++
				}
			}
			total += w.Funcs[fi].BlockW[bi] * n
		}
	}
	return total
}

// tracesAnalyzer checks trace selection: traces partition the blocks,
// the mapping arrays agree with the trace contents, trace weights sum
// their blocks' weights, every intra-trace transition respects
// MIN_PROB (in both the source's and destination's terms, exactly as
// the Appendix's TraceSelection tests them), and the entry trace
// starts at the entry block.
func tracesAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "traces",
		Doc:     "trace selection equivalence: traces partition blocks, respect MIN_PROB, entry trace starts at the entry block",
		applies: func(u *Unit) bool { return u.Traces != nil },
		run:     runTraces,
	}
}

func runTraces(u *Unit, r *reporter) {
	p := u.Prog
	if len(u.Traces) != len(p.Funcs) {
		r.errorf(progLoc(), "trace selection covers %d functions, program has %d", len(u.Traces), len(p.Funcs))
		return
	}
	for _, f := range p.Funcs {
		sel := &u.Traces[f.ID]
		floc := funcLoc(f.ID)
		if len(sel.TraceOf) != len(f.Blocks) || len(sel.PosOf) != len(f.Blocks) {
			r.errorf(floc, "trace maps cover %d/%d blocks, function has %d", len(sel.TraceOf), len(sel.PosOf), len(f.Blocks))
			continue
		}
		seen := make([]int, len(f.Blocks))
		var fw *profile.FuncWeights
		if u.Weights != nil {
			fw = &u.Weights.Funcs[f.ID]
		}
		for ti := range sel.Traces {
			tr := &sel.Traces[ti]
			if tr.ID != ti {
				r.errorf(floc, "trace at index %d carries ID %d", ti, tr.ID)
			}
			if len(tr.Blocks) == 0 {
				r.errorf(floc, "trace %d is empty", ti)
				continue
			}
			var weight uint64
			for pos, b := range tr.Blocks {
				if b < 0 || int(b) >= len(f.Blocks) {
					r.errorf(floc, "trace %d references block %d of %d", ti, b, len(f.Blocks))
					continue
				}
				seen[b]++
				if sel.TraceOf[b] != ti || sel.PosOf[b] != pos {
					r.errorf(blockLoc(f.ID, b), "trace maps place block in trace %d pos %d, trace %d holds it at pos %d",
						sel.TraceOf[b], sel.PosOf[b], ti, pos)
				}
				if fw != nil {
					weight += fw.BlockW[b]
				}
				if fw == nil || pos == 0 {
					continue
				}
				// MIN_PROB on the transition from the previous block,
				// replicating TraceSelection's float comparisons.
				prev := tr.Blocks[pos-1]
				var arcW uint64
				var haveArc bool
				for k, a := range f.Blocks[prev].Out {
					if a.To == b {
						haveArc = true
						if c := fw.ArcW[prev][k]; c > arcW {
							arcW = c
						}
					}
				}
				switch {
				case !haveArc:
					r.errorf(blockLoc(f.ID, b), "trace %d places block after %d with no connecting arc", ti, prev)
				case arcW == 0:
					r.errorf(blockLoc(f.ID, b), "trace %d transition %d->%d has zero profiled weight", ti, prev, b)
				case float64(arcW) < u.MinProb*float64(fw.BlockW[prev]):
					r.errorf(blockLoc(f.ID, b), "trace %d transition %d->%d weight %d below MIN_PROB %.2f of source weight %d",
						ti, prev, b, arcW, u.MinProb, fw.BlockW[prev])
				case float64(arcW) < u.MinProb*float64(fw.BlockW[b]):
					r.errorf(blockLoc(f.ID, b), "trace %d transition %d->%d weight %d below MIN_PROB %.2f of destination weight %d",
						ti, prev, b, arcW, u.MinProb, fw.BlockW[b])
				}
			}
			if fw != nil && tr.Weight != weight {
				r.errorf(floc, "trace %d records weight %d, its blocks' weights sum to %d", ti, tr.Weight, weight)
			}
		}
		for b, n := range seen {
			if n != 1 {
				r.errorf(blockLoc(f.ID, ir.BlockID(b)), "block appears in %d traces, want exactly 1 (traces must partition the blocks)", n)
			}
		}
		if et := sel.TraceOf[f.Entry]; et >= 0 && et < len(sel.Traces) &&
			len(sel.Traces[et].Blocks) > 0 && sel.Traces[et].Head() != f.Entry {
			r.errorf(blockLoc(f.ID, f.Entry), "entry block sits at position %d of trace %d; the entry trace must start at the entry block",
				sel.PosOf[f.Entry], et)
		}
	}
}

// funcLayoutAnalyzer checks function body layout: every order is a
// bijection over the function's blocks, traces stay contiguous and in
// trace order, and (with real trace layout) zero-weight traces sink
// below the effective boundary while the entry trace leads.
func funcLayoutAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "funclayout",
		Doc:  "function layout equivalence: block order is a bijection, traces stay contiguous, zero-weight traces sink to the bottom",
		applies: func(u *Unit) bool {
			return u.Orders != nil && u.Traces != nil
		},
		run: runFuncLayout,
	}
}

func runFuncLayout(u *Unit, r *reporter) {
	p := u.Prog
	if len(u.Orders) != len(p.Funcs) || len(u.Traces) != len(p.Funcs) {
		r.errorf(progLoc(), "layout covers %d orders / %d selections, program has %d functions", len(u.Orders), len(u.Traces), len(p.Funcs))
		return
	}
	for _, f := range p.Funcs {
		o := &u.Orders[f.ID]
		sel := &u.Traces[f.ID]
		floc := funcLoc(f.ID)
		if len(o.Blocks) != len(f.Blocks) {
			r.errorf(floc, "order places %d blocks, function has %d", len(o.Blocks), len(f.Blocks))
			continue
		}
		if o.EffectiveBlocks < 0 || o.EffectiveBlocks > len(o.Blocks) {
			r.errorf(floc, "effective boundary %d outside [0, %d]", o.EffectiveBlocks, len(o.Blocks))
			continue
		}
		pos := o.Positions(len(f.Blocks))
		bijection := true
		for b, at := range pos {
			if at < 0 {
				r.errorf(blockLoc(f.ID, ir.BlockID(b)), "block missing from the layout order (order must be a bijection)")
				bijection = false
			}
		}
		if !bijection || len(sel.TraceOf) != len(f.Blocks) {
			continue
		}
		// Traces stay contiguous and in trace order.
		for ti := range sel.Traces {
			tr := &sel.Traces[ti]
			for i := 1; i < len(tr.Blocks); i++ {
				prev, cur := tr.Blocks[i-1], tr.Blocks[i]
				if pos[cur] != pos[prev]+1 {
					r.errorf(blockLoc(f.ID, cur), "trace %d split by the layout: block follows %d in the trace but sits %d slots away",
						ti, prev, pos[cur]-pos[prev])
				}
			}
		}
		if !u.TraceLayout {
			continue
		}
		// Zero-weight traces sink below the effective boundary.
		for i, b := range o.Blocks {
			w := sel.Traces[sel.TraceOf[b]].Weight
			if i < o.EffectiveBlocks && w == 0 {
				r.errorf(blockLoc(f.ID, b), "zero-weight trace block placed in the effective region (slot %d of %d)", i, o.EffectiveBlocks)
			}
			if i >= o.EffectiveBlocks && w != 0 {
				r.errorf(blockLoc(f.ID, b), "non-zero-weight trace block placed below the effective boundary (slot %d, boundary %d)", i, o.EffectiveBlocks)
			}
		}
		if et := sel.TraceOf[f.Entry]; sel.Traces[et].Weight > 0 && o.Blocks[0] != f.Entry {
			r.errorf(blockLoc(f.ID, f.Entry), "executed function does not start with its entry block (placement starts at the entry trace)")
		}
	}
}

// globalLayoutAnalyzer checks the composed placement: the function
// order is a permutation, block addresses tile the code space with no
// overlap, per-function regions are contiguous, and with the cold
// split every effective region is packed before every non-executed
// region.
func globalLayoutAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "globallayout",
		Doc:  "global layout equivalence: effective regions packed before non-executed regions, no address overlap",
		applies: func(u *Unit) bool {
			return u.Global != nil && u.Layout != nil && u.Orders != nil
		},
		run: runGlobalLayout,
	}
}

func runGlobalLayout(u *Unit, r *reporter) {
	p := u.Prog

	// Function order is a permutation.
	rank := u.Global.Positions(len(p.Funcs))
	for f, at := range rank {
		if at < 0 {
			r.errorf(funcLoc(ir.FuncID(f)), "function missing from the global order (order must be a permutation)")
		}
	}

	// The address map is a bijection onto [0, Total): block extents
	// tile the code space with no overlap and no gap.
	type extent struct {
		f    ir.FuncID
		b    ir.BlockID
		addr uint32
		size uint32
	}
	var extents []extent
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			extents = append(extents, extent{
				f: f.ID, b: b.ID,
				addr: u.Layout.BlockAddr(f.ID, b.ID),
				size: uint32(b.Bytes()),
			})
		}
	}
	sort.Slice(extents, func(i, j int) bool {
		if extents[i].addr != extents[j].addr {
			return extents[i].addr < extents[j].addr
		}
		return extents[i].size < extents[j].size
	})
	var at uint32
	tiled := true
	for _, e := range extents {
		if e.addr != at {
			r.errorf(blockLoc(e.f, e.b), "block at address %#x %s the expected tiling position %#x", e.addr,
				overlapOrGap(e.addr, at), at)
			tiled = false
			break
		}
		at += e.size
	}
	if tiled && at != u.Layout.Total {
		r.errorf(progLoc(), "blocks tile %d bytes but the layout claims %d total", at, u.Layout.Total)
	}
	if u.Layout.Total != uint32(p.Bytes()) {
		r.errorf(progLoc(), "layout spans %d bytes, program has %d bytes of code", u.Layout.Total, p.Bytes())
	}

	if len(u.Orders) != len(p.Funcs) {
		return // already reported by funclayout
	}

	// Per-function regions are contiguous, and with the cold split the
	// effective regions all pack below EffectiveBytes.
	eff := uint32(u.EffectiveBytes)
	for _, f := range p.Funcs {
		o := &u.Orders[f.ID]
		if len(o.Blocks) != len(f.Blocks) || o.EffectiveBlocks < 0 || o.EffectiveBlocks > len(o.Blocks) {
			continue // already reported by funclayout
		}
		checkRegion := func(blocks []ir.BlockID, name string) {
			for i, b := range blocks {
				addr := u.Layout.BlockAddr(f.ID, b)
				if i > 0 {
					prev := blocks[i-1]
					if want := u.Layout.BlockAddr(f.ID, prev) + uint32(f.Blocks[prev].Bytes()); addr != want {
						r.errorf(blockLoc(f.ID, b), "%s region not contiguous: block at %#x, previous block ends at %#x", name, addr, want)
					}
				}
			}
		}
		if u.SplitCold {
			hot, cold := o.Blocks[:o.EffectiveBlocks], o.Blocks[o.EffectiveBlocks:]
			checkRegion(hot, "effective")
			checkRegion(cold, "non-executed")
			for _, b := range hot {
				addr := u.Layout.BlockAddr(f.ID, b)
				if addr+uint32(f.Blocks[b].Bytes()) > eff {
					r.errorf(blockLoc(f.ID, b), "effective block at %#x spills past the packed effective region [0, %#x)", addr, eff)
				}
			}
			for _, b := range cold {
				if addr := u.Layout.BlockAddr(f.ID, b); addr < eff {
					r.errorf(blockLoc(f.ID, b), "non-executed block at %#x placed inside the packed effective region [0, %#x)", addr, eff)
				}
			}
		} else {
			checkRegion(o.Blocks, "function")
		}
	}
}

func overlapOrGap(addr, want uint32) string {
	if addr < want {
		return "overlaps"
	}
	return "leaves a gap before"
}
