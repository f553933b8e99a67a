package analysis

import (
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/profile"
)

// Ext-TSP distance model (Newell & Pupyrev, "Improved Basic Block
// Reordering"): a control transfer scores its full weight when the
// target is the fall-through address, a decayed fraction when it jumps
// forward within a small window, a faster-decayed fraction when it
// jumps backward within a smaller window, and nothing beyond.
const (
	extTSPForward  = 1024 // forward-jump window in bytes
	extTSPBackward = 640  // backward-jump window in bytes
	extTSPWeight   = 0.1  // non-fall-through jumps score at most this
)

// Score is the geometry-independent layout quality of one layout
// under one profile.
type Score struct {
	// TotalWeight is the summed weight of all scored control
	// transfers (intra-function arcs and call edges; returns are
	// excluded — the return address is caller state, not layout).
	TotalWeight uint64
	// FallThrough is the weight of transfers whose target is the
	// address immediately after the source — fetches the sequential
	// prefetch stream already covers.
	FallThrough uint64
	// ExtTSP is the weighted ext-TSP locality score in [0, 1]: 1 when
	// every transfer falls through, 0 when every transfer jumps
	// beyond the locality windows.
	ExtTSP float64
}

// FallThroughRatio returns FallThrough/TotalWeight (0 when unprofiled).
func (s Score) FallThroughRatio() float64 {
	if s.TotalWeight == 0 {
		return 0
	}
	return float64(s.FallThrough) / float64(s.TotalWeight)
}

// extTSPFactor scores one transfer from source-end address srcEnd to
// target address dst.
func extTSPFactor(srcEnd, dst uint32) float64 {
	if dst == srcEnd {
		return 1
	}
	if dst > srcEnd {
		d := dst - srcEnd
		if d < extTSPForward {
			return extTSPWeight * (1 - float64(d)/extTSPForward)
		}
		return 0
	}
	d := srcEnd - dst
	if d < extTSPBackward {
		return extTSPWeight * (1 - float64(d)/extTSPBackward)
	}
	return 0
}

// ScoreLayout scores lay under the profile w without running the full
// must/may analysis — the cheap geometry-independent slice of Analyze,
// used by the per-stage locality ledger (core.Ledger) to price each
// pipeline stage's contribution. It evaluates the same edge terms the
// analysis engine caches, in the same order, so the two agree exactly.
func ScoreLayout(lay *layout.Layout, w *profile.Weights) Score {
	edges := scoreEdges(lay.Program(), w)
	ft := make([]bool, len(edges))
	acc := make([]float64, len(edges))
	for i := range edges {
		ft[i], acc[i] = edges[i].term(lay)
	}
	return sumScore(edges, ft, acc)
}

// scoreEdge is one profiled control transfer; addresses are looked up
// at evaluation time, everything else is layout-independent.
type scoreEdge struct {
	f ir.FuncID
	b ir.BlockID
	// c is the call instruction index, or -1 for an intra-function arc.
	c int32
	// tf/to name the target block (the callee's entry for calls).
	tf ir.FuncID
	to ir.BlockID
	w  uint64
}

// scoreEdges lists every profiled control transfer of p in scoring
// order: each intra-function arc, from the end of its source block to
// its target block, and each call, from the instruction after the call
// site to the callee's entry — a block's arcs before its calls.
// Unexecuted transfers score nothing and are left out.
func scoreEdges(p *ir.Program, w *profile.Weights) []scoreEdge {
	var edges []scoreEdge
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for k, a := range b.Out {
				if wgt := w.ArcWeight(f.ID, b.ID, k); wgt > 0 {
					edges = append(edges, scoreEdge{f: f.ID, b: b.ID, c: -1, tf: f.ID, to: a.To, w: wgt})
				}
			}
			for _, c := range b.CallSites() {
				site := ir.CallSite{Func: f.ID, Block: b.ID, Instr: int32(c)}
				if wgt := w.SiteWeight(site); wgt > 0 {
					callee := b.Instrs[c].Callee
					edges = append(edges, scoreEdge{f: f.ID, b: b.ID, c: int32(c), tf: callee, to: p.Funcs[callee].Entry, w: wgt})
				}
			}
		}
	}
	return edges
}

// term returns the edge's fall-through flag and weighted ext-TSP term
// under lay.
func (e *scoreEdge) term(lay *layout.Layout) (ft bool, acc float64) {
	var srcEnd uint32
	if e.c < 0 {
		srcEnd = lay.BlockEnd(e.f, e.b)
	} else {
		srcEnd = lay.InstrAddr(e.f, e.b, e.c) + ir.InstrBytes
	}
	dst := lay.BlockAddr(e.tf, e.to)
	return dst == srcEnd, float64(e.w) * extTSPFactor(srcEnd, dst)
}

// sumScore folds per-edge terms in edge order: one fixed sequence of
// floating-point additions, whichever caller evaluated the terms.
func sumScore(edges []scoreEdge, ft []bool, acc []float64) Score {
	var s Score
	var sum float64
	for i := range edges {
		s.TotalWeight += edges[i].w
		if ft[i] {
			s.FallThrough += edges[i].w
		}
		sum += acc[i]
	}
	if s.TotalWeight > 0 {
		s.ExtTSP = sum / float64(s.TotalWeight)
	}
	return s
}
