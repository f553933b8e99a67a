package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"impact/internal/core/inline"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/profile"
)

// Scale returns the profiled value of ir.ScaleCode(pr.Input, factor)
// under pr's seeds and configuration: the scaled program's step-1
// weights and, when pr inlines, its step-2 expansion and re-profile.
// Every exported field equals what Profile returns for the scaled
// program.
//
// Code scaling changes block lengths only, and the interpreter's
// branch decisions depend on the seed and on each arc's shape, never
// on a block's length. So when every profiling run of pr completed
// and provably completes after scaling too, the scaled profile is
// pr's with each call site moved to its scaled instruction index and
// DynInstrs recounted — the weight propagation IMPACT-I does instead
// of re-profiling. Scale derives it that way when it can prove the
// result exact (see derive) and profiles the scaled program otherwise.
// Like every Profiled value, the result is read-only: a derived one
// shares pr's block, arc and pair counts.
func (pr *Profiled) Scale(factor float64) (*Profiled, error) {
	if !(factor > 0) || math.IsInf(factor, 1) {
		return nil, fmt.Errorf("core: code scale factor %v is not a finite number above zero", factor)
	}
	q := ir.ScaleCode(pr.Input, factor)
	if out, ok := pr.derive(q); ok {
		return out, nil
	}
	return Profile(q, Config{
		ProfileSeeds: pr.ProfileSeeds,
		Interp:       pr.Interp,
		Inline:       pr.Inline,
		Strategy:     Strategy{Inline: pr.Inlined != nil},
	})
}

// derive returns the profiled value of q, a code-scaled copy of
// pr.Input, without interpreting it, and reports whether it could. It
// expands q with the derived weights exactly as Profile would, and
// derives the re-profile only when the expansion gives the prepared
// inlined program's functions, blocks, arcs and calls — which the same
// expansions do. It fails when pr holds no per-run results, when a
// run did not complete or might not complete at the scaled lengths
// (see rescale), or when the expansion differs.
func (pr *Profiled) derive(q *ir.Program) (*Profiled, bool) {
	maxSteps := pr.Interp.MaxSteps
	if maxSteps == 0 {
		maxSteps = interp.DefaultMaxSteps
	}
	w, ok := rescale(pr.Input, q, pr.OrigWeights, pr.origRuns, maxSteps)
	if !ok {
		return nil, false
	}
	out := &Profiled{Input: q, OrigWeights: w, ProfileSeeds: pr.ProfileSeeds, Interp: pr.Interp, Inline: pr.Inline}
	if pr.Inlined == nil {
		return out, true
	}
	var err error
	out.Inlined, out.InlineReport, err = inline.Expand(q, w, pr.Inline)
	if err != nil {
		return nil, false // Profile meets and reports the same error
	}
	out.Weights, ok = rescale(pr.Inlined, out.Inlined, pr.Weights, pr.inlinedRuns, maxSteps)
	if !ok {
		return nil, false
	}
	return out, true
}

// rescale derives the profile of q from w, the profile of p measured
// by runs under a step guard of maxSteps, and reports whether the
// result is exact. q must have p's functions, entries, blocks, arcs
// and calls, in the same order; only block lengths may differ.
//
// On a completed run every block entry executes the whole block, so a
// run of q makes the same branch decisions and completes when its
// length stays below maxSteps: at most the run's Instrs times the
// largest q/p length ratio of an executed block. When every run
// completed and stays below the guard that way, q's block, arc, entry
// and pair counts are w's, each call site's count moves to the same
// call of its block in q, DynInstrs is Σ block weight × q's block
// length, and every other count is w's. The result shares w's block,
// arc and pair counts.
func rescale(p, q *ir.Program, w *profile.Weights, runs []interp.Result, maxSteps uint64) (*profile.Weights, bool) {
	if len(runs) == 0 || len(p.Funcs) != len(q.Funcs) || p.Entry != q.Entry {
		return nil, false
	}
	sites := make(map[ir.CallSite]uint64, len(w.Sites))
	var after uint64
	// num/den is the largest q/p length ratio of an executed block.
	num, den := uint64(0), uint64(1)
	for fi, pf := range p.Funcs {
		qf := q.Funcs[fi]
		if pf.Entry != qf.Entry || len(pf.Blocks) != len(qf.Blocks) {
			return nil, false
		}
		for bi, pb := range pf.Blocks {
			qb := qf.Blocks[bi]
			pc, qc := pb.CallSites(), qb.CallSites()
			if !slices.Equal(pb.Out, qb.Out) || len(pc) != len(qc) {
				return nil, false
			}
			for k, i := range pc {
				j := qc[k]
				if pb.Instrs[i].Callee != qb.Instrs[j].Callee {
					return nil, false
				}
				at := ir.CallSite{Func: ir.FuncID(fi), Block: ir.BlockID(bi), Instr: int32(i)}
				if n := w.Sites[at]; n > 0 {
					at.Instr = int32(j)
					sites[at] = n
				}
			}
			bw := w.Funcs[fi].BlockW[bi]
			if bw == 0 {
				continue
			}
			l, s := uint64(len(pb.Instrs)), uint64(len(qb.Instrs))
			switch {
			case l == 0 && s > 0:
				return nil, false // no ratio bounds this block's growth
			case l > 0 && s*den > num*l:
				num, den = s, l
			}
			after += bw * s
		}
	}
	limHi, limLo := bits.Mul64(maxSteps, den)
	for _, r := range runs {
		hi, lo := bits.Mul64(r.Instrs, num)
		if !r.Completed || hi > limHi || (hi == limHi && lo >= limLo) {
			return nil, false
		}
	}
	out := *w
	out.Sites = sites
	out.DynInstrs = after
	return &out, true
}
