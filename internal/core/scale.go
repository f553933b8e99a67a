package core

import (
	"fmt"
	"math"
	"slices"

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
// on a block's length. So a run of the scaled program enters the
// blocks, takes the arcs and makes the calls of its step-1 twin, and
// when the twin completed, the scaled run executes its block entries
// times the scaled block lengths (interp.Contexts.RunInstrs) and
// completes when that stays below the step guard. When every run
// completes that way, Scale weighs step 1's counts on the scaled
// program — the weight propagation IMPACT-I does instead of
// re-profiling — and runs step 2 as Profile does, re-profiling the
// scaled expansion from the same context counts. It profiles the
// scaled program when a run did not complete, might not complete at
// the scaled lengths, or pr holds no context counts. A derived value
// shares pr's context counts, so it can be scaled again; like every
// Profiled value, it is read-only.
func (pr *Profiled) Scale(factor float64) (*Profiled, error) {
	if !(factor > 0) || math.IsInf(factor, 1) {
		return nil, fmt.Errorf("core: code scale factor %v is not a finite number above zero", factor)
	}
	q := ir.ScaleCode(pr.Input, factor)
	cfg := Config{
		ProfileSeeds: pr.ProfileSeeds,
		Interp:       pr.Interp,
		Inline:       pr.Inline,
		Strategy:     Strategy{Inline: pr.Inlined != nil},
	}
	runs, ok := pr.scaledRuns(q)
	if !ok {
		return Profile(q, cfg)
	}
	out := &Profiled{
		Input: q, OrigWeights: profile.Weigh(q, pr.contexts.Sum(), runs),
		ProfileSeeds: pr.ProfileSeeds, Interp: pr.Interp, Inline: pr.Inline,
		origRuns: runs, contexts: pr.contexts,
	}
	r := newRun(cfg)
	defer r.pipe.End()
	if err := r.inline(out, profile.Config{Seeds: pr.ProfileSeeds, Interp: pr.Interp}); err != nil {
		return nil, err
	}
	return out, nil
}

// scaledRuns returns the results of pr's profiling runs on q, a
// code-scaled copy of pr.Input, and reports whether every one of them
// provably completes: its step-1 twin completed and its length on q
// stays below the step guard.
func (pr *Profiled) scaledRuns(q *ir.Program) ([]interp.Result, bool) {
	if pr.contexts == nil {
		return nil, false
	}
	maxSteps := pr.Interp.MaxSteps
	if maxSteps == 0 {
		maxSteps = interp.DefaultMaxSteps
	}
	runs := slices.Clone(pr.origRuns)
	for i, n := range pr.contexts.RunInstrs(q) {
		if !runs[i].Completed || n >= maxSteps {
			return nil, false
		}
		runs[i].Instrs = n
	}
	return runs, true
}
