package check

import (
	"math"
	"sort"

	"impact/internal/ir"
	"impact/internal/profile"
)

// probTol is the tolerance on a block's outgoing probability mass.
// ir.Validate accepts 1e-6; the verifier holds pipeline-internal
// programs to a tighter bound, since every transform either copies
// probabilities verbatim or sets them to exactly 1.
const probTol = 1e-9

// cfgAnalyzer checks CFG well-formedness beyond ir.Validate:
// terminator/arc-count agreement in the direction Validate skips
// (multi-way blocks must end in a branch), duplicate arc targets, and
// probability mass ≈ 1 with explicit NaN/Inf rejection.
func cfgAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "cfg",
		Doc:     "CFG well-formedness: terminator/arc agreement, probability mass ≈ 1, NaN/Inf rejection",
		applies: func(u *Unit) bool { return true },
		run:     runCFG,
	}
}

func runCFG(u *Unit, r *reporter) {
	for _, f := range u.Prog.Funcs {
		for _, b := range f.Blocks {
			loc := blockLoc(f.ID, b.ID)
			var last ir.Opcode = ir.OpALU
			if len(b.Instrs) > 0 {
				last = b.Instrs[len(b.Instrs)-1].Op
			}
			// ir.Validate checks that a branch terminator has >= 2
			// arcs; the converse — a multi-way block that does not end
			// in a branch, so the hardware has no way to pick an arc —
			// slips through it.
			if len(b.Out) >= 2 && last != ir.OpBranch {
				r.errorf(loc, "block has %d outgoing arcs but ends with %v, not a branch", len(b.Out), last)
			}
			if len(b.Out) == 0 {
				continue
			}
			seen := make(map[ir.BlockID]int, len(b.Out))
			var total float64
			for k, a := range b.Out {
				aloc := Loc{Func: f.ID, Block: b.ID, Instr: -1}
				switch {
				case math.IsNaN(a.Prob):
					r.errorf(aloc, "arc %d (to block %d) has NaN probability", k, a.To)
				case math.IsInf(a.Prob, 0):
					r.errorf(aloc, "arc %d (to block %d) has infinite probability %v", k, a.To, a.Prob)
				case a.Prob < 0:
					r.errorf(aloc, "arc %d (to block %d) has negative probability %v", k, a.To, a.Prob)
				case a.Prob > 1:
					r.errorf(aloc, "arc %d (to block %d) has probability %v > 1", k, a.To, a.Prob)
				}
				if prev, dup := seen[a.To]; dup {
					r.warnf(aloc, "arcs %d and %d both target block %d", prev, k, a.To)
				} else {
					seen[a.To] = k
				}
				total += a.Prob
			}
			if math.IsNaN(total) || math.IsInf(total, 0) {
				r.errorf(loc, "outgoing probability mass is non-finite (%v)", total)
			} else if math.Abs(total-1) > probTol {
				r.errorf(loc, "outgoing probability mass %v differs from 1 by more than %v", total, probTol)
			}
		}
	}
}

// reachAnalyzer runs the dominator/reachability analysis: every block
// must be reachable from its function's entry, and no block the
// profile claims executed may be unreachable through
// positive-probability arcs (dead code cannot execute).
func reachAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "reach",
		Doc:     "dominator/reachability analysis: unreachable- and dead-block detection",
		applies: func(u *Unit) bool { return true },
		run:     runReach,
	}
}

func runReach(u *Unit, r *reporter) {
	for _, f := range u.Prog.Funcs {
		reach := Reachable(f)
		idom := Dominators(f)
		var probReach []bool
		for _, b := range f.Blocks {
			loc := blockLoc(f.ID, b.ID)
			if !reach[b.ID] {
				r.errorf(loc, "block is unreachable from the function entry")
				continue
			}
			if idom[b.ID] == ir.NoBlock {
				// Reachable must imply a dominator chain; disagreement
				// means the analysis inputs are inconsistent.
				r.errorf(loc, "reachable block has no dominator (analysis inconsistency)")
			}
			if u.Weights != nil && u.Weights.Funcs[f.ID].BlockW[b.ID] > 0 {
				if probReach == nil {
					probReach = ProbReachable(f)
				}
				if !probReach[b.ID] {
					r.errorf(loc, "profile says block executed %d times but it is dead (no positive-probability path from entry)",
						u.Weights.Funcs[f.ID].BlockW[b.ID])
				}
			}
		}
	}
}

// weightFlowAnalyzer checks conservation of the measured profile: each
// block's inflow and outflow equal its execution count, call sites
// fire exactly once per execution of their block, and the call-graph
// weights (pairs, entries, dynamic totals) are consistent with the
// site weights. Capped profiling runs break these equalities
// legitimately, so the flow checks are skipped when the profile
// records capped runs.
func weightFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "weightflow",
		Doc:     "weight-flow conservation: block inflow = outflow, call-graph weights consistent with arc weights",
		applies: func(u *Unit) bool { return u.Weights != nil },
		run:     runWeightFlow,
	}
}

func runWeightFlow(u *Unit, r *reporter) {
	p, w := u.Prog, u.Weights
	if err := w.Check(p); err != nil {
		r.errorf(progLoc(), "profile weights do not match the program shape: %v", err)
		return
	}
	if w.Capped > 0 {
		// A run that hit the step cap stops mid-block on every frame of
		// its call stack: entered blocks without a taken arc. The flow
		// equalities below only hold for complete runs, so they are
		// skipped (counted in obs as check.weightflow.skips).
		r.skip()
		return
	}

	for _, f := range p.Funcs {
		fw := &w.Funcs[f.ID]
		inflow := make([]uint64, len(f.Blocks))
		for _, b := range f.Blocks {
			var out uint64
			for k := range b.Out {
				c := fw.ArcW[b.ID][k]
				out += c
				inflow[b.Out[k].To] += c
			}
			if len(b.Out) > 0 && out != fw.BlockW[b.ID] {
				r.errorf(blockLoc(f.ID, b.ID), "outflow %d != block weight %d (every execution must leave via exactly one arc)",
					out, fw.BlockW[b.ID])
			}
		}
		for _, b := range f.Blocks {
			want := inflow[b.ID]
			if b.ID == f.Entry {
				want += fw.Entries
			}
			if fw.BlockW[b.ID] != want {
				r.errorf(blockLoc(f.ID, b.ID), "block weight %d != inflow %d (arc inflow plus function entries)",
					fw.BlockW[b.ID], want)
			}
		}

		// Every call instruction executes exactly once per execution of
		// its block.
		for _, b := range f.Blocks {
			for _, ci := range b.CallSites() {
				s := ir.CallSite{Func: f.ID, Block: b.ID, Instr: int32(ci)}
				if got := w.Sites[s]; got != fw.BlockW[b.ID] {
					r.errorf(Loc{Func: f.ID, Block: b.ID, Instr: s.Instr},
						"call site weight %d != block weight %d", got, fw.BlockW[b.ID])
				}
			}
		}
	}

	// Site weights must reference real call instructions and sum to the
	// recorded pair weights, entries, and dynamic call total.
	pairs := make(map[profile.CallPair]uint64, len(w.Pairs))
	var siteTotal uint64
	//lint:maprange order-insensitive accumulation; diagnostics are re-sorted by Report
	for s, c := range w.Sites {
		if int(s.Func) >= len(p.Funcs) || int(s.Block) >= len(p.Funcs[s.Func].Blocks) ||
			int(s.Instr) >= len(p.Funcs[s.Func].Blocks[s.Block].Instrs) ||
			p.Funcs[s.Func].Blocks[s.Block].Instrs[s.Instr].Op != ir.OpCall {
			r.errorf(Loc{Func: s.Func, Block: s.Block, Instr: s.Instr}, "site weight %d references a non-call instruction", c)
			continue
		}
		pairs[profile.CallPair{Caller: s.Func, Callee: p.Callee(s)}] += c
		siteTotal += c
	}
	for _, pair := range sortedPairs(pairs) {
		want := pairs[pair]
		if got := w.Pairs[pair]; got != want {
			r.errorf(funcLoc(pair.Caller), "call-graph weight %d for callee %d != %d, the sum of its site weights", got, pair.Callee, want)
		}
	}
	for _, pair := range sortedPairs(w.Pairs) {
		got := w.Pairs[pair]
		if _, ok := pairs[pair]; !ok && got != 0 {
			r.errorf(funcLoc(pair.Caller), "call-graph arc to callee %d has weight %d but no executed call site", pair.Callee, got)
		}
	}
	if siteTotal != w.DynCalls {
		r.errorf(progLoc(), "site weights sum to %d but the profile recorded %d dynamic calls", siteTotal, w.DynCalls)
	}
	for _, f := range p.Funcs {
		var want uint64
		//lint:maprange order-insensitive sum
		for pair, c := range pairs {
			if pair.Callee == f.ID {
				want += c
			}
		}
		if f.ID == p.Entry {
			want += uint64(w.Runs)
		}
		if got := w.Funcs[f.ID].Entries; got != want {
			r.errorf(funcLoc(f.ID), "function entries %d != %d, the incoming call-graph weight (plus one per run for the program entry)", got, want)
		}
	}
}

// sortedPairs returns m's keys ordered by caller then callee, so
// per-pair diagnostics come out in a reproducible source order.
func sortedPairs(m map[profile.CallPair]uint64) []profile.CallPair {
	out := make([]profile.CallPair, 0, len(m))
	//lint:maprange order restored by the sort below
	for pair := range m {
		out = append(out, pair)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}
