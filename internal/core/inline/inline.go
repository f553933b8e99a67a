// Package inline implements IMPACT-I function inline expansion — step
// 2 of the paper's instruction placement pipeline.
//
// "The function calls (arcs in the weighted call graph) with high
// execution count are replaced with the function body if possible.
// The goal is to transform all the important inter-function control
// transfers into intra-function control transfers."
//
// The pass greedily expands the hottest remaining call site, subject
// to a static code growth budget, a callee size cap, and a recursion
// guard, until no candidate remains. Weights for call sites created by
// cloning a callee body are estimated by scaling the callee's internal
// site weights with the inlined site's weight; the pipeline derives
// the transformed program's exact profile afterwards (internal/core),
// so these estimates only steer the greedy order, never the final
// measurements.
package inline

import (
	"fmt"

	"impact/internal/ir"
	"impact/internal/profile"
)

// Config controls the expansion.
type Config struct {
	// MaxGrowth bounds the static code size after inlining, as a
	// multiple of the original size. The paper reports 0-34% growth on
	// its benchmarks; DefaultConfig uses 1.35.
	MaxGrowth float64
	// MinSiteFraction prunes cold call sites: a site is a candidate
	// only while its weight is at least this fraction of all dynamic
	// calls. DefaultConfig uses 1%.
	MinSiteFraction float64
	// MaxCalleeBytes skips callees larger than this (0 = no limit).
	MaxCalleeBytes int
}

// DefaultConfig returns the configuration used for the paper
// reproduction experiments. The budget matches the paper's observed
// operating point: static growth stays within about a third (Table 3
// tops out at 34%) and only call sites carrying a meaningful share of
// the dynamic calls are expanded.
func DefaultConfig() Config {
	return Config{
		MaxGrowth:       1.35,
		MinSiteFraction: 0.01,
		MaxCalleeBytes:  4096,
	}
}

// Expansion records one inlined call site: which site was replaced by
// which callee's body, and where the cloned blocks landed in the
// caller. internal/check replays these records to prove the pass only
// moved code.
type Expansion struct {
	// Site is the call site that was expanded, in the coordinates of
	// the evolving program at the moment of expansion.
	Site ir.CallSite
	// Callee is the function whose body was spliced in.
	Callee ir.FuncID
	// CloneBase is the ID of the first cloned callee block in the
	// caller; the clones occupy [CloneBase, CloneBase+CloneBlocks).
	CloneBase ir.BlockID
	// CloneBlocks is the number of callee blocks cloned.
	CloneBlocks int
	// Tail is the block holding the rest of the split call block.
	Tail ir.BlockID
}

// Report summarises what the pass did (inputs to Table 3).
type Report struct {
	BytesBefore  int
	BytesAfter   int
	SitesInlined int
	// CallsBefore is the profiled dynamic call count of the input
	// program; dynamic calls after inlining are in the transformed
	// program's profile (see internal/core).
	CallsBefore uint64
	// Expansions records every inlined site in expansion order.
	Expansions []Expansion
}

// CodeIncrease returns the static code growth fraction ("code inc").
func (r Report) CodeIncrease() float64 {
	if r.BytesBefore == 0 {
		return 0
	}
	return float64(r.BytesAfter-r.BytesBefore) / float64(r.BytesBefore)
}

// Expand returns a copy of p with hot call sites inline-expanded,
// using the profiled weights w. The input program is not modified.
func Expand(p *ir.Program, w *profile.Weights, cfg Config) (*ir.Program, Report, error) {
	if err := w.Check(p); err != nil {
		return nil, Report{}, err
	}
	if cfg.MaxGrowth < 1 {
		return nil, Report{}, fmt.Errorf("inline: MaxGrowth %v < 1", cfg.MaxGrowth)
	}
	np := ir.Clone(p)
	rep := Report{
		BytesBefore: p.Bytes(),
		CallsBefore: w.DynCalls,
	}

	// Working estimates on the evolving program.
	sites := make(map[ir.CallSite]uint64, len(w.Sites))
	//lint:maprange map-to-map copy
	for s, c := range w.Sites {
		sites[s] = c
	}
	entries := make([]float64, len(p.Funcs))
	for f := range entries {
		entries[f] = float64(w.Funcs[f].Entries)
	}

	minWeight := uint64(cfg.MinSiteFraction * float64(w.DynCalls))
	if minWeight == 0 {
		minWeight = 1
	}
	budget := int(cfg.MaxGrowth * float64(rep.BytesBefore))

	skipped := make(map[ir.CallSite]bool)
	for {
		// Hottest remaining candidate (deterministic tie-break).
		var best ir.CallSite
		var bestW uint64
		found := false
		//lint:maprange max with full deterministic tie-break
		for s, c := range sites {
			if c < minWeight || skipped[s] {
				continue
			}
			if !found || c > bestW || (c == bestW && siteLess(s, best)) {
				best, bestW, found = s, c, true
			}
		}
		if !found {
			break
		}

		callee := np.Callee(best)
		caller := best.Func
		calleeFn := np.Funcs[callee]
		switch {
		case calleeFn.NoInline, // system-call boundary
			callee == caller,
			np.Reaches(callee, caller): // would create self-inlining; a cycle below the caller still unrolls into it
			skipped[best] = true
			continue
		case cfg.MaxCalleeBytes > 0 && calleeFn.Bytes() > cfg.MaxCalleeBytes:
			skipped[best] = true
			continue
		case np.Bytes()+calleeFn.Bytes() > budget:
			skipped[best] = true
			continue
		}

		calleeBlocks := len(calleeFn.Blocks)
		base := ir.BlockID(len(np.Funcs[caller].Blocks))
		expandSite(np, best, sites, entries)
		rep.SitesInlined++
		rep.Expansions = append(rep.Expansions, Expansion{
			Site:        best,
			Callee:      callee,
			CloneBase:   base,
			CloneBlocks: calleeBlocks,
			Tail:        base + ir.BlockID(calleeBlocks),
		})
	}

	rep.BytesAfter = np.Bytes()
	if err := ir.Validate(np); err != nil {
		return nil, rep, fmt.Errorf("inline: produced invalid program: %w", err)
	}
	return np, rep, nil
}

func siteLess(a, b ir.CallSite) bool {
	if a.Func != b.Func {
		return a.Func < b.Func
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	return a.Instr < b.Instr
}

// expandSite splices the callee's body into the caller at site s,
// updating the site weight estimates in place.
func expandSite(p *ir.Program, s ir.CallSite, sites map[ir.CallSite]uint64, entries []float64) {
	caller := p.Funcs[s.Func]
	blk := caller.Blocks[s.Block]
	callee := p.Funcs[p.Callee(s)]
	siteW := sites[s]
	delete(sites, s)

	base := ir.BlockID(len(caller.Blocks))
	tailID := base + ir.BlockID(len(callee.Blocks))

	// Clone the callee body; exits jump to the tail block.
	clones := make([]*ir.Block, len(callee.Blocks))
	for i, gb := range callee.Blocks {
		nb := ir.CloneBlock(gb, base+ir.BlockID(i))
		for k := range nb.Out {
			nb.Out[k].To += base
		}
		if len(nb.Out) == 0 {
			// Exit block: the return becomes a jump to the tail.
			nb.Instrs[len(nb.Instrs)-1] = ir.Instr{Op: ir.OpJump, Callee: ir.NoFunc}
			nb.Out = []ir.Arc{{To: tailID, Prob: 1}}
		}
		clones[i] = nb
	}

	// Tail block: the rest of the split block, taking over its arcs.
	tail := &ir.Block{ID: tailID}
	tail.Instrs = append(tail.Instrs, blk.Instrs[s.Instr+1:]...)
	tail.Out = blk.Out

	// Head: everything before the call; the call instruction vanishes.
	blk.Instrs = blk.Instrs[:s.Instr]
	blk.Out = []ir.Arc{{To: base + callee.Entry, Prob: 1}}

	caller.Blocks = append(caller.Blocks, clones...)
	caller.Blocks = append(caller.Blocks, tail)

	// Re-key sites that moved from the split block into the tail.
	//lint:maprange independent per-key re-keying; inserted keys cannot match the filter
	for old, c := range sites {
		if old.Func == s.Func && old.Block == s.Block && old.Instr > s.Instr {
			delete(sites, old)
			sites[ir.CallSite{Func: s.Func, Block: tailID, Instr: old.Instr - s.Instr - 1}] = c
		}
	}

	// Estimate weights for the cloned inner call sites and scale the
	// callee's remaining weights: the callee is now entered siteW
	// fewer times.
	calleeEntries := entries[callee.ID]
	var ratio float64
	if calleeEntries > 0 {
		ratio = float64(siteW) / calleeEntries
		if ratio > 1 {
			ratio = 1
		}
	}
	for bi, gb := range callee.Blocks {
		for _, ci := range gb.CallSites() {
			inner := ir.CallSite{Func: callee.ID, Block: ir.BlockID(bi), Instr: int32(ci)}
			innerW := sites[inner]
			if innerW == 0 {
				continue
			}
			moved := uint64(float64(innerW) * ratio)
			cloneSite := ir.CallSite{Func: s.Func, Block: base + ir.BlockID(bi), Instr: int32(ci)}
			if moved > 0 {
				sites[cloneSite] = moved
			}
			if remaining := innerW - moved; remaining > 0 {
				sites[inner] = remaining
			} else {
				delete(sites, inner)
			}
		}
	}
	entries[callee.ID] = calleeEntries - float64(siteW)
	if entries[callee.ID] < 0 {
		entries[callee.ID] = 0
	}
}
