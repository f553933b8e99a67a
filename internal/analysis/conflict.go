package analysis

import (
	"sort"

	"impact/internal/ir"
)

// The conflict pass is the static predictor of conflict misses: it
// distributes each region's fetch weight over the cache lines it
// occupies, folds lines into the sets of the analysed geometry, and
// ranks the sets whose weighted demand spills past their ways. Each
// hot line is attributed to the function owning most of its bytes, so
// the report can name the function pairs fighting over a set — the
// candidates the paper's placement passes are supposed to separate.
//
// The pass is organised per cache set (conflictSet): one set's summary
// depends only on the regions whose spans touch that set, so a fresh
// engine summarises every set and an update recomputes just the sets
// where code moved, keeping every other cached summary (see
// inclinear.go). The report is assembled from the per-set summaries.

// LineShare is one cache line's contribution to a pressured set.
type LineShare struct {
	// Line is the cache line index (Addr / block bytes).
	Line uint32
	// Addr is the line's first byte address.
	Addr uint32
	// Weight is the summed fetch weight of regions touching the line.
	Weight uint64
	// Func names the function owning the largest share of the line.
	Func     ir.FuncID
	FuncName string
}

// SetPressure describes one cache set's weighted demand.
type SetPressure struct {
	// Set is the set index.
	Set int
	// Weight is the set's total fetch weight across all its lines.
	Weight uint64
	// Excess is the weight beyond the set's ways: the sum over all
	// lines past the assoc hottest — weight that must contend.
	Excess uint64
	// Lines holds the set's hottest lines, descending by weight.
	Lines []LineShare
}

// FuncPair is a ranked pair of functions contending for cache sets.
type FuncPair struct {
	A, B         ir.FuncID
	AName, BName string
	// Weight sums, over every overflowing set where both functions own
	// lines, the smaller of the two functions' set weights — an upper
	// estimate of the fetch weight their conflict can disturb.
	Weight uint64
}

// ConflictReport ranks the hot set-pressure conflicts of one layout
// under one geometry.
type ConflictReport struct {
	// Sets holds the most pressured sets, descending by Excess.
	Sets []SetPressure
	// TotalExcess sums Excess over all sets, not just the reported
	// ones — the single-number conflict pressure of the layout.
	TotalExcess uint64
	// Pairs ranks function pairs contending in overflowing sets.
	Pairs []FuncPair
}

// confSet is one cache set's conflict summary. Treated as immutable
// once built: recomputations replace the whole value, so report
// slices handed out by assembleConflict stay valid.
type confSet struct {
	// lines holds every line of the set with executed fetch weight,
	// sorted by weight descending, line ascending.
	lines  []LineShare
	weight uint64
	// excess is the weight past the assoc hottest lines; 0 when the
	// set does not overflow.
	excess uint64
	// funcs holds the per-function weights in the set, ascending by
	// FuncID; nil unless the set overflows.
	funcs []funcWeight
}

type funcWeight struct {
	f ir.FuncID
	w uint64
}

// confScratch holds the per-column accumulation arrays conflictSet
// reuses across sets.
type confScratch struct {
	lw      []uint64    // per-column weight
	ob      []uint32    // per-column owner byte count
	of      []ir.FuncID // per-column owner
	ab      []uint32    // current function's bytes per column
	touched []int32
}

func (cs *confScratch) size(colLen int) {
	if cap(cs.lw) < colLen {
		cs.lw = make([]uint64, colLen)
		cs.ob = make([]uint32, colLen)
		cs.of = make([]ir.FuncID, colLen)
		cs.ab = make([]uint32, colLen)
	}
	cs.lw = cs.lw[:colLen]
	cs.ob = cs.ob[:colLen]
	cs.of = cs.of[:colLen]
	cs.ab = cs.ab[:colLen]
	for i := 0; i < colLen; i++ {
		cs.lw[i] = 0
		cs.ob[i] = 0
		cs.of[i] = ir.NoFunc
		cs.ab[i] = 0
	}
	cs.touched = cs.touched[:0]
}

// conflictSet summarises one cache set: regs lists the regions with
// executed weight whose span touches set s, ascending by region index
// (which groups them by function — buildSupergraph appends regions
// function by function). Each line is attributed to the function
// covering most of its bytes; ties keep the smaller FuncID.
func conflictSet(sg *supergraph, g geom, p *ir.Program, s uint32, regs []int32, cs *confScratch) confSet {
	S := g.numSets
	colLen := g.colLen(s)
	if colLen == 0 {
		return confSet{}
	}
	cs.size(colLen)

	cur := ir.NoFunc
	flush := func() {
		for _, u := range cs.touched {
			if b := cs.ab[u]; b > cs.ob[u] || (b == cs.ob[u] && cs.of[u] != ir.NoFunc && cur < cs.of[u]) {
				cs.ob[u] = b
				cs.of[u] = cur
			}
			cs.ab[u] = 0
		}
		cs.touched = cs.touched[:0]
	}
	for _, ri := range regs {
		r := &sg.regions[ri]
		l0, l1, ok := r.lineRange(g.blockBytes)
		if !ok {
			continue
		}
		if r.f != cur {
			flush()
			cur = r.f
		}
		end := r.addr + uint32(r.words)*ir.InstrBytes
		for l := l0 + (s+S-l0%S)%S; l <= l1; l += S {
			u := int((l - s) / S)
			cs.lw[u] += r.weight
			lo, hi := l*g.blockBytes, (l+1)*g.blockBytes
			if r.addr > lo {
				lo = r.addr
			}
			if end < hi {
				hi = end
			}
			if cs.ab[u] == 0 {
				cs.touched = append(cs.touched, int32(u))
			}
			cs.ab[u] += hi - lo
		}
	}
	flush()

	var out confSet
	for u := 0; u < colLen; u++ {
		if cs.lw[u] == 0 {
			continue
		}
		l := s + uint32(u)*S
		ls := LineShare{Line: l, Addr: l * g.blockBytes, Weight: cs.lw[u], Func: cs.of[u]}
		if ls.Func != ir.NoFunc {
			ls.FuncName = p.Funcs[ls.Func].Name
		}
		out.lines = append(out.lines, ls)
		out.weight += ls.Weight
	}
	if len(out.lines) <= int(g.assoc) {
		return out
	}
	sort.Slice(out.lines, func(i, j int) bool {
		if out.lines[i].Weight != out.lines[j].Weight {
			return out.lines[i].Weight > out.lines[j].Weight
		}
		return out.lines[i].Line < out.lines[j].Line
	})
	for _, ls := range out.lines[g.assoc:] {
		out.excess += ls.Weight
	}
	if out.excess == 0 {
		return out
	}
	for _, ls := range out.lines {
		if ls.Func == ir.NoFunc {
			continue
		}
		found := false
		for i := range out.funcs {
			if out.funcs[i].f == ls.Func {
				out.funcs[i].w += ls.Weight
				found = true
				break
			}
		}
		if !found {
			out.funcs = append(out.funcs, funcWeight{f: ls.Func, w: ls.Weight})
		}
	}
	sort.Slice(out.funcs, func(i, j int) bool { return out.funcs[i].f < out.funcs[j].f })
	return out
}

// assembleConflict builds the ranked report from per-set summaries:
// each pair of functions sharing an overflowing set weighs the lighter
// of their weights there, summed over the sets.
func assembleConflict(sets []confSet, p *ir.Program, topSets, topLines, topPairs int) ConflictReport {
	rep := ConflictReport{}
	var keep []SetPressure
	pairW := map[[2]ir.FuncID]uint64{}
	for s := range sets {
		if sets[s].excess == 0 {
			continue
		}
		funcs := sets[s].funcs
		for i := range funcs {
			for j := i + 1; j < len(funcs); j++ {
				pairW[[2]ir.FuncID{funcs[i].f, funcs[j].f}] += min(funcs[i].w, funcs[j].w)
			}
		}
		rep.TotalExcess += sets[s].excess
		keep = append(keep, SetPressure{
			Set: s, Weight: sets[s].weight, Excess: sets[s].excess, Lines: sets[s].lines,
		})
	}
	sort.Slice(keep, func(i, j int) bool {
		if keep[i].Excess != keep[j].Excess {
			return keep[i].Excess > keep[j].Excess
		}
		return keep[i].Set < keep[j].Set
	})
	if len(keep) > topSets {
		keep = keep[:topSets]
	}
	for i := range keep {
		if len(keep[i].Lines) > topLines {
			keep[i].Lines = keep[i].Lines[:topLines]
		}
	}
	rep.Sets = keep

	pairs := make([]FuncPair, 0, len(pairW))
	//lint:maprange pairs fully sorted below
	for k, wgt := range pairW {
		pairs = append(pairs, FuncPair{
			A: k[0], B: k[1],
			AName: p.Funcs[k[0]].Name, BName: p.Funcs[k[1]].Name,
			Weight: wgt,
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Weight != pairs[j].Weight {
			return pairs[i].Weight > pairs[j].Weight
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	if len(pairs) > topPairs {
		pairs = pairs[:topPairs]
	}
	rep.Pairs = pairs
	return rep
}
