package analysis

import "sort"

// Persistence analysis — the third static pass next to must and may.
//
// Must/may classify a reference by what is *guaranteed* about the
// cache at one program point. Persistence instead reasons about a
// *scope*: a region of the program that, once entered, cannot evict a
// line it has loaded. While control stays inside such a scope every
// reference to the line after the first one hits, so the line's misses
// within the scope are bounded by the number of times the scope is
// entered — not by the reference weights. The classic formulation is
// Ferdinand & Wilhelm's third fixpoint; its original ageing update is
// known to be unsound (Cullmann, "Cache persistence analysis: theory
// and practice"), so this implementation uses the conflict-counting
// form instead, which needs no fixpoint at all:
//
//   - A scope is a cyclic strongly connected component of the region
//     supergraph — a loop (intra-function, or spanning calls). Control
//     can only re-reach a region without leaving the scope if the two
//     share an SCC, so the SCC is the maximal scope for which "entered
//     once" is meaningful.
//   - A line l is persistent within scope S when the distinct lines
//     fetched by S's (executed) regions that map to l's cache set fit
//     the set's ways. The simulator fills invalid ways first and LRU
//     never evicts a line to admit one already cached, so a set whose
//     in-scope footprint fits its ways evicts nothing while control
//     stays in S.
//   - Each entry into S admits at most one miss per persistent line
//     (the first access of the sojourn; every later one hits). Entries
//     into S are bounded by the executions of outside regions with an
//     edge into S — each region execution transfers to exactly one
//     successor — plus one per run when the program entry lies in S.
//
// Whole-program persistence (the PersistentLines accounting of the
// classifier, inclinear.go) is the degenerate scope covering the
// entire supergraph with `runs` entries; the SCC scopes tighten lines
// that are evicted between loop visits but stable within them.

// sccInfo partitions the supergraph into strongly connected components
// and keeps the layout-independent half of the persistence data: scope
// membership and entry bounds. Both depend only on the graph structure
// and the profile weights, never on block addresses, so an incremental
// re-analysis reuses one sccInfo across candidate layouts.
type sccInfo struct {
	// scope[r] is the cyclic-SCC index of region r, or -1 when r is not
	// on any cycle (a trivial SCC without a self edge) and persistence
	// has no scope to reason about.
	scope []int32
	// members[s] lists scope s's regions in ascending region order.
	members [][]int32
	// entries[s] bounds how often control can enter scope s during the
	// profiled executions: the summed weight of outside regions with an
	// edge into s, plus runs when the program entry region is inside.
	entries []uint64
}

// buildScopes runs Tarjan's algorithm (iteratively — region graphs of
// inlined programs can be deep) over all regions and keeps the cyclic
// components as persistence scopes.
func buildScopes(sg *supergraph, runs uint64) *sccInfo {
	n := len(sg.regions)
	sc := &sccInfo{scope: make([]int32, n)}
	for i := range sc.scope {
		sc.scope[i] = -1
	}

	index := make([]int32, n) // 0 = unvisited, else discovery order + 1
	low := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]int32, 0, n)
	var next int32
	type frame struct {
		v    int32
		succ int
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		dfs = append(dfs[:0], frame{v: int32(root)})
		for len(dfs) > 0 {
			fr := &dfs[len(dfs)-1]
			v := fr.v
			if fr.succ == 0 {
				next++
				index[v] = next
				low[v] = next
				stack = append(stack, v)
				onStack[v] = true
			}
			descended := false
			succs := sg.regions[v].succs
			for fr.succ < len(succs) {
				w := succs[fr.succ]
				fr.succ++
				if index[w] == 0 {
					dfs = append(dfs, frame{v: w})
					descended = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if descended {
				continue
			}
			if low[v] == index[v] {
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				cyclic := len(comp) > 1
				if !cyclic {
					for _, s := range succs {
						if s == v {
							cyclic = true
							break
						}
					}
				}
				if cyclic {
					id := int32(len(sc.members))
					sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
					for _, m := range comp {
						sc.scope[m] = id
					}
					sc.members = append(sc.members, comp)
				}
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}

	// Entry bounds. A region executes weight times and each execution
	// follows one successor edge, so it contributes its weight at most
	// once per target scope no matter how many edges lead there.
	sc.entries = make([]uint64, len(sc.members))
	var targets []int32
	for ri := range sg.regions {
		r := &sg.regions[ri]
		if r.weight == 0 {
			continue
		}
		from := sc.scope[ri]
		targets = targets[:0]
		for _, s := range r.succs {
			t := sc.scope[s]
			if t < 0 || t == from {
				continue
			}
			dup := false
			for _, seen := range targets {
				if seen == t {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, t)
				sc.entries[t] += r.weight
			}
		}
	}
	if t := sc.scope[sg.entry]; t >= 0 {
		sc.entries[t] += runs
	}
	return sc
}
