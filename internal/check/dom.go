package check

import "impact/internal/ir"

// Reachable computes the set of blocks reachable from f's entry
// through static arcs, indexed by BlockID.
//
//lint:testapi TestReachable (dom_test.go, package check_test)
func Reachable(f *ir.Function) []bool {
	return reachFrom(f, func(ir.Arc) bool { return true })
}

// ProbReachable computes the set of blocks reachable from f's entry
// through arcs with positive behavioural probability — the blocks the
// execution engine can actually visit. A block outside this set but
// inside Reachable is dead: code that exists, links, and can never
// run.
//
//lint:testapi TestReachable (dom_test.go, package check_test)
func ProbReachable(f *ir.Function) []bool {
	return reachFrom(f, func(a ir.Arc) bool { return a.Prob > 0 })
}

func reachFrom(f *ir.Function, follow func(ir.Arc) bool) []bool {
	reach := make([]bool, len(f.Blocks))
	stack := []ir.BlockID{f.Entry}
	reach[f.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range f.Blocks[b].Out {
			if follow(a) && !reach[a.To] {
				reach[a.To] = true
				stack = append(stack, a.To)
			}
		}
	}
	return reach
}

// Dominators computes the immediate dominator of every block of f
// using the Cooper–Harvey–Kennedy iterative algorithm. The result is
// indexed by BlockID; the entry block's immediate dominator is itself,
// and blocks unreachable from the entry get NoBlock.
//
//lint:testapi TestDominators and TestDominatorsUnreachable (dom_test.go, package check_test)
func Dominators(f *ir.Function) []ir.BlockID {
	n := len(f.Blocks)
	// Reverse postorder over reachable blocks.
	post := make([]ir.BlockID, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		b   ir.BlockID
		arc int
	}
	stack := []frame{{b: f.Entry}}
	state[f.Entry] = 1
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		blk := f.Blocks[fr.b]
		if fr.arc < len(blk.Out) {
			to := blk.Out[fr.arc].To
			fr.arc++
			if state[to] == 0 {
				state[to] = 1
				stack = append(stack, frame{b: to})
			}
			continue
		}
		state[fr.b] = 2
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	rpoNum := make([]int, n) // postorder number, higher = earlier in RPO
	for i, b := range post {
		rpoNum[b] = i
	}

	idom := make([]ir.BlockID, n)
	for i := range idom {
		idom[i] = ir.NoBlock
	}
	idom[f.Entry] = f.Entry

	preds := f.Preds()
	intersect := func(a, b ir.BlockID) ir.BlockID {
		for a != b {
			for rpoNum[a] < rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] < rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		// Iterate in reverse postorder, skipping the entry.
		for i := len(post) - 1; i >= 0; i-- {
			b := post[i]
			if b == f.Entry {
				continue
			}
			var newIdom ir.BlockID = ir.NoBlock
			for _, p := range preds[b] {
				if idom[p] == ir.NoBlock {
					continue // predecessor not processed / unreachable
				}
				if newIdom == ir.NoBlock {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != ir.NoBlock && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}
