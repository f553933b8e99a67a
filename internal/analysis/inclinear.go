package analysis

import (
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/obs"
)

// The engine's linear passes.
//
// After the fixpoint is confined to the dirty cache sets
// (incremental.go), the linear passes — classification, conflict
// ranking, layout scoring — dominate an update. Each decomposes into
// independent per-unit contributions folded by commutative operators,
// so a linearState caches the contributions and re-derives only the
// units a move invalidates:
//
//   - classification: each region contributes counts and weights
//     folded by uint64 addition into the program aggregates, plus
//     pooled weights on persistent lines (nonAH) and persistence
//     scopes (pool). A region's contribution depends on its own span,
//     the must/may states on its span's sets, and the persistence of
//     those sets — all invariant unless one of its span's sets is
//     dirty, the same criterion the fixpoint uses. The whole-program
//     min-capping of the pooled weights stays a cheap final pass in
//     assemble.
//   - conflict: one confSet per cache set (conflict.go), recomputed
//     for the sets where any weighted region's bytes moved; assemble
//     folds the function pairs from the overflowing sets' summaries.
//   - score: each profiled control transfer is a static edge whose
//     fall-through flag and ext-TSP term change only when its source
//     or target function's addresses changed. Cached terms are
//     re-summed in full edge order each update, so the floating-point
//     additions replay ScoreLayout's sequence exactly — deltas would
//     be cheaper but not bit-identical.
//
// A bounds-only engine (the page-frame analysis) keeps the
// classification only. Every mutation is recorded in the update's
// undoState, so Revert restores the caches to the previous layout byte
// for byte, and every fold is exact, so an updated cache equals one
// built from scratch for the same layout; the differential tests hold
// the two together.

// lineWeight is one pooled per-line weight of a region's contribution.
type lineWeight struct {
	l uint32
	w uint64
}

// poolWeight is one pooled per-(scope,line) weight (key scope<<32|line).
type poolWeight struct {
	k uint64
	w uint64
}

// poolCnt is one pooled (scope,line) aggregate: the weight sum and the
// count of contributing references. The count keys existence: the
// classifier creates a pool entry even for weight-0 references (and
// ScopePools counts it), so a key lives while any reference touches
// it, not while its weight is nonzero.
type poolCnt struct {
	n int32
	w uint64
}

// regionContrib is one region's complete contribution to the bounds.
// Treated as immutable once built.
type regionContrib struct {
	// refs / refW count the region's line references and their weights
	// per class; the reference totals, the lower bound (the always-miss
	// weight), and the per-function upper bound (nonHit) derive from
	// them.
	refs [NumClasses]uint64
	refW [NumClasses]uint64
	// upper is the directly-counted (unpooled) upper-bound weight.
	upper uint64
	// nonAH holds the non-AH weights pooled per persistent line;
	// pool the ones pooled per persistence scope. At most one entry
	// per line each (the walk visits each span line once).
	nonAH []lineWeight
	pool  []poolWeight
}

// nonHit is the weight of the references that can miss: the region's
// share of its function's upper bound, which skips persistence pooling.
func (c *regionContrib) nonHit() uint64 {
	return c.refW[ClassFirstMiss] + c.refW[ClassAlwaysMiss] + c.refW[ClassUnclassified]
}

// linearState caches the linear passes' per-unit contributions and
// their folded aggregates for the engine's current layout.
type linearState struct {
	// Classification: per-region contributions and their commutative folds.
	accesses  uint64 // layout-independent: sum of weight*words
	fAccesses []uint64
	contrib   []regionContrib
	refs      [NumClasses]uint64
	refW      [NumClasses]uint64
	upper     uint64
	fLower    []uint64
	fUpper    []uint64
	nonAH     []uint64           // per line: pooled non-AH weight
	pool      map[uint64]poolCnt // scope<<32|line -> pooled weight
	// cnt counts the weighted regions covering each line; setLines the
	// lines per set with cnt > 0 — the persistence footprint.
	cnt      []int32
	setLines []uint32
	// Per-scope persistence fits, maintained as deltas: foot
	// refcounts each scope's distinct executed lines, footSet folds
	// them per cache set, and fits[s][set] = footSet <= ways.
	foot    []int32 // len(scopes) * numLines
	footSet []int32 // len(scopes) * numSets
	fits    [][]bool

	// conflict: per-set summaries.
	confSets []confSet

	// score: static edges and their cached per-edge terms.
	edges   []scoreEdge
	edgeFT  []bool
	edgeAcc []float64
	byFunc  [][]int32 // edges touching each function (src or target)
	emark   []uint32  // per-edge epoch stamp (dedup within one update)
	epoch   uint32

	cs confScratch
}

// undo record types for the linear caches.
type movedSpan struct {
	ri         int32
	prev, next lineSpan
}

type contribUndo struct {
	ri  int32
	old regionContrib
}

type confUndo struct {
	s   uint32
	old confSet
}

type scoreUndo struct {
	idx int32
	ft  bool
	acc float64
}

// buildLinear computes the full linear state for the current region
// addresses, spans, fixpoint, and fits under lay.
func (inc *Incremental) buildLinear(lay *layout.Layout) *linearState {
	sg, g := inc.sg, inc.g
	p := lay.Program()
	n := len(sg.regions)
	nFuncs := len(p.Funcs)

	lin := &linearState{
		fAccesses: make([]uint64, nFuncs),
		contrib:   make([]regionContrib, n),
		fLower:    make([]uint64, nFuncs),
		fUpper:    make([]uint64, nFuncs),
		nonAH:     make([]uint64, g.numLines),
		pool:      map[uint64]poolCnt{},
		cnt:       make([]int32, g.numLines),
		setLines:  make([]uint32, g.numSets),
	}

	for ri := range sg.regions {
		r := &sg.regions[ri]
		fetches := r.weight * uint64(r.words)
		lin.accesses += fetches
		lin.fAccesses[r.f] += fetches
		if r.weight == 0 {
			continue
		}
		if sp := inc.ranges[ri]; sp.ok {
			for l := sp.l0; l <= sp.l1; l++ {
				lin.cnt[l]++
			}
		}
	}
	for l := uint32(0); l < g.numLines; l++ {
		if lin.cnt[l] > 0 {
			lin.setLines[g.set(l)]++
		}
	}

	nScopes := len(inc.sc.members)
	lin.foot = make([]int32, nScopes*int(g.numLines))
	lin.footSet = make([]int32, nScopes*int(g.numSets))
	lin.fits = make([][]bool, nScopes)
	for s := range inc.sc.members {
		lin.fits[s] = make([]bool, g.numSets)
		for set := range lin.fits[s] {
			lin.fits[s][set] = true // empty footprint fits
		}
		for _, ri := range inc.sc.members[s] {
			if sg.regions[ri].weight == 0 {
				continue
			}
			lin.adjustFoot(g, int32(s), inc.ranges[ri], +1)
		}
	}

	for ri := range sg.regions {
		inc.classifyRegion(lin, ri, &lin.contrib[ri])
		inc.applyContrib(lin, ri, &lin.contrib[ri], true)
	}

	if inc.boundsOnly {
		return lin
	}

	lin.confSets = make([]confSet, g.numSets)
	inc.confDirtySets = inc.confDirtySets[:0]
	for s := uint32(0); s < g.numSets; s++ {
		inc.confDirtySets = append(inc.confDirtySets, s)
	}
	inc.refreshConflicts(lin, lay, nil)

	lin.edges = scoreEdges(p, inc.w)
	lin.byFunc = make([][]int32, nFuncs)
	for i, e := range lin.edges {
		lin.byFunc[e.f] = append(lin.byFunc[e.f], int32(i))
		if e.tf != e.f {
			lin.byFunc[e.tf] = append(lin.byFunc[e.tf], int32(i))
		}
	}
	lin.edgeFT = make([]bool, len(lin.edges))
	lin.edgeAcc = make([]float64, len(lin.edges))
	lin.emark = make([]uint32, len(lin.edges))
	for i := range lin.edges {
		lin.edgeFT[i], lin.edgeAcc[i] = lin.edges[i].term(lay)
	}
	return lin
}

// classifyRegion classifies every line reference of one region against
// the fixpoint in-state and stores the region's contribution to the
// bounds in the zero-valued *c.
//
// Lower: every always-miss reference misses on each of its weighted
// executions. Upper: every non-always-hit reference may miss each
// time, except references to persistent lines, whose misses are
// bounded by how often their persistence scope is entered rather than
// by the reference weights. Globally persistent lines (their set's
// accessed footprint fits its ways) pool all their non-always-hit
// weight, capped at the run count in assemble; lines persistent only
// within their reference's loop scope (persist.go) pool per (line,
// scope), capped at the scope's entry bound. Both caps only ever
// replace a weight sum with a min against it, so scope persistence
// tightens the upper bound monotonically.
func (inc *Incremental) classifyRegion(lin *linearState, ri int, c *regionContrib) {
	sg, g := inc.sg, inc.g
	r := &sg.regions[ri]
	scope := inc.sc.scope[ri]
	var scopeFits []bool
	if scope >= 0 {
		scopeFits = lin.fits[scope]
	}
	ref := func(l uint32, mustHit, mayMiss bool) {
		inScope := scopeFits != nil && scopeFits[g.set(l)]
		persistent := lin.setLines[g.set(l)] <= g.assoc
		var cl Class
		switch {
		case mustHit:
			cl = ClassAlwaysHit
		case mayMiss:
			cl = ClassAlwaysMiss
		case persistent || inScope:
			cl = ClassFirstMiss
		default:
			cl = ClassUnclassified
		}
		c.refs[cl]++
		c.refW[cl] += r.weight
		if cl != ClassAlwaysHit {
			switch {
			case persistent:
				c.nonAH = append(c.nonAH, lineWeight{l: l, w: r.weight})
			case inScope:
				c.pool = append(c.pool, poolWeight{k: uint64(scope)<<32 | uint64(l), w: r.weight})
			default:
				c.upper += r.weight
			}
		}
	}
	sp := inc.ranges[ri]
	if !sp.ok {
		return
	}
	in, inY := inc.state(int32(ri))
	if len(in) == 0 {
		// Every reachable region that fetches owns a state, so this one
		// is unreachable in the supergraph (weight 0 when the weights
		// are exact): count the static refs as unclassified.
		for l := sp.l0; l <= sp.l1; l++ {
			ref(l, false, false)
		}
		return
	}
	S := g.numSets
	if sp.l1-sp.l0 < S {
		// Every span line lies in a set of its own, so each access sees
		// the region's in-state: no transfer needs replaying.
		for l := sp.l0; l <= sp.l1; l++ {
			ref(l, in[l-sp.l0] != absentAge, inY[l-sp.l0] == absentAge)
		}
		return
	}
	// The span wraps around the sets: replay each set's accesses, in
	// ascending line order, on a copy of the span's lines in that set.
	// An access re-ages each line from its own age and the accessed
	// line's alone, so the rest of the set's column cannot change what
	// the replay sees. Sets are visited one after another rather than
	// interleaved, which only reorders the commutative folds of the
	// contribution.
	for s := uint32(0); s < S; s++ {
		u0, u1 := g.colRange(sp, s)
		colM, colY := inc.outM[:u1-u0], inc.outY[:u1-u0]
		k := s + uint32(u0)*S - sp.l0
		for j := range colM {
			colM[j], colY[j] = in[k], inY[k]
			k += S
		}
		for j := range colM {
			ref(s+uint32(u0+j)*S, colM[j] != absentAge, colY[j] == absentAge)
			g.mustAccess(colM, j)
			g.mayAccess(colY, j)
		}
	}
}

// applyContrib folds one region's contribution into (or out of) the
// aggregates. All folds are exact uint64 group operations, so
// subtract-then-add-new replays build-from-scratch bit for bit; pool
// keys are deleted at zero to keep the map equal to a fresh build.
func (inc *Incremental) applyContrib(lin *linearState, ri int, c *regionContrib, add bool) {
	f := inc.sg.regions[ri].f
	if add {
		for i := range c.refs {
			lin.refs[i] += c.refs[i]
			lin.refW[i] += c.refW[i]
		}
		lin.upper += c.upper
		lin.fLower[f] += c.refW[ClassAlwaysMiss]
		lin.fUpper[f] += c.nonHit()
		for _, e := range c.nonAH {
			lin.nonAH[e.l] += e.w
		}
		for _, e := range c.pool {
			pc := lin.pool[e.k]
			pc.n++
			pc.w += e.w
			lin.pool[e.k] = pc
		}
		return
	}
	for i := range c.refs {
		lin.refs[i] -= c.refs[i]
		lin.refW[i] -= c.refW[i]
	}
	lin.upper -= c.upper
	lin.fLower[f] -= c.refW[ClassAlwaysMiss]
	lin.fUpper[f] -= c.nonHit()
	for _, e := range c.nonAH {
		lin.nonAH[e.l] -= e.w
	}
	for _, e := range c.pool {
		pc := lin.pool[e.k]
		pc.n--
		pc.w -= e.w
		if pc.n == 0 {
			delete(lin.pool, e.k)
		} else {
			lin.pool[e.k] = pc
		}
	}
}

// adjustSpan updates the persistence footprint (cnt/setLines) for one
// weighted region's span entering (+1) or leaving (-1) the layout.
func (lin *linearState) adjustSpan(g geom, sp lineSpan, delta int32) {
	if !sp.ok {
		return
	}
	for l := sp.l0; l <= sp.l1; l++ {
		lin.cnt[l] += delta
		if delta > 0 && lin.cnt[l] == 1 {
			lin.setLines[g.set(l)]++
		} else if delta < 0 && lin.cnt[l] == 0 {
			lin.setLines[g.set(l)]--
		}
	}
}

// adjustFoot updates one scope's in-scope footprint (foot/footSet) for
// a weighted member region's span entering (+1) or leaving (-1) the
// layout, re-deriving fits[scope][set] at every covered<->uncovered
// transition. The bools are a pure function of footSet, so replaying
// the inverse deltas restores them exactly.
func (lin *linearState) adjustFoot(g geom, scope int32, sp lineSpan, delta int32) {
	if !sp.ok {
		return
	}
	fo := lin.foot[int(scope)*int(g.numLines):]
	fs := lin.footSet[int(scope)*int(g.numSets):]
	fit := lin.fits[scope]
	for l := sp.l0; l <= sp.l1; l++ {
		fo[l] += delta
		if (delta > 0 && fo[l] == 1) || (delta < 0 && fo[l] == 0) {
			set := g.set(l)
			fs[set] += delta
			fit[set] = uint32(fs[set]) <= g.assoc
		}
	}
}

// applyLinearDeltas re-derives the invalidated cache entries for one
// update: the persistence footprint and region contributions on the
// dirty cache sets, the conflict summaries of the sets where bytes
// moved, and the score edges of the functions whose addresses changed.
// Mutations are recorded in undo. Requires the fixpoint and fits to be
// current.
func (inc *Incremental) applyLinearDeltas(lay *layout.Layout, undo *undoState) {
	lin := inc.lin
	sg, g := inc.sg, inc.g

	for _, mv := range undo.moved {
		lin.adjustSpan(g, mv.prev, -1)
		lin.adjustSpan(g, mv.next, +1)
		if sc := inc.sc.scope[mv.ri]; sc >= 0 {
			lin.adjustFoot(g, sc, mv.prev, -1)
			lin.adjustFoot(g, sc, mv.next, +1)
		}
	}

	if len(inc.dirtySets) > 0 {
		for ri := range sg.regions {
			if !inc.spanTouchesDirty(inc.ranges[ri]) {
				continue
			}
			old := lin.contrib[ri]
			inc.applyContrib(lin, ri, &old, false)
			lin.contrib[ri] = regionContrib{}
			inc.classifyRegion(lin, ri, &lin.contrib[ri])
			inc.applyContrib(lin, ri, &lin.contrib[ri], true)
			undo.contribs = append(undo.contribs, contribUndo{ri: int32(ri), old: old})
		}
	}

	if inc.boundsOnly {
		return
	}

	inc.refreshConflicts(lin, lay, undo)

	if inc.anyAddr {
		lin.epoch++
		for fi := range inc.funcChanged {
			if !inc.funcChanged[fi] {
				continue
			}
			for _, idx := range lin.byFunc[fi] {
				if lin.emark[idx] == lin.epoch {
					continue
				}
				lin.emark[idx] = lin.epoch
				undo.scores = append(undo.scores, scoreUndo{idx: idx, ft: lin.edgeFT[idx], acc: lin.edgeAcc[idx]})
				lin.edgeFT[idx], lin.edgeAcc[idx] = lin.edges[idx].term(lay)
			}
		}
	}
}

// refreshConflicts recomputes the conflict summaries of the sets in
// inc.confDirtySets from the weighted regions touching them; with a
// non-nil undo it records the summaries it replaces.
func (inc *Incremental) refreshConflicts(lin *linearState, lay *layout.Layout, undo *undoState) {
	sg := inc.sg
	sets := inc.confDirtySets
	off, buf := inc.bucketBySet(len(sg.regions), func(ri int) lineSpan {
		if sg.regions[ri].weight == 0 {
			return lineSpan{}
		}
		return inc.ranges[ri]
	}, inc.numberSets(sets), len(sets))
	for k, s := range sets {
		old := lin.confSets[s]
		lin.confSets[s] = conflictSet(sg, inc.g, lay.Program(), s, buf[off[k]:off[k+1]], &lin.cs)
		if undo != nil {
			undo.confs = append(undo.confs, confUndo{s: s, old: old})
		}
	}
}

// revertLinear undoes one update's cache mutations in reverse order.
func (inc *Incremental) revertLinear(undo *undoState) {
	lin := inc.lin
	for _, su := range undo.scores {
		lin.edgeFT[su.idx] = su.ft
		lin.edgeAcc[su.idx] = su.acc
	}
	for i := range undo.confs {
		cu := &undo.confs[i]
		lin.confSets[cu.s] = cu.old
	}
	for i := range undo.contribs {
		tu := &undo.contribs[i]
		cur := lin.contrib[tu.ri]
		inc.applyContrib(lin, int(tu.ri), &cur, false)
		inc.applyContrib(lin, int(tu.ri), &tu.old, true)
		lin.contrib[tu.ri] = tu.old
	}
	for _, mv := range undo.moved {
		lin.adjustSpan(inc.g, mv.next, -1)
		lin.adjustSpan(inc.g, mv.prev, +1)
		if sc := inc.sc.scope[mv.ri]; sc >= 0 {
			lin.adjustFoot(inc.g, sc, mv.next, -1)
			lin.adjustFoot(inc.g, sc, mv.prev, +1)
		}
	}
}

// assemble builds the Result from the linear caches and reports it to
// the engine's registry. A bounds-only engine's Result carries the
// bounds, the per-function rows, and the solver counts only.
func (inc *Incremental) assemble(lay *layout.Layout, root *obs.Span) *Result {
	lin := inc.lin
	g, w, cfg := inc.g, inc.w, inc.cfg
	p := lay.Program()
	reg := cfg.Obs

	var b Bounds
	b.Runs = w.Runs
	b.Exact = w.Capped == 0 && w.Runs == 1
	b.Scopes = len(inc.sc.members)
	runs := effectiveRuns(w)
	b.Accesses = lin.accesses
	b.Refs = lin.refs
	b.RefWeight = lin.refW
	for cl := range lin.refs {
		b.LineRefs += int(lin.refs[cl])
		b.WeightedLineRefs += lin.refW[cl]
	}
	b.Lower = lin.refW[ClassAlwaysMiss]
	for l := uint32(0); l < g.numLines; l++ {
		if lin.cnt[l] > 0 && lin.setLines[g.set(l)] <= g.assoc {
			b.PersistentLines++
		}
	}
	b.Upper = lin.upper
	for l := uint32(0); l < g.numLines; l++ {
		if lin.nonAH[l] == 0 {
			continue
		}
		if lin.nonAH[l] < runs {
			b.Upper += lin.nonAH[l]
		} else {
			b.Upper += runs
		}
	}
	b.ScopePools = len(lin.pool)
	//lint:maprange uint64 additions commute; the sum is order-independent
	for k, pc := range lin.pool {
		wgt := pc.w
		if e := inc.sc.entries[k>>32]; wgt > e {
			wgt = e
		}
		b.Upper += wgt
	}

	var perFunc []FuncBounds
	for fi := 0; fi < len(p.Funcs); fi++ {
		if lin.fAccesses[fi] == 0 && lin.fUpper[fi] == 0 {
			continue
		}
		perFunc = append(perFunc, FuncBounds{
			Func: ir.FuncID(fi), Name: p.Funcs[fi].Name,
			Lower: lin.fLower[fi], Upper: lin.fUpper[fi], Accesses: lin.fAccesses[fi],
		})
	}

	res := &Result{
		Bounds:     b,
		PerFunc:    perFunc,
		Regions:    len(inc.sg.regions),
		Iterations: inc.iterations,
	}
	if inc.boundsOnly {
		return res
	}
	res.Cache = cfg.Cache
	res.Score = sumScore(lin.edges, lin.edgeFT, lin.edgeAcc)
	res.Conflicts = assembleConflict(lin.confSets, p, cfg.TopSets, cfg.TopLines, cfg.TopPairs)

	root.SetAttr("cache", cfg.Cache.String())
	root.SetAttrInt("regions", int64(res.Regions))
	root.SetAttrInt("iterations", int64(res.Iterations))
	reg.Counter("analysis.runs").Inc()
	reg.Counter("analysis.regions").Add(uint64(res.Regions))
	reg.Counter("analysis.iterations").Add(uint64(res.Iterations))
	reg.Counter("analysis.refs").Add(uint64(res.Bounds.LineRefs))
	reg.Counter("analysis.always_hit").Add(res.Bounds.Refs[ClassAlwaysHit])
	reg.Counter("analysis.first_miss").Add(res.Bounds.Refs[ClassFirstMiss])
	reg.Counter("analysis.always_miss").Add(res.Bounds.Refs[ClassAlwaysMiss])
	reg.Counter("analysis.unclassified").Add(res.Bounds.Refs[ClassUnclassified])
	reg.Counter("analysis.scopes").Add(uint64(res.Bounds.Scopes))
	reg.Counter("analysis.scope_pools").Add(uint64(res.Bounds.ScopePools))
	return res
}
