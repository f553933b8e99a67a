package analysis

import (
	"fmt"
	"math/bits"

	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/obs"
	"impact/internal/profile"
)

// The analysis engine.
//
// One engine computes every static result in this package: Analyze is
// a fresh engine's first result, the page-level analysis (pages.go) is
// the same engine over a page-frame geometry, and the layout search
// re-scores candidate layouts through Update/Revert.
//
// The region supergraph's structure — regions, successor edges, RPO,
// persistence scopes, entry bounds — depends only on the program and
// its profile, never on block addresses: a candidate layout changes
// which cache lines each region fetches, not which regions exist or
// how control flows between them. An Incremental reuses all of that
// across candidate layouts and re-solves only the part of the
// fixpoint a move can actually perturb.
//
// That part is small because the abstract transfers are set-local: an
// access to line x ages only the lines of x's cache set (see
// mustAccess/mayAccess), so the must/may fixpoint decomposes into one
// independent subsystem per cache set. A layout move changes the
// access sequences only on the lines its moved regions used to fetch
// and fetch now; call the cache sets of those lines *dirty*. Every
// equation over a clean set's lines is identical under the old and
// new layout — same accesses, same joins — so those values are
// already final, and only the dirty sets' lines need re-solving. A
// fresh engine simply marks every set dirty: the per-set solve is the
// only fixpoint solver.
//
// Each dirty set re-solves as a *condensed* system (solveSets).
// Within one set's subsystem, only the regions whose span contains
// one of the set's lines actually transform the state; every other
// region is an identity conduit, forwarding its in-state to its
// successors unchanged. Collapsing the conduits leaves a tiny system
// over the set's writers plus the entry, whose edges are the
// conduit-closed paths of the supergraph, and whose states are short
// packed columns — one age per line of the set, held as bit planes of
// 64 lines per word (planes.go). Eliminating an
// identity equation from a monotone join system preserves its least
// solution (the conduit's in-state is exactly the join of its
// predecessors' out-states, and joins are idempotent over path
// unions), so the condensed solution is the full subsystem's solution
// restricted to the writers.
//
// The collapse happens in two stages so the expensive graph walk runs
// once per update, not once per dirty set: first a closure over the
// whole supergraph condenses pure conduits — regions writing no dirty
// set — onto the union nodes (writers of any dirty set, plus the
// entry); then, per dirty set, a closure over the much smaller union
// graph further condenses the union nodes that do not write that set.
// Composing the two collapses is exact: a path between two of a set's
// nodes that avoids the set's nodes internally decomposes uniquely
// into pure-conduit hops between union nodes, all of them non-writers
// of the set.
//
// The condensed solve restarts every node column at the domain's
// neutral element — must-age 0 (the elementwise minimum; joins are
// max) and may-age absent (the maximum; joins are min) — with the
// program entry's column seeded from the cold cache, and iterates to
// a fixpoint. These fake seeds cannot survive: every node receives a
// full column from a predecessor node (or keeps the cold seed), each
// contribution washes the neutral element out of the join, and by
// monotonicity the iteration converges to exactly the least (must) /
// greatest (may) solution of the set's subsystem, whatever the
// columns held before. The solve therefore never reads a stored
// state, and a region stores its in-state only on the lines its own
// span fetches: that is all the classifier (inclinear.go) reads, and a
// region whose span touches a dirty set is by definition one of that
// set's nodes, hence re-solved and re-stored there. An update's
// result is therefore bit-identical to a fresh engine on the
// candidate layout — held by the differential tests in
// incremental_test.go and the suite-wide golden test in
// internal/experiments — modulo the Iterations counter, which reports
// only the node evaluations this update performed.
//
// The linear passes (classification, score, conflict) are cached the
// same way: per-region, per-set, and per-edge contributions folded by
// commutative operators, re-derived only where the move invalidated
// them (see inclinear.go). Together — no supergraph rebuild, a few
// condensed per-set fixpoints, and delta-maintained linear passes —
// an update costs O(dirty footprint), which is what makes the
// analyzer cheap enough to score thousands of candidate moves in
// internal/search.

// Incremental analyses a sequence of candidate layouts of one program
// against one profile and cache geometry, reusing converged abstract
// states between layouts. Not safe for concurrent use.
type Incremental struct {
	cfg Config
	// boundsOnly drops the conflict report, the layout score, and the
	// analysis.* counters — what a page-frame engine (pages.go) has no
	// use for.
	boundsOnly bool
	w          *profile.Weights
	lay        *layout.Layout
	g          geom
	sg         *supergraph
	sc         *sccInfo
	res        *Result
	// lin caches the linear passes' contributions (inclinear.go).
	lin *linearState

	ranges []lineSpan // cached line range per region under lay

	// must/may hold the fixpoint in-states, one age byte per line but
	// only on the lines of the region's own span: byte k of a region's
	// slice (see state) is line ranges[ri].l0+k. Each slice has room for
	// the most lines the region's bytes can span, so moves never
	// reallocate; regions that fetch nothing or are unreachable from the
	// entry own none.
	must, may []uint8
	stOff     []int32 // region ri owns must/may[stOff[ri]:stOff[ri+1]]
	// iterations is the solver work behind the current Result.
	iterations int

	dirtySet []bool // scratch: cache sets touched by moved code
	// outM/outY are one set column long: the classifier's replay
	// columns.
	outM []uint8
	outY []uint8

	// Linear-pass invalidation scratch: sets where a weighted region's
	// bytes moved (a superset of dirtySet's cause — sub-line moves
	// change byte ownership without moving lines) and the functions
	// whose addresses changed.
	confDirty     []bool
	confDirtySets []uint32
	funcChanged   []bool
	anyAddr       bool

	// Condensed system scratch (solveSets).
	dirtySets []uint32 // the dirty sets, ascending
	uOf       []int32  // region -> union-node index, -1 outside
	cOf       []int32  // region -> pure-conduit row (valid for conduits only)
	uNodes    []int32  // union nodes (dirty-set writers + entry), RPO order
	conduits  []int32  // pure conduits (reachable non-union regions), RPO order
	sOf       []int32  // union node -> per-set node index, -1 outside
	nodes     []int32  // per-set nodes as union-node indices, RPO order
	slots     []int32  // per-set: each node's column slots, [u0, u1) pairs
	wbuf      []uint64 // pure-conduit reachability, one row per conduit
	uMark     []int32  // dedup stamps while listing successors
	uSuccOff  []int32  // union-graph successor lists
	uSuccBuf  []int32
	uPredOff  []int32 // union-graph predecessor lists
	uPredBuf  []int32
	uBack     []int32  // union-graph back edges, (from, to) pairs
	rbuf      []uint64 // per-set: union-conduit reachability
	rRow      []int32  // per-set: union conduit -> rbuf row
	queue     []int32  // per-set: closure worklist
	inQ       []bool
	acc       []uint64
	nSuccOff  []int32 // per-set: node successor lists
	nSuccBuf  []int32
	cols      []uint64 // per-set: node in-columns, bit-sliced (planes.go)
	out       []uint64 // per-set: the transfer's out-column
	nodeDirty []bool
	setOrd    []int32 // set -> bucket index, -1 outside (numberSets)
	bOff      []int32 // items bucketed by set (bucketBySet)
	bBuf      []int32
	bCur      []int32

	undo *undoState
	// spare is the last retired undoState; Update recycles its record
	// slices (their contents are dead once a new update begins).
	spare *undoState
}

// lineSpan is a region's cached cache-line range.
type lineSpan struct {
	l0, l1 uint32
	ok     bool
}

// undoState lets Revert restore the previous layout's converged state
// in O(dirty lines) instead of re-running the fixpoint.
type undoState struct {
	lay   *layout.Layout
	res   *Result
	addrs []uint32
	// states lists the regions whose state slices the solve rewrote;
	// must/may hold their previous contents back to back, in that order.
	states    []int32
	must, may []uint8
	// Linear-cache undo: the delta records revertLinear replays in
	// reverse.
	moved    []movedSpan
	contribs []contribUndo
	confs    []confUndo
	scores   []scoreUndo
}

// NewIncremental runs a full analysis of lay and returns an engine
// whose Update re-analyses candidate layouts of the same program
// incrementally. cfg is validated exactly like Analyze.
func NewIncremental(lay *layout.Layout, w *profile.Weights, cfg Config) (*Incremental, error) {
	if err := validate(lay, w, &cfg); err != nil {
		return nil, err
	}
	root := cfg.Obs.SpanOn(cfg.Lane, "analysis")
	defer root.End()
	return newEngine(lay, w, cfg, newGeom(cfg.Cache, lay.Total), false, root), nil
}

// newEngine builds the supergraph and persistence scopes of lay's
// program, solves every set of geometry g from scratch, and builds the
// linear caches — the one construction path behind Analyze,
// NewIncremental, AnalyzePages, and NewPageEngine. Its spans nest
// under root.
func newEngine(lay *layout.Layout, w *profile.Weights, cfg Config, g geom, boundsOnly bool, root *obs.Span) *Incremental {
	sp := root.Span("supergraph")
	sg := buildSupergraph(lay, w)
	sp.End()
	sp = root.Span("persist")
	sc := buildScopes(sg, effectiveRuns(w))
	sp.End()

	n := len(sg.regions)
	inc := &Incremental{
		cfg: cfg, boundsOnly: boundsOnly,
		w: w, lay: lay, g: g, sg: sg, sc: sc,
		stOff:       stateOffsets(sg, g),
		ranges:      make([]lineSpan, n),
		uOf:         make([]int32, n),
		cOf:         make([]int32, n),
		dirtySet:    make([]bool, g.numSets), // numSets is layout-independent
		confDirty:   make([]bool, g.numSets),
		funcChanged: make([]bool, len(lay.Program().Funcs)),
	}
	for i := range inc.uOf {
		inc.uOf[i] = -1
	}
	inc.must = make([]uint8, inc.stOff[n])
	inc.may = make([]uint8, inc.stOff[n])
	inc.outM = make([]uint8, g.colLen(0))
	inc.outY = make([]uint8, g.colLen(0))
	inc.cacheRanges()

	// Solving every set from scratch writes every region's whole state.
	sp = root.Span("fixpoint")
	for s := range inc.dirtySet {
		inc.dirtySet[s] = true
		inc.dirtySets = append(inc.dirtySets, uint32(s))
	}
	inc.iterations, _, _ = inc.solveSets(nil)
	sp.End()
	sp = root.Span("linear")
	inc.lin = inc.buildLinear(lay)
	inc.res = inc.assemble(lay, root)
	sp.End()
	return inc
}

// stateOffsets lays out the regions' state slices back to back: each
// region reachable from the entry gets room for the most lines its
// bytes can span under g — one more than its size in whole lines, and
// never more than the program has. The capacities depend on region
// sizes only, so one layout serves every candidate layout.
func stateOffsets(sg *supergraph, g geom) []int32 {
	off := make([]int32, len(sg.regions)+1)
	for _, ri := range sg.rpo {
		if bytes := uint32(sg.regions[ri].words) * ir.InstrBytes; bytes > 0 {
			off[ri+1] = int32(min((bytes+g.blockBytes-1)/g.blockBytes+1, g.numLines))
		}
	}
	for ri := range sg.regions {
		off[ri+1] += off[ri]
	}
	return off
}

// state returns region ri's must and may in-state slices; both are
// empty for a region that fetches nothing or is unreachable.
func (inc *Incremental) state(ri int32) (must, may []uint8) {
	lo, hi := inc.stOff[ri], inc.stOff[ri+1]
	return inc.must[lo:hi], inc.may[lo:hi]
}

// Result returns the analysis of the engine's current layout (the
// last successful Update, or the base layout).
func (inc *Incremental) Result() *Result { return inc.res }

// Layout returns the engine's current layout.
func (inc *Incremental) Layout() *layout.Layout { return inc.lay }

func (inc *Incremental) cacheRanges() {
	for ri := range inc.sg.regions {
		l0, l1, ok := inc.sg.regions[ri].lineRange(inc.g.blockBytes)
		inc.ranges[ri] = lineSpan{l0: l0, l1: l1, ok: ok}
	}
}

// markSets flags in sets (one flag per cache set) the sets a line span
// maps to.
func (g geom) markSets(sets []bool, sp lineSpan) {
	if !sp.ok {
		return
	}
	if sp.l1-sp.l0+1 >= g.numSets {
		for s := range sets {
			sets[s] = true
		}
		return
	}
	for l := sp.l0; l <= sp.l1; l++ {
		sets[g.set(l)] = true
	}
}

// spanTouchesDirty reports whether a span contains a dirty set's line.
func (inc *Incremental) spanTouchesDirty(sp lineSpan) bool {
	if !sp.ok {
		return false
	}
	if sp.l1-sp.l0+1 >= inc.g.numSets {
		return len(inc.dirtySets) > 0
	}
	for l := sp.l0; l <= sp.l1; l++ {
		if inc.dirtySet[inc.g.set(l)] {
			return true
		}
	}
	return false
}

// Update re-analyses the program under lay, re-running the fixpoint
// only on the cache sets where lay moved code across cache-line
// boundaries. The result (also retained for Result) is bit-identical
// to Analyze(lay, w, cfg) except for the Iterations counter, which
// reports only the node evaluations this update performed. The
// previous layout's state is kept until the next Update or Revert, so
// a rejected candidate can be undone in O(dirty lines).
func (inc *Incremental) Update(lay *layout.Layout) (*Result, error) {
	if lay.Program() != inc.lay.Program() {
		return nil, fmt.Errorf("analysis: incremental update with a different program")
	}
	if lay.Total != inc.lay.Total {
		// Every layout of one program places the same bytes.
		return nil, fmt.Errorf("analysis: incremental update with a layout of %d bytes, engine holds %d", lay.Total, inc.lay.Total)
	}
	reg := inc.cfg.Obs
	root := reg.SpanOn(inc.cfg.Lane, "analysis")
	defer root.End()
	sp := root.Span("incremental")

	sg := inc.sg
	undo := &undoState{lay: inc.lay, res: inc.res}
	// Recycle the previous undo's record storage: its contents are dead
	// the moment a new update begins (Revert only undoes the last one).
	if prev := inc.undo; prev != nil {
		inc.spare, inc.undo = prev, nil
	}
	if prev := inc.spare; prev != nil {
		inc.spare = nil
		undo.addrs = prev.addrs
		undo.states = prev.states[:0]
		undo.must, undo.may = prev.must[:0], prev.may[:0]
		undo.moved = prev.moved[:0]
		undo.contribs = prev.contribs[:0]
		undo.confs = prev.confs[:0]
		undo.scores = prev.scores[:0]
	}
	if cap(undo.addrs) < len(sg.regions) {
		undo.addrs = make([]uint32, len(sg.regions))
	}
	undo.addrs = undo.addrs[:len(sg.regions)]

	g := inc.g

	// Refresh addresses; find the regions whose fetched lines moved and
	// mark the cache sets of their old and new spans dirty. Separately
	// track, for the linear caches, the sets where a weighted region's
	// bytes moved at all (conflict ownership is byte-granular) and the
	// functions whose addresses changed (the score is address-exact).
	for s := range inc.dirtySet {
		inc.dirtySet[s] = false
		inc.confDirty[s] = false
	}
	for fi := range inc.funcChanged {
		inc.funcChanged[fi] = false
	}
	inc.anyAddr = false
	anyChanged := false
	for ri := range sg.regions {
		r := &sg.regions[ri]
		undo.addrs[ri] = r.addr
		r.addr = lay.InstrAddr(r.f, r.b, r.start)
		addrChanged := r.addr != undo.addrs[ri]
		if addrChanged {
			inc.funcChanged[r.f] = true
			inc.anyAddr = true
		}
		l0, l1, ok := r.lineRange(g.blockBytes)
		ns := lineSpan{l0: l0, l1: l1, ok: ok}
		old := inc.ranges[ri]
		if ns != old {
			g.markSets(inc.dirtySet, old)
			g.markSets(inc.dirtySet, ns)
			if r.weight > 0 {
				undo.moved = append(undo.moved, movedSpan{ri: int32(ri), prev: old, next: ns})
			}
			inc.ranges[ri] = ns
			anyChanged = true
		}
		if addrChanged && r.weight > 0 {
			// Byte-level conflict ownership may have changed.
			g.markSets(inc.confDirty, old)
			g.markSets(inc.confDirty, ns)
		}
	}
	inc.dirtySets = inc.dirtySets[:0]
	inc.confDirtySets = inc.confDirtySets[:0]
	for s, d := range inc.dirtySet {
		if d {
			inc.dirtySets = append(inc.dirtySets, uint32(s))
		}
	}
	for s, d := range inc.confDirty {
		if d {
			inc.confDirtySets = append(inc.confDirtySets, uint32(s))
		}
	}

	// Moves below line granularity leave every region fetching the same
	// lines: the fixpoint and the persistence fits are untouched, and
	// only the address-dependent linear passes rerun.
	iterations, evaluated, dirtyCount := 0, 0, 0
	if anyChanged {
		iterations, evaluated, dirtyCount = inc.solveSets(undo)
	}
	inc.iterations = iterations
	sp.End()

	reg.Counter("analysis.incremental_updates").Inc()
	reg.Counter("analysis.incremental_closure").Add(uint64(evaluated))
	reg.Counter("analysis.incremental_dirty_lines").Add(uint64(dirtyCount))
	reg.Counter("analysis.incremental_total_lines").Add(uint64(g.numLines))

	sp = root.Span("linear")
	inc.applyLinearDeltas(lay, undo)
	inc.lay = lay
	inc.res = inc.assemble(lay, root)
	sp.End()
	inc.undo = undo
	return inc.res, nil
}

// solveSets re-converges every dirty cache set through the two-stage
// condensation (see the package comment): one pure-conduit closure over
// the whole supergraph onto the union nodes, then one tiny closure and
// converged column system per dirty set. With a non-nil undo it records
// the states it overwrites, for Revert.
func (inc *Incremental) solveSets(undo *undoState) (iterations, evaluated, dirtyCount int) {
	g, sg := inc.g, inc.sg
	S := g.numSets
	pk := g.planes()

	// Union nodes: reachable regions whose span touches any dirty set,
	// plus the entry. Every other reachable region is a pure conduit.
	// Both lists come out in RPO order. Only union nodes' states are
	// rewritten, so they are the whole undo footprint.
	uNodes, conduits := inc.uNodes[:0], inc.conduits[:0]
	for _, ri := range sg.rpo {
		if ri == sg.entry || inc.spanTouchesDirty(inc.ranges[ri]) {
			inc.uOf[ri] = int32(len(uNodes))
			uNodes = append(uNodes, ri)
			if undo != nil {
				m, y := inc.state(ri)
				undo.states = append(undo.states, ri)
				undo.must = append(undo.must, m...)
				undo.may = append(undo.may, y...)
			}
		} else {
			inc.cOf[ri] = int32(len(conduits))
			conduits = append(conduits, ri)
		}
	}
	inc.uNodes, inc.conduits = uNodes, conduits
	nu, nc := len(uNodes), len(conduits)
	wordsU := (nu + 63) / 64

	// Pure-conduit closure: conduit k's row holds the union nodes its
	// outgoing paths reach through conduits only. Reverse RPO
	// (successors first) makes one sweep final for the acyclic part — a
	// changed row only needs re-sweeping when it can feed a back edge,
	// i.e. when the region sits in a cyclic SCC — so only such changes
	// re-sweep. A row read over a back edge before its first visit is
	// still all-zero, which the sweep that follows corrects.
	wb := grow(&inc.wbuf, nc*wordsU)
	clear(wb)
	for changed := true; changed; {
		changed = false
		for k := nc - 1; k >= 0; k-- {
			ri := conduits[k]
			cyc := inc.sc.scope[ri] >= 0
			row := wb[k*wordsU : (k+1)*wordsU]
			for _, q := range sg.regions[ri].succs {
				if j := inc.uOf[q]; j >= 0 {
					w, bit := int(j)/64, uint64(1)<<(uint(j)%64)
					if row[w]&bit == 0 {
						row[w] |= bit
						changed = changed || cyc
					}
					continue
				}
				c := int(inc.cOf[q])
				for w, v := range wb[c*wordsU : (c+1)*wordsU] {
					if nv := row[w] | v; nv != row[w] {
						row[w] = nv
						changed = changed || cyc
					}
				}
			}
		}
	}

	// The union graph as successor lists: the union nodes each union
	// node's out-state joins into through pure conduits.
	uOff := grow(&inc.uSuccOff, nu+1)
	uSucc := inc.uSuccBuf[:0]
	mark := grow(&inc.uMark, nu)
	clear(mark)
	uOff[0] = 0
	for i, ri := range uNodes {
		stamp := int32(i + 1)
		for _, q := range sg.regions[ri].succs {
			if j := inc.uOf[q]; j >= 0 {
				if mark[j] != stamp {
					mark[j] = stamp
					uSucc = append(uSucc, j)
				}
				continue
			}
			c := int(inc.cOf[q])
			for w, bitsW := range wb[c*wordsU : (c+1)*wordsU] {
				for bitsW != 0 {
					j := int32(w*64 + bits.TrailingZeros64(bitsW))
					bitsW &= bitsW - 1
					if mark[j] != stamp {
						mark[j] = stamp
						uSucc = append(uSucc, j)
					}
				}
			}
		}
		uOff[i+1] = int32(len(uSucc))
	}
	inc.uSuccBuf = uSucc

	// Its predecessor lists and back edges (to a union node earlier in
	// RPO order), for setClosure's worklist. Counting sort by target,
	// with mark (free again) as the fill cursors.
	uPOff := grow(&inc.uPredOff, nu+1)
	clear(uPOff)
	back := inc.uBack[:0]
	for u := 0; u < nu; u++ {
		for _, t := range uSucc[uOff[u]:uOff[u+1]] {
			uPOff[t+1]++
			if int(t) < u {
				back = append(back, int32(u), t)
			}
		}
	}
	inc.uBack = back
	for u := 0; u < nu; u++ {
		uPOff[u+1] += uPOff[u]
	}
	uPred := grow(&inc.uPredBuf, int(uPOff[nu]))
	copy(mark, uPOff[:nu])
	for u := 0; u < nu; u++ {
		for _, t := range uSucc[uOff[u]:uOff[u+1]] {
			uPred[mark[t]] = int32(u)
			mark[t]++
		}
	}

	sOf := grow(&inc.sOf, nu)
	for i := range sOf {
		sOf[i] = -1
	}

	// Bucket the union nodes by the dirty sets their spans write, so
	// each set's node collection walks exactly its writers instead of
	// probing every union node. The entry (never bucketed) is merged
	// into every set's node list at its RPO position.
	setOrd := inc.numberSets(inc.dirtySets)
	e0 := inc.uOf[sg.entry]
	bOff, bBuf := inc.bucketBySet(nu, func(k int) lineSpan {
		if int32(k) == e0 {
			return lineSpan{}
		}
		return inc.ranges[uNodes[k]]
	}, setOrd, len(inc.dirtySets))

	for _, s := range inc.dirtySets {
		colLen := g.colLen(s)
		if colLen == 0 {
			continue // the set has no lines under this layout
		}
		dirtyCount += colLen

		// The set's nodes: its bucketed writers plus the entry, in RPO
		// order (buckets and uNodes are RPO-ordered; a span shorter than
		// the set count hits each set at most once, so buckets hold no
		// duplicates).
		bucket := bBuf[bOff[setOrd[s]]:bOff[setOrd[s]+1]]
		nodes := inc.nodes[:0]
		entryIn := false
		for _, ui := range bucket {
			if !entryIn && e0 < ui {
				entryIn = true
				sOf[e0] = int32(len(nodes))
				nodes = append(nodes, e0)
			}
			sOf[ui] = int32(len(nodes))
			nodes = append(nodes, ui)
		}
		if !entryIn {
			sOf[e0] = int32(len(nodes))
			nodes = append(nodes, e0)
		}
		inc.nodes = nodes
		n := len(nodes)
		evaluated += n
		// Each node's accesses to the set, as column slots [u0, u1).
		slots := grow(&inc.slots, 2*n)
		for i, ui := range nodes {
			u0, u1 := g.colRange(inc.ranges[uNodes[ui]], s)
			slots[2*i], slots[2*i+1] = int32(u0), int32(u1)
		}

		nOff, nSucc := inc.setClosure(nodes)

		// Columns start at the neutral element (planes.fill), copied
		// from one template column, and the entry at the cold cache.
		cw := pk.stride(colLen)
		cols := grow(&inc.cols, n*cw)
		pk.fill(cols[:cw], colLen)
		for f := cw; f < len(cols); f *= 2 {
			copy(cols[f:], cols[:f])
		}
		e := int(sOf[e0])
		pk.fill(cols[e*cw:(e+1)*cw], 0)

		// Converge: nodes are in RPO order, so sweeping the worklist in
		// index order lets most columns settle in one sweep.
		dirty := grow(&inc.nodeDirty, n)
		for i := range dirty {
			dirty[i] = true
		}
		out := grow(&inc.out, cw)
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				if !dirty[i] {
					continue
				}
				dirty[i] = false
				iterations++
				copy(out, cols[i*cw:(i+1)*cw])
				for u := int(slots[2*i]); u < int(slots[2*i+1]); u++ {
					pk.access(out, u)
				}
				for _, j := range nSucc[nOff[i]:nOff[i+1]] {
					if pk.join(cols[int(j)*cw:int(j+1)*cw], out) {
						dirty[j] = true
						changed = true
					}
				}
			}
		}

		// Store each node's converged in-ages, as bytes, on its own lines
		// of the set: slot u is line s+u*S, which sits S bytes after slot
		// u-1 in the region's span-relative state.
		for i, ui := range nodes {
			sOf[ui] = -1
			ri := uNodes[ui]
			u0, u1 := int(slots[2*i]), int(slots[2*i+1])
			if u0 == u1 {
				continue // the entry, when its span misses the set
			}
			m, y := inc.state(ri)
			col := cols[i*cw : (i+1)*cw]
			k := s + uint32(u0)*S - inc.ranges[ri].l0
			for u := u0; u < u1; u++ {
				m[k], y[k] = pk.lane(col, u)
				k += S
			}
		}
	}

	for _, ri := range uNodes {
		inc.uOf[ri] = -1
	}
	return iterations, evaluated, dirtyCount
}

// numberSets maps each listed set to its position in sets and every
// other set to -1.
func (inc *Incremental) numberSets(sets []uint32) []int32 {
	ord := grow(&inc.setOrd, int(inc.g.numSets))
	for i := range ord {
		ord[i] = -1
	}
	for k, s := range sets {
		ord[s] = int32(k)
	}
	return ord
}

// bucketBySet groups n items by the cache sets their line spans touch.
// ord numbers the sets of interest (the bucket of set s is ord[s], -1
// for the rest); item k, whose span is span(k), joins the bucket of
// every such set its span touches — every bucket when the span covers
// all sets. Each bucket lists its items in ascending k, as CSR offsets
// into one buffer; a span shorter than the set count touches each set
// at most once, so buckets hold no duplicates.
func (inc *Incremental) bucketBySet(n int, span func(k int) lineSpan, ord []int32, buckets int) (off, buf []int32) {
	g := inc.g
	visit := func(f func(b int32, k int)) {
		for k := 0; k < n; k++ {
			sp := span(k)
			if !sp.ok {
				continue
			}
			if sp.l1-sp.l0+1 >= g.numSets {
				for b := 0; b < buckets; b++ {
					f(int32(b), k)
				}
				continue
			}
			for l := sp.l0; l <= sp.l1; l++ {
				if b := ord[g.set(l)]; b >= 0 {
					f(b, k)
				}
			}
		}
	}
	off = grow(&inc.bOff, buckets+1)
	clear(off)
	visit(func(b int32, k int) { off[b+1]++ })
	for b := 0; b < buckets; b++ {
		off[b+1] += off[b]
	}
	buf = grow(&inc.bBuf, int(off[buckets]))
	cur := grow(&inc.bCur, buckets)
	copy(cur, off[:buckets])
	visit(func(b int32, k int) { buf[cur[b]] = int32(k); cur[b]++ })
	return off, buf
}

// setClosure is the second condensation stage for one dirty set, whose
// nodes sOf numbers: union nodes that do not write the set are conduits
// for it, and collapsing them leaves each node with the list of nodes
// its out-column joins into, returned as offsets into a flat successor
// buffer.
//
// Each of the set's conduits gets a row of node bits, the least
// solution of: a conduit's row is the union, over its successors, of a
// node's own bit and a conduit's row. One sweep in reverse RPO order
// settles every row whose successors all come later in that order. A
// conduit that read a row over a back edge, before that row's own
// evaluation, is queued if the row turned out non-empty, and a
// worklist re-derives queued rows, queueing a row's readers whenever
// it grows. Rows only ever grow, from empty, so the worklist ends at
// the least solution.
func (inc *Incremental) setClosure(nodes []int32) (nOff, nSucc []int32) {
	sOf := inc.sOf
	uOff, uSucc := inc.uSuccOff, inc.uSuccBuf
	nu, n := len(sOf), len(nodes)
	words := (n + 63) / 64

	// Only conduits get a row: in wide sets (page frames, fully
	// associative caches) nearly every union node writes the set.
	rRow := grow(&inc.rRow, nu)
	rows := 0
	for u := range rRow {
		if sOf[u] < 0 {
			rRow[u] = int32(rows)
			rows++
		}
	}
	rb := grow(&inc.rbuf, rows*words)
	clear(rb)
	row := func(u int32) []uint64 {
		r := int(rRow[u]) * words
		return rb[r : r+words]
	}
	// reach ORs into dst what union node u's successors reach and
	// reports whether dst grew.
	reach := func(dst []uint64, u int32) bool {
		grew := false
		for _, t := range uSucc[uOff[u]:uOff[u+1]] {
			if j := sOf[t]; j >= 0 {
				w, bit := j/64, uint64(1)<<(uint(j)%64)
				grew = grew || dst[w]&bit == 0
				dst[w] |= bit
				continue
			}
			for k, v := range row(t) {
				if nv := dst[k] | v; nv != dst[k] {
					dst[k] = nv
					grew = true
				}
			}
		}
		return grew
	}

	for u := int32(nu - 1); u >= 0; u-- {
		if sOf[u] < 0 {
			reach(row(u), u)
		}
	}
	queue, inQ := inc.queue[:0], grow(&inc.inQ, nu) // inQ is all false between calls
	for i := 0; i < len(inc.uBack); i += 2 {
		u, t := inc.uBack[i], inc.uBack[i+1]
		if sOf[u] >= 0 || sOf[t] >= 0 || inQ[u] {
			continue
		}
		for _, v := range row(t) {
			if v != 0 {
				inQ[u] = true
				queue = append(queue, u)
				break
			}
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQ[u] = false
		if !reach(row(u), u) {
			continue
		}
		for _, p := range inc.uPredBuf[inc.uPredOff[u]:inc.uPredOff[u+1]] {
			if sOf[p] < 0 && !inQ[p] {
				inQ[p] = true
				queue = append(queue, p)
			}
		}
	}
	inc.queue = queue

	nOff = grow(&inc.nSuccOff, n+1)
	nSucc = inc.nSuccBuf[:0]
	nOff[0] = 0
	acc := grow(&inc.acc, words)
	for i, u := range nodes {
		clear(acc)
		reach(acc, u)
		for k, w := range acc {
			for ; w != 0; w &= w - 1 {
				nSucc = append(nSucc, int32(k*64+bits.TrailingZeros64(w)))
			}
		}
		nOff[i+1] = int32(len(nSucc))
	}
	inc.nSuccBuf = nSucc
	return nOff, nSucc
}

// grow returns *buf resized to n elements, reallocating only when its
// capacity falls short; the contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Revert restores the engine to the layout preceding the last Update,
// reinstating its converged states without re-running anything. Only
// one level of undo exists: Revert directly after Revert (or before
// any Update) errors.
func (inc *Incremental) Revert() error {
	undo := inc.undo
	if undo == nil {
		return fmt.Errorf("analysis: nothing to revert")
	}
	inc.undo = nil
	sg := inc.sg
	for ri := range sg.regions {
		sg.regions[ri].addr = undo.addrs[ri]
	}
	inc.cacheRanges()
	prevM, prevY := undo.must, undo.may
	for _, ri := range undo.states {
		m, y := inc.state(ri)
		copy(m, prevM)
		copy(y, prevY)
		prevM, prevY = prevM[len(m):], prevY[len(y):]
	}
	inc.revertLinear(undo)
	inc.lay = undo.lay
	inc.res = undo.res
	// Retire the undo for record-storage recycling; drop its pointers
	// so the spare retains no layout or result.
	undo.lay, undo.res = nil, nil
	inc.spare = undo
	inc.cfg.Obs.Counter("analysis.incremental_reverts").Inc()
	return nil
}
