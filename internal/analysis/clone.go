package analysis

import "impact/internal/obs"

// Cloning an Incremental.
//
// The portfolio-parallel search (internal/search) wants one scoring
// engine per worker, all starting from the same converged state. A
// from-scratch NewIncremental per worker would pay the full analysis
// again; Clone instead snapshots the mutable state and shares
// everything layout-independent:
//
//   - Shared (immutable once built, or replaced wholesale, never
//     mutated in place): the program/weights, the current layout and
//     Result (assemble builds fresh values each update), region
//     successor lists and the RPO, the persistence scopes (sccInfo),
//     the state-slice offsets, the score edge list and its
//     per-function index, and every regionContrib/confSet payload
//     slice (both documented "treated as immutable once built" —
//     updates replace entries by value).
//   - Copied (mutated in place across updates): region addresses, the
//     per-region must/may states, the cached line spans, and
//     the linear caches' aggregate arrays, maps, persistence
//     footprints/fits, and per-edge score terms.
//   - Fresh (scratch): worklist flags, condensation buffers, the
//     solver's bit-sliced columns, the classifier's byte replay
//     columns, undo storage. A clone therefore has no pending undo:
//     Revert errors until its first Update, exactly like a new engine.
//
// Two engines that start from equal states and apply equal Update
// sequences produce bit-identical Results — clone_test.go holds a
// clone and a from-scratch engine together through divergent walks.

// Clone returns an independent engine positioned at the receiver's
// current layout and converged state. The clone and the receiver can
// Update/Revert concurrently with each other (each engine is still
// not safe for concurrent use by itself). Cost is O(state), far below
// a full analysis: no supergraph rebuild, no fixpoint, no linear
// rebuild.
func (inc *Incremental) Clone() *Incremental {
	sg := inc.sg
	n := len(sg.regions)
	cl := &Incremental{
		cfg:        inc.cfg,
		boundsOnly: inc.boundsOnly,
		w:          inc.w,
		lay:        inc.lay,
		g:          inc.g,
		sg: &supergraph{
			regions: append([]region(nil), sg.regions...),
			entry:   sg.entry,
			rpo:     sg.rpo,
		},
		sc:          inc.sc,
		res:         inc.res,
		lin:         inc.lin.clone(),
		ranges:      append([]lineSpan(nil), inc.ranges...),
		must:        append([]uint8(nil), inc.must...),
		may:         append([]uint8(nil), inc.may...),
		stOff:       inc.stOff,
		iterations:  inc.iterations,
		cOf:         make([]int32, n),
		uOf:         make([]int32, n),
		dirtySet:    make([]bool, inc.g.numSets),
		confDirty:   make([]bool, inc.g.numSets),
		funcChanged: make([]bool, len(inc.funcChanged)),
	}
	for i := range cl.uOf {
		cl.uOf[i] = -1
	}
	cl.outM = make([]uint8, len(inc.outM))
	cl.outY = make([]uint8, len(inc.outY))
	return cl
}

// SetLane redirects the engine's span attribution to lane, so cloned
// engines running on parallel workers appear on their own timeline
// lanes.
func (inc *Incremental) SetLane(lane obs.Lane) { inc.cfg.Lane = lane }

// clone deep-copies the mutable linear caches and shares the
// immutable ones (see the Clone comment for the classification).
func (lin *linearState) clone() *linearState {
	cp := &linearState{
		accesses:  lin.accesses,
		fAccesses: append([]uint64(nil), lin.fAccesses...),
		contrib:   append([]regionContrib(nil), lin.contrib...),
		refs:      lin.refs,
		refW:      lin.refW,
		upper:     lin.upper,
		fLower:    append([]uint64(nil), lin.fLower...),
		fUpper:    append([]uint64(nil), lin.fUpper...),
		nonAH:     append([]uint64(nil), lin.nonAH...),
		pool:      make(map[uint64]poolCnt, len(lin.pool)),
		cnt:       append([]int32(nil), lin.cnt...),
		setLines:  append([]uint32(nil), lin.setLines...),
		foot:      append([]int32(nil), lin.foot...),
		footSet:   append([]int32(nil), lin.footSet...),
		fits:      make([][]bool, len(lin.fits)),
		confSets:  append([]confSet(nil), lin.confSets...),
		edges:     lin.edges,
		edgeFT:    append([]bool(nil), lin.edgeFT...),
		edgeAcc:   append([]float64(nil), lin.edgeAcc...),
		byFunc:    lin.byFunc,
		emark:     append([]uint32(nil), lin.emark...),
		epoch:     lin.epoch,
	}
	//lint:maprange map-to-map copy
	for k, v := range lin.pool {
		cp.pool[k] = v
	}
	for s, row := range lin.fits {
		cp.fits[s] = append([]bool(nil), row...)
	}
	return cp
}
