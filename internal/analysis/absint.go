package analysis

import (
	"impact/internal/cache"
	"impact/internal/ir"
)

// The abstract cache domain (after Ferdinand & Wilhelm's must/may
// ageing caches, adapted to LRU set-associative geometries):
//
//   - The must state maps every cache line to an upper bound on its
//     LRU age on every path reaching a point, or "absent". A line with
//     must-age < assoc is guaranteed cached, so a reference to it is an
//     always-hit. Join is elementwise max (a line survives the join
//     only if present on all paths, at its oldest age).
//   - The may state maps every line to a lower bound on its age on
//     some path, or "absent". A line absent from may cannot be cached,
//     so a reference to it is an always-miss. Join is elementwise min.
//
// On an access to line x in set s:
//
//   - must: with h = must-age(x) (assoc when absent), every line in s
//     with must-age < h ages by one (evicting at the associativity);
//     x moves to age 0. Lines at age >= h cannot be younger than x on
//     any path, so their bound stands.
//   - may: with m = may-age(x) (assoc when absent), every line in s
//     with may-age < m ages by one; x moves to age 0. Ageing lines
//     with may-age >= m would be unsound: on a path where x is older
//     than its bound, those lines need not age.
//
// The per-region states store ages one byte per line; 0xFF means
// absent. Accesses only ever read and age the lines of one set, so the
// transfer functions work on a set's packed column (see colLen) and the
// fixpoint is solved one set at a time (incremental.go), on the same
// columns held as bit planes (planes.go); mustAccess/mayAccess below
// are the byte form the classifier replays. For associativities beyond
// 254 (large fully associative caches) the must analysis evicts early
// at age 254 (shrinking the guaranteed cache — sound) and the may
// analysis stops ageing at 254 and never evicts (growing the possible
// cache — sound).

const (
	absentAge = 0xFF
	maxAge    = 0xFE
)

// geom is a cache geometry resolved against a layout size.
type geom struct {
	blockBytes uint32
	numSets    uint32
	assoc      uint32
	numLines   uint32
	// mustEvict is the must-domain eviction age: min(assoc, maxAge).
	mustEvict uint8
	// mayEvict is the may-domain eviction age; meaningful only when
	// mayEvicts (assoc fits the byte domain), otherwise may ages
	// saturate at maxAge and lines are never evicted from may.
	mayEvict  uint8
	mayEvicts bool
}

func newGeom(cfg cache.Config, totalBytes uint32) geom {
	bb := uint32(cfg.BlockBytes)
	blocks := uint32(cfg.SizeBytes / cfg.BlockBytes)
	assoc := uint32(cfg.Assoc)
	if assoc == 0 {
		assoc = blocks
	}
	return makeGeom(bb, blocks/assoc, assoc, (totalBytes+bb-1)/bb)
}

// makeGeom assembles a geometry and derives its eviction ages.
func makeGeom(blockBytes, numSets, assoc, numLines uint32) geom {
	g := geom{blockBytes: blockBytes, numSets: numSets, assoc: assoc, numLines: numLines}
	if assoc <= maxAge {
		g.mustEvict = uint8(assoc)
		g.mayEvict = uint8(assoc)
		g.mayEvicts = true
	} else {
		g.mustEvict = maxAge
	}
	return g
}

// set returns the cache set of a line; lines of one set are
// l, l+numSets, l+2*numSets, ... (tag = line / numSets), matching the
// simulator's mapping.
func (g geom) set(l uint32) uint32 { return l % g.numSets }

// colLen returns how many lines map to set s: the length of s's packed
// column, where byte u holds line s + u*numSets.
func (g geom) colLen(s uint32) int {
	if s >= g.numLines {
		return 0
	}
	return int((g.numLines-s-1)/g.numSets + 1)
}

// colRange returns the slots [u0, u1) that span sp's lines occupy in
// set s's packed column. A span's lines in one set are consecutive
// there, in the ascending order the span fetches them, and accesses to
// other sets neither read nor write the column — so replaying the slots
// in order is the span's whole effect on the set.
func (g geom) colRange(sp lineSpan, s uint32) (u0, u1 int) {
	if !sp.ok {
		return 0, 0
	}
	S := g.numSets
	first := sp.l0 + (s+S-sp.l0%S)%S // the span's first line in set s
	if first > sp.l1 {
		return 0, 0
	}
	return int((first - s) / S), int((sp.l1-s)/S) + 1
}

// mustAccess applies the must-domain update for one access to the line
// at index x of a packed set column. The column holds only lines of the
// accessed line's set, so the ageing loop runs over the whole slice.
// Each line's new age depends on its own age and x's alone, so the
// update is exact on any part of a column that contains x.
func (g geom) mustAccess(col []uint8, x int) {
	h := col[x]
	if h == 0 {
		return
	}
	limit := h
	if h == absentAge {
		limit = g.mustEvict
	}
	for y, a := range col {
		if a != absentAge && a < limit {
			a++
			if a >= g.mustEvict {
				a = absentAge
			}
			col[y] = a
		}
	}
	col[x] = 0
}

// mayAccess applies the may-domain update for one access to the line at
// index x of a packed set column (or part of one, as for mustAccess).
func (g geom) mayAccess(col []uint8, x int) {
	m := col[x]
	if m == 0 {
		return
	}
	limit := m
	if m == absentAge {
		if g.mayEvicts {
			limit = g.mayEvict
		} else {
			limit = absentAge // every present line ages (saturating)
		}
	}
	for y, a := range col {
		if a != absentAge && a < limit {
			if g.mayEvicts {
				a++
				if a >= g.mayEvict {
					a = absentAge
				}
			} else if a < maxAge {
				a++
			}
			col[y] = a
		}
	}
	col[x] = 0
}

// Class is the static classification of one line reference.
type Class uint8

const (
	// ClassAlwaysHit marks references guaranteed to hit (line in the
	// must cache on every path).
	ClassAlwaysHit Class = iota
	// ClassFirstMiss marks references to persistent lines: either the
	// line's set never exceeds its ways program-wide (at most one miss
	// per cold start), or the line survives within its reference's loop
	// scope (at most one miss per scope entry; see persist.go).
	ClassFirstMiss
	// ClassAlwaysMiss marks references guaranteed to miss (line absent
	// from the may cache on every path).
	ClassAlwaysMiss
	// ClassUnclassified marks references the analysis cannot bound
	// beyond "may hit or miss".
	ClassUnclassified
	// NumClasses sizes per-class arrays.
	NumClasses
)

// String returns the conventional abbreviation (AH, FM, AM, NC).
func (c Class) String() string {
	switch c {
	case ClassAlwaysHit:
		return "AH"
	case ClassFirstMiss:
		return "FM"
	case ClassAlwaysMiss:
		return "AM"
	}
	return "NC"
}

// Bounds is the whole-program miss classification and the derived
// static miss-count bounds.
type Bounds struct {
	// Lower / Upper bound the miss count of a single complete
	// execution matching the weights (see Exact).
	Lower, Upper uint64
	// Accesses is the modelled instruction fetch count (sum of region
	// weight x words); equal to the simulator's Stats.Accesses when the
	// weights are uncapped.
	Accesses uint64
	// LineRefs counts static line references (region x line pairs);
	// WeightedLineRefs is their weighted sum (block-granule accesses).
	LineRefs         int
	WeightedLineRefs uint64
	// Refs / RefWeight count static references and their weights per
	// class, indexed by Class.
	Refs      [NumClasses]uint64
	RefWeight [NumClasses]uint64
	// PersistentLines counts accessed lines whose set never exceeds
	// its ways (at most one miss each per cold start).
	PersistentLines int
	// Scopes counts the cyclic region SCCs considered as persistence
	// scopes (persist.go); ScopePools counts the (line, scope) pairs
	// whose upper-bound weight was pooled under the scope's entry
	// bound instead of counted per reference.
	Scopes, ScopePools int
	// Exact reports that the weights describe one complete execution
	// (one run, no step cap), making the bounds a guarantee for that
	// run's simulated trace rather than an estimate.
	Exact bool
	// Runs is the number of profiling runs aggregated in the weights.
	Runs int
}

// LowerRatio returns Lower/Accesses — the static miss-ratio floor.
func (b Bounds) LowerRatio() float64 {
	if b.Accesses == 0 {
		return 0
	}
	return float64(b.Lower) / float64(b.Accesses)
}

// UpperRatio returns Upper/Accesses — the static miss-ratio ceiling.
func (b Bounds) UpperRatio() float64 {
	if b.Accesses == 0 {
		return 0
	}
	return float64(b.Upper) / float64(b.Accesses)
}

// FuncBounds is the per-function slice of the bounds. Function upper
// bounds skip the persistence tightening (it is a whole-program
// property), so Upper sums may exceed the program bound.
type FuncBounds struct {
	Func         ir.FuncID
	Name         string
	Lower, Upper uint64
	Accesses     uint64
}
