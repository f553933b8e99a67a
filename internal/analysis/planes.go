package analysis

import "math/bits"

// Bit-sliced set columns.
//
// The per-set solver (solveSets) iterates its condensed system on
// columns: one age per line of the set, must and may. A column stores
// its ages as bit planes, 64 lines per word: plane b of a word holds
// bit b of the ages of 64 lines, so one word operation ages, compares
// or joins 64 lines at once. Lane u of a set's column is line s+u*S,
// as in the byte columns (colLen).
//
// A present age is stored as its own value, and absent as the domain's
// eviction age: mustEvict for must, mayEvict for may, or 255 for the
// may domain of caches wider than maxAge ways, which never evicts.
// Absent is therefore the largest code of its domain, so the max and
// min joins keep their meaning, and ageing a line into the eviction
// age makes it absent with no special case. Both domains take
// bits.Len(may's absent code) planes: 1 for direct-mapped, 3 for 4-way,
// 4 for 8 page frames, 8 beyond maxAge ways.
//
// A column is ⌈colLen/64⌉ groups of 2p words, one group per 64 lanes:
// the must planes, then the may planes. Lanes past colLen hold absent
// in both domains of every column: ageing never changes an absent lane
// and two absent lanes join to absent, so a column's tail stays absent
// and never reports a change.
//
// The per-region states and the classifier keep byte columns: the
// solver converts only when it stores a converged column (lane), and
// mustAccess/mayAccess stay the reference the kernel is tested against.

// planes describes the bit-sliced columns of one geometry.
type planes struct {
	p int // bit planes per domain
	// absM and absY are the absent codes of must and may.
	absM, absY uint8
	// capY bounds may ageing: an access to a line of may-code h ages the
	// lines below min(h, capY). It is maxAge when may never evicts (a
	// line saturates there) and absY otherwise, which bounds no code.
	capY uint8
}

// planes returns the bit-sliced column layout of g.
func (g geom) planes() planes {
	k := planes{absM: g.mustEvict, absY: absentAge, capY: maxAge}
	if g.mayEvicts {
		k.absY, k.capY = g.mayEvict, g.mayEvict
	}
	k.p = bits.Len8(k.absY)
	return k
}

// stride is the length in words of a column of colLen lanes.
func (k planes) stride(colLen int) int { return (colLen + 63) / 64 * 2 * k.p }

// fill sets col to must age 0 on the lanes below n and absent on the
// rest, and to may absent on every lane. With n = colLen it is the
// solver's neutral column (must's 0 is washed out by the max join, may's
// absent by the min join); with n = 0 it is the cold cache.
func (k planes) fill(col []uint64, n int) {
	for g := 0; g < len(col); g += 2 * k.p {
		absent := uint64(0) // lanes at or past n
		if lane0 := g / (2 * k.p) * 64; n < lane0+64 {
			absent = ^uint64(0) << max(n-lane0, 0)
		}
		for b := 0; b < k.p; b++ {
			col[g+b] = absent * uint64(k.absM>>b&1)
			col[g+k.p+b] = ^uint64(0) * uint64(k.absY>>b&1)
		}
	}
}

// code reads lane bit's code from one domain's planes of a word group.
func code(pl []uint64, bit uint) uint8 {
	var c uint64
	for b := len(pl) - 1; b >= 0; b-- {
		c = c<<1 | pl[b]>>bit&1
	}
	return uint8(c)
}

// lane returns lane u's must and may ages as the byte columns store
// them, absent as absentAge.
func (k planes) lane(col []uint64, u int) (must, may uint8) {
	g, bit := u/64*2*k.p, uint(u%64)
	must, may = code(col[g:g+k.p], bit), code(col[g+k.p:g+2*k.p], bit)
	if must == k.absM {
		must = absentAge
	}
	if may == k.absY {
		may = absentAge
	}
	return must, may
}

// access applies one access to lane x in both domains: geom.mustAccess
// and geom.mayAccess on 64 lanes per word. Every lane whose code is
// below the threshold — x's must code, or min(x's may code, capY) —
// ages by one; then x becomes 0. A threshold of 0 ages nothing, and
// leaves x at 0 already.
func (k planes) access(col []uint64, x int) {
	p := k.p
	g, bit := int(uint(x)/64)*2*p, uint(x)%64
	grp := col[g : g+2*p : g+2*p]
	tm, ty := code(grp[:p], bit), min(code(grp[p:], bit), k.capY)
	if tm|ty == 0 {
		return
	}
	for g := 0; g < len(col); g += 2 * p {
		if tm != 0 {
			m := col[g : g+p : g+p]
			addOne(m, below(m, tm))
		}
		if ty != 0 {
			y := col[g+p : g+2*p : g+2*p]
			addOne(y, below(y, ty))
		}
	}
	for b := range grp {
		grp[b] &^= 1 << bit
	}
}

// below returns the lanes of pl whose code is below t: a bit-sliced
// compare against a constant, from the top plane down.
func below(pl []uint64, t uint8) uint64 {
	lt, eq := uint64(0), ^uint64(0)
	for b := len(pl) - 1; b >= 0; b-- {
		if t>>b&1 != 0 {
			lt |= eq &^ pl[b]
			eq &= pl[b]
		} else {
			eq &^= pl[b]
		}
	}
	return lt
}

// addOne adds one to the lanes of pl set in mask, by a ripple carry.
// The solver adds only to lanes below an absent code, so the carry
// never leaves the planes.
func addOne(pl []uint64, mask uint64) {
	for b := 0; mask != 0 && b < len(pl); b++ {
		pl[b], mask = pl[b]^mask, pl[b]&mask
	}
}

// join joins src into dst — must by max, may by min — and reports
// whether some lane of dst changed. Equal word groups join to
// themselves and are skipped wholesale: near a fixpoint most of a
// column is equal.
func (k planes) join(dst, src []uint64) bool {
	p := k.p
	changed := false
	for g := 0; g < len(dst); g += 2 * p {
		d, s := dst[g:g+2*p:g+2*p], src[g:g+2*p:g+2*p]
		var diff uint64
		for b := range d {
			diff |= d[b] ^ s[b]
		}
		if diff == 0 {
			continue
		}
		// gt: lanes where src's must code is above dst's; lt: lanes where
		// src's may code is below dst's. The top differing plane decides.
		var gt, lt uint64
		eqM, eqY := ^uint64(0), ^uint64(0)
		for b := p - 1; b >= 0; b-- {
			xm, xy := s[b]^d[b], s[p+b]^d[p+b]
			gt |= eqM & xm & s[b]
			lt |= eqY & xy & d[p+b]
			eqM &^= xm
			eqY &^= xy
		}
		if gt|lt == 0 {
			continue
		}
		changed = true
		for b := 0; b < p; b++ {
			d[b] ^= (d[b] ^ s[b]) & gt
			d[p+b] ^= (d[p+b] ^ s[p+b]) & lt
		}
	}
	return changed
}
