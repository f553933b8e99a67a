package analysis

import (
	"testing"

	"impact/internal/xrand"
)

// setLane writes byte-column ages (absent as absentAge) into lane u of a
// bit-sliced column.
func (k planes) setLane(col []uint64, u int, must, may uint8) {
	if must == absentAge {
		must = k.absM
	}
	if may == absentAge {
		may = k.absY
	}
	g, bit := u/64*2*k.p, uint(u%64)
	for b := 0; b < k.p; b++ {
		col[g+b] = col[g+b]&^(1<<bit) | uint64(must>>b&1)<<bit
		col[g+k.p+b] = col[g+k.p+b]&^(1<<bit) | uint64(may>>b&1)<<bit
	}
}

// checkPlaneColumns runs two column pairs through the plane kernel and
// through the byte reference side by side — geom.mustAccess/mayAccess
// for an access, byte-wise max (must) and min (may) for a join — for
// steps operations drawn from next, and fails at the first lane whose
// stored age differs, at a join whose change report differs from the
// bytes', and at a tail lane that is not absent.
func checkPlaneColumns(t *testing.T, assoc uint32, colLen, steps int, next func() byte) {
	t.Helper()
	g := makeGeom(64, 1, assoc, uint32(colLen))
	k := g.planes()
	cw := k.stride(colLen)
	randAge := func(evict uint8, evicts bool) uint8 {
		if next()&3 == 0 {
			return absentAge
		}
		if !evicts {
			return next() % absentAge // 0..maxAge: may saturates, never evicts
		}
		return next() % evict
	}
	randCol := func() ([]uint64, []uint8, []uint8) {
		col := make([]uint64, cw)
		k.fill(col, 0)
		m, y := make([]uint8, colLen), make([]uint8, colLen)
		for u := range m {
			m[u], y[u] = randAge(g.mustEvict, true), randAge(g.mayEvict, g.mayEvicts)
			k.setLane(col, u, m[u], y[u])
		}
		return col, m, y
	}
	check := func(step int, what string, col []uint64, m, y []uint8) {
		t.Helper()
		for u := range m {
			if gm, gy := k.lane(col, u); gm != m[u] || gy != y[u] {
				t.Fatalf("assoc %d colLen %d step %d %s: lane %d holds must %d may %d, bytes %d %d",
					assoc, colLen, step, what, u, gm, gy, m[u], y[u])
			}
		}
		for u := colLen; u < cw/(2*k.p)*64; u++ {
			gr, bit := u/64*2*k.p, uint(u%64)
			if code(col[gr:gr+k.p], bit) != k.absM || code(col[gr+k.p:gr+2*k.p], bit) != k.absY {
				t.Fatalf("assoc %d colLen %d step %d %s: tail lane %d is not absent", assoc, colLen, step, what, u)
			}
		}
	}

	// The solver's starting columns.
	col := make([]uint64, cw)
	k.fill(col, colLen)
	m, y := make([]uint8, colLen), make([]uint8, colLen)
	for u := range y {
		y[u] = absentAge
	}
	check(0, "neutral", col, m, y)
	k.fill(col, 0)
	for u := range m {
		m[u] = absentAge
	}
	check(0, "cold", col, m, y)

	a, am, ay := randCol()
	b, bm, by := randCol()
	check(0, "load a", a, am, ay)
	check(0, "load b", b, bm, by)
	for step := 1; step <= steps; step++ {
		op := next() % 8
		if op&4 != 0 { // operate on b, joining a into it
			a, am, ay, b, bm, by = b, bm, by, a, am, ay
		}
		switch op & 3 {
		case 0, 1:
			x := (int(next())<<8 | int(next())) % colLen
			k.access(a, x)
			g.mustAccess(am, x)
			g.mayAccess(ay, x)
			check(step, "access", a, am, ay)
		case 2:
			changed := false
			for u := range am {
				if bm[u] > am[u] {
					am[u], changed = bm[u], true
				}
				if by[u] < ay[u] {
					ay[u], changed = by[u], true
				}
			}
			if got := k.join(a, b); got != changed {
				t.Fatalf("assoc %d colLen %d step %d: join reported change %v, bytes changed %v",
					assoc, colLen, step, got, changed)
			}
			check(step, "join", a, am, ay)
		case 3: // equal columns, the join's skip path
			copy(a, b)
			copy(am, bm)
			copy(ay, by)
			if k.join(a, b) {
				t.Fatalf("assoc %d colLen %d step %d: join of equal columns reported a change", assoc, colLen, step)
			}
		}
	}
}

// TestPlaneColumnsMatchBytes holds the solver's bit-sliced kernel to
// the byte-column transfer and joins: random columns and operation
// sequences at every plane count (1, 2, 3, 4, 8) and around both the
// evicting/non-evicting boundary of may (254/255 ways) and the word
// boundaries of a column (63, 64, 65, 130 lanes).
func TestPlaneColumnsMatchBytes(t *testing.T) {
	for _, assoc := range []uint32{1, 2, 3, 4, 7, 8, 16, 254, 255, 512} {
		for _, colLen := range []int{1, 63, 64, 65, 130} {
			rng := xrand.New(xrand.Seed(uint64(assoc), uint64(colLen)))
			checkPlaneColumns(t, assoc, colLen, 400, func() byte { return byte(rng.Uint64()) })
		}
	}
}

func TestPlaneCounts(t *testing.T) {
	for _, c := range []struct {
		assoc uint32
		p     int
	}{{1, 1}, {2, 2}, {4, 3}, {8, 4}, {254, 8}, {255, 8}, {512, 8}} {
		if got := makeGeom(64, 1, c.assoc, 1).planes().p; got != c.p {
			t.Errorf("assoc %d: %d planes, want %d", c.assoc, got, c.p)
		}
	}
}

// FuzzPlaneColumns checks the kernel against the byte reference on
// fuzzer-chosen associativities, column lengths, starting columns and
// operation sequences (see checkPlaneColumns).
func FuzzPlaneColumns(f *testing.F) {
	f.Add(uint16(0), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint16(3), uint8(64), []byte("access join copy access join"))
	f.Add(uint16(253), uint8(129), []byte{9, 200, 17, 33, 2, 6, 10, 14, 250, 1, 0, 3})
	f.Add(uint16(511), uint8(65), []byte{255, 254, 253, 0, 0, 0, 2, 2, 2, 6, 6})
	f.Fuzz(func(t *testing.T, assoc uint16, colLen uint8, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		checkPlaneColumns(t, uint32(assoc%600)+1, int(colLen)%200+1, len(data), next)
	})
}
