package ir

import (
	"math"
	"testing"
	"testing/quick"
)

func scaleFixture(t *testing.T) *Program {
	t.Helper()
	pb := NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 9)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	a := main.NewBlock()
	b := main.NewBlock()
	c := main.NewBlock()
	main.Fill(a, 6)
	main.Call(a, leaf.ID())
	main.Fill(a, 4)
	main.Branch(a, Arc{To: b, Prob: 0.5}, Arc{To: c, Prob: 0.5})
	main.Fill(b, 20)
	main.Jump(b, c)
	main.Fill(c, 2)
	main.Ret(c)
	pb.SetEntry(main.ID())
	return pb.Build()
}

func TestScaleIdentity(t *testing.T) {
	p := scaleFixture(t)
	q := ScaleCode(p, 1.0)
	if q.Bytes() != p.Bytes() {
		t.Fatalf("factor 1.0 changed size: %d -> %d", p.Bytes(), q.Bytes())
	}
	if err := Validate(q); err != nil {
		t.Fatalf("scaled program invalid: %v", err)
	}
}

func TestScaleHalf(t *testing.T) {
	p := scaleFixture(t)
	q := ScaleCode(p, 0.5)
	if err := Validate(q); err != nil {
		t.Fatalf("scaled program invalid: %v", err)
	}
	// Block b of main: 21 instrs (20 filler + jump) -> round(10.5) = 10 or 11.
	nb := len(q.Funcs[1].Blocks[1].Instrs)
	if nb < 10 || nb > 11 {
		t.Fatalf("block b scaled to %d instrs, want ~10", nb)
	}
	ratio := float64(q.Bytes()) / float64(p.Bytes())
	if ratio > 0.65 {
		t.Fatalf("0.5 scaling only reached ratio %v", ratio)
	}
}

func TestScalePreservesStructure(t *testing.T) {
	p := scaleFixture(t)
	for _, factor := range []float64{0.5, 0.7, 1.1, 2.0} {
		q := ScaleCode(p, factor)
		if err := Validate(q); err != nil {
			t.Fatalf("factor %v: invalid: %v", factor, err)
		}
		for fi, f := range q.Funcs {
			orig := p.Funcs[fi]
			if len(f.Blocks) != len(orig.Blocks) {
				t.Fatalf("factor %v: block count changed", factor)
			}
			for bi, b := range f.Blocks {
				ob := orig.Blocks[bi]
				if countOp(b, OpCall) != countOp(ob, OpCall) {
					t.Fatalf("factor %v: call count changed in f%d b%d", factor, fi, bi)
				}
				if countOp(b, OpRet) != countOp(ob, OpRet) {
					t.Fatalf("factor %v: ret count changed", factor)
				}
				if len(b.Out) != len(ob.Out) {
					t.Fatalf("factor %v: arc count changed", factor)
				}
			}
		}
	}
}

func TestScaleUp(t *testing.T) {
	p := scaleFixture(t)
	q := ScaleCode(p, 1.1)
	if q.Bytes() < p.Bytes() {
		t.Fatalf("1.1 scaling shrank code: %d -> %d", p.Bytes(), q.Bytes())
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaleCode(p, 0) did not panic")
		}
	}()
	ScaleCode(scaleFixture(t), 0)
}

// TestScalePanicsOnNonFinite: NaN and +Inf are rejected like a
// non-positive factor, not rounded into a garbage block length.
func TestScalePanicsOnNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScaleCode(p, %v) did not panic", f)
				}
			}()
			ScaleCode(scaleFixture(t), f)
		}()
	}
}

func TestScaleDoesNotMutateOriginal(t *testing.T) {
	p := scaleFixture(t)
	before := p.Bytes()
	ScaleCode(p, 0.5)
	if p.Bytes() != before {
		t.Fatal("ScaleCode mutated its input")
	}
}

// TestScaleSizeRatioProperty checks that for random factors the total
// scaled size tracks factor within rounding error per block.
func TestScaleSizeRatioProperty(t *testing.T) {
	p := scaleFixture(t)
	f := func(raw uint8) bool {
		factor := 0.3 + float64(raw)/256.0*1.7 // [0.3, 2.0)
		q := ScaleCode(p, factor)
		if Validate(q) != nil {
			return false
		}
		// Each block may deviate by at most half an instruction from
		// exact scaling, plus the structural floor.
		maxDev := 0.0
		for fi, fn := range q.Funcs {
			for bi, b := range fn.Blocks {
				exact := float64(len(p.Funcs[fi].Blocks[bi].Instrs)) * factor
				dev := math.Abs(float64(len(b.Instrs)) - exact)
				if dev > maxDev {
					maxDev = dev
				}
			}
		}
		// Structural floor: a block of s structural instrs never goes
		// below s, so allow s as deviation bound for tiny factors.
		return maxDev <= 3.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func countOp(b *Block, op Opcode) int {
	n := 0
	for _, in := range b.Instrs {
		if in.Op == op {
			n++
		}
	}
	return n
}
