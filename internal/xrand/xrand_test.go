package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values in 100 draws", same)
	}
}

func TestDeriveLabelsMatter(t *testing.T) {
	if Seed(7, 1, 2) == Seed(7, 2, 1) {
		t.Fatal("Seed ignored label order")
	}
}

// TestSeedMatchesDerive pins Seed as a fixed function of its base and
// labels: labels chain one at a time, and the value is the same on
// every machine and release (workload synthesis depends on it).
func TestSeedMatchesDerive(t *testing.T) {
	if got, want := Seed(9, 4, 5), Seed(Seed(9, 4), 5); got != want {
		t.Fatalf("Seed(9, 4, 5) = %d, Seed(Seed(9, 4), 5) = %d", got, want)
	}
	if got, want := Seed(9, 4, 5), uint64(0x1805879a572fefb1); got != want {
		t.Fatalf("Seed(9, 4, 5) = %d, want %d", got, want)
	}
	if Seed(9) != 9 {
		t.Fatalf("Seed with no labels = %d, want the base 9", Seed(9))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnRangeProperty(t *testing.T) {
	r := New(5)
	f := func(n uint16, steps uint8) bool {
		m := int(n%1000) + 1
		for i := 0; i < int(steps)%50+1; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d has fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-5, 5)
		if v < -5 || v > 5 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if v := r.IntRange(3, 3); v != 3 {
		t.Fatalf("degenerate IntRange = %d, want 3", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleActuallyShuffles(t *testing.T) {
	r := New(41)
	n := 50
	moved := false
	for trial := 0; trial < 5 && !moved; trial++ {
		p := r.Perm(n)
		for i, v := range p {
			if i != v {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Fatal("Perm returned identity five times in a row")
	}
}

func TestChooseRespectsWeights(t *testing.T) {
	r := New(43)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Choose(weights)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight arm chosen %d times", counts[0])
	}
	frac1 := float64(counts[1]) / n
	if math.Abs(frac1-0.25) > 0.02 {
		t.Fatalf("arm 1 fraction %v, want ~0.25", frac1)
	}
}

func TestChoosePanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choose with all-zero weights did not panic")
		}
	}()
	New(1).Choose([]float64{0, 0})
}

func TestBoolProbability(t *testing.T) {
	r := New(47)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit fraction %v", frac)
	}
}
