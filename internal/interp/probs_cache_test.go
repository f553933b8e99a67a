package interp

import (
	"sync"
	"testing"
)

// TestProbsCacheReuse pins the jittered-probability cache: re-running
// one seed reuses the published table, a different seed or jitter
// replaces it, and cached runs behave identically to a fresh engine's.
func TestProbsCacheReuse(t *testing.T) {
	p := loopProgram(t, 0.7)
	e := NewEngine(p)
	cfg := Config{MaxSteps: 2000, ProbJitter: 0.4}

	r1, err := count(e, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := e.probsCache.Load()
	if c1 == nil {
		t.Fatal("no cache entry after Run")
	}
	r2, err := count(e, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.probsCache.Load() != c1 {
		t.Error("same seed rebuilt the probability table")
	}
	if r1 != r2 {
		t.Errorf("cached run diverged: %+v vs %+v", r1, r2)
	}
	// A fresh engine must agree with the cached run.
	r3, err := count(NewEngine(p), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Errorf("fresh engine %+v, cached engine %+v", r3, r1)
	}

	if _, err := count(e, 4, cfg); err != nil {
		t.Fatal(err)
	}
	if e.probsCache.Load() == c1 {
		t.Error("different seed kept the stale table")
	}
	cfg2 := cfg
	cfg2.ProbJitter = 0
	if _, err := count(e, 4, cfg2); err != nil {
		t.Fatal(err)
	}
	if c := e.probsCache.Load(); c == nil || c.jitter != 0 {
		t.Error("jitter change did not refresh the table")
	}
}

// TestEngineConcurrentRuns drives one engine from many goroutines
// (mixed seeds, so the cache is contended) under the race detector and
// checks every run stays deterministic per seed.
func TestEngineConcurrentRuns(t *testing.T) {
	p := loopProgram(t, 0.6)
	e := NewEngine(p)
	cfg := Config{MaxSteps: 1000, ProbJitter: 0.2}
	want := map[uint64]Result{}
	for seed := uint64(0); seed < 4; seed++ {
		r, err := count(e, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = r
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				seed := uint64((g + i) % 4)
				r, err := count(e, seed, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if r != want[seed] {
					t.Errorf("seed %d: %+v, want %+v", seed, r, want[seed])
				}
			}
		}(g)
	}
	wg.Wait()
}
