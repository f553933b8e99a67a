package sweep

import (
	"fmt"
	"strings"
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
	"impact/internal/xrand"
)

// genTrace builds a synthetic instruction trace with loop-like
// locality: most runs revisit a hot region, the rest jump across a
// wider address range, so every cache size under test sees a mix of
// hits, capacity misses, and conflict misses.
func genTrace(seed uint64, nRuns int) *memtrace.Trace {
	rng := xrand.New(seed)
	tr := &memtrace.Trace{}
	hot := uint32(rng.Intn(1<<12)) * memtrace.WordBytes
	for i := 0; i < nRuns; i++ {
		var addr uint32
		if rng.Bool(0.7) {
			addr = hot + uint32(rng.Intn(512))*memtrace.WordBytes
		} else {
			addr = uint32(rng.Intn(1<<15)) * memtrace.WordBytes
		}
		words := rng.IntRange(1, 48)
		tr.Run(memtrace.Run{Addr: addr, Bytes: uint32(words) * memtrace.WordBytes})
	}
	return tr
}

// diffConfig simulates cfg both ways and fails the test unless the
// derived statistics are bit-identical to the sequential simulator.
func diffConfig(t *testing.T, p *StackPass, cfg cache.Config, tr *memtrace.Trace) {
	t.Helper()
	want, err := cache.Simulate(cfg, tr)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	got, err := p.Stats(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	if got != want {
		t.Errorf("%v: stack pass %+v, sequential %+v", cfg, got, want)
	}
}

func TestStackMatchesSimulateFullyAssociative(t *testing.T) {
	for _, block := range []int{16, 32, 64, 128} {
		tr := genTrace(uint64(block), 3000)
		p, err := Run(tr, block, 1)
		if err != nil {
			t.Fatal(err)
		}
		for size := block; size <= 16384; size *= 2 {
			diffConfig(t, p, cache.Config{SizeBytes: size, BlockBytes: block, Assoc: 0}, tr)
		}
	}
}

func TestStackMatchesSimulateSetAssociative(t *testing.T) {
	const block, sets = 32, 8
	for seed := uint64(1); seed <= 3; seed++ {
		tr := genTrace(seed, 2000)
		p, err := Run(tr, block, sets)
		if err != nil {
			t.Fatal(err)
		}
		for _, assoc := range []int{1, 2, 4, 8, 16} {
			cfg := cache.Config{SizeBytes: sets * assoc * block, BlockBytes: block, Assoc: assoc}
			diffConfig(t, p, cfg, tr)
		}
	}
}

func TestStackDirectMappedAnyReplacement(t *testing.T) {
	// A single-way set never consults its replacement policy, so
	// direct-mapped FIFO/random configurations are still exact.
	tr := genTrace(7, 1500)
	p, err := Run(tr, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.RandomRepl} {
		cfg := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Replacement: repl}
		diffConfig(t, p, cfg, tr)
	}
}

func TestStackHandCrafted(t *testing.T) {
	// Blocks (16B = 4 words each): A=0, B=16, C=32. Reference string
	// A B A C B A, one block per run.
	tr := &memtrace.Trace{}
	for _, addr := range []uint32{0, 16, 0, 16 * 2, 16, 0} {
		tr.Run(memtrace.Run{Addr: addr, Bytes: 16})
	}
	p, err := Run(tr, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Distances: A:∞ B:∞ A:2 C:∞ B:3 A:3 → cold=3, hist={0,1,2}.
	if p.cold != 3 {
		t.Errorf("cold = %d, want 3", p.cold)
	}
	wantHist := []uint64{0, 1, 2}
	if len(p.hist) != len(wantHist) {
		t.Fatalf("hist = %v, want %v", p.hist, wantHist)
	}
	for i, w := range wantHist {
		if p.hist[i] != w {
			t.Fatalf("hist = %v, want %v", p.hist, wantHist)
		}
	}
	// Capacity 1 block misses everything; 2 blocks hits the depth-2
	// reuse; 3+ blocks leaves only the cold misses.
	for _, tc := range []struct {
		assoc int
		want  uint64
	}{{1, 6}, {2, 5}, {3, 3}, {4, 3}} {
		if got := p.MissesAt(tc.assoc); got != tc.want {
			t.Errorf("MissesAt(%d) = %d, want %d", tc.assoc, got, tc.want)
		}
	}
	if p.Accesses() != 24 {
		t.Errorf("Accesses = %d, want 24", p.Accesses())
	}
}

func TestEligible(t *testing.T) {
	base := cache.Config{SizeBytes: 2048, BlockBytes: 64}
	cases := []struct {
		name string
		mut  func(*cache.Config)
		want bool
	}{
		{"fully associative LRU", func(c *cache.Config) {}, true},
		{"direct-mapped", func(c *cache.Config) { c.Assoc = 1 }, true},
		{"4-way LRU", func(c *cache.Config) { c.Assoc = 4 }, true},
		{"4-way FIFO", func(c *cache.Config) { c.Assoc = 4; c.Replacement = cache.FIFO }, false},
		{"4-way random", func(c *cache.Config) { c.Assoc = 4; c.Replacement = cache.RandomRepl }, false},
		{"direct-mapped FIFO", func(c *cache.Config) { c.Assoc = 1; c.Replacement = cache.FIFO }, true},
		{"sectored", func(c *cache.Config) { c.Assoc = 1; c.SectorBytes = 16 }, false},
		{"partial load", func(c *cache.Config) { c.Assoc = 1; c.PartialLoad = true }, false},
		{"prefetch", func(c *cache.Config) { c.Assoc = 1; c.PrefetchNext = true }, false},
		{"timed", func(c *cache.Config) { c.Timing = &cache.TimingConfig{InitialLatency: 4} }, false},
		{"invalid", func(c *cache.Config) { c.SizeBytes = 1000 }, false},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if got := eligible(cfg); got != tc.want {
			t.Errorf("%s: eligible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCovers(t *testing.T) {
	tr := genTrace(11, 200)
	p, err := Run(tr, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.covers(cache.Config{SizeBytes: 4096, BlockBytes: 64, Assoc: 0}) {
		t.Error("FA config with matching block not covered")
	}
	if p.covers(cache.Config{SizeBytes: 4096, BlockBytes: 32, Assoc: 0}) {
		t.Error("mismatched block size covered")
	}
	if p.covers(cache.Config{SizeBytes: 4096, BlockBytes: 64, Assoc: 1}) {
		t.Error("direct-mapped config (64 sets) covered by 1-set pass")
	}
	if _, err := p.Stats(cache.Config{SizeBytes: 4096, BlockBytes: 32, Assoc: 0}); err == nil {
		t.Error("Stats on uncovered config did not error")
	}
}

// TestShardRunMatchesSerial pins the deprecated forward: every worker
// count derives exactly the serial pass's statistics.
func TestShardRunMatchesSerial(t *testing.T) {
	tr := genTrace(64032, 2500)
	want, err := Run(tr, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		got, err := ShardRun(tr, 64, 32, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		comparePass(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestRunRejectsBadGeometry walks every rejected geometry of
// checkGeometry, one row per failing condition, through checkGeometry
// and Run, plus a valid geometry both accept.
func TestRunRejectsBadGeometry(t *testing.T) {
	tr := genTrace(17, 10)
	tests := []struct {
		name        string
		block, sets int
		wantErr     string // "" means valid
	}{
		{"zero block", 0, 1, "block size 0 is not a power of two"},
		{"block not a power of two", 3, 1, "block size 3 is not a power of two"},
		{"block over 2GB", 1 << 32, 1, "block size 4294967296 is not a power of two in [4, 2147483648]"},
		{"zero sets", 64, 0, "set count 0 is not a positive power of two"},
		{"negative sets", 64, -4, "set count -4 is not a positive power of two"},
		{"sets not a power of two", 64, 3, "set count 3 is not a positive power of two"},
		{"valid", 64, 32, ""},
		{"page-sized block", 4096, 1, ""},
		{"largest block", 1 << 31, 1, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkGeometry(tt.block, tt.sets)
			p, runErr := Run(tr, tt.block, tt.sets)
			if tt.wantErr == "" {
				if err != nil || runErr != nil || p == nil {
					t.Fatalf("checkGeometry = %v; Run = %v, %v; want a pass", err, p, runErr)
				}
				if block := int(p.blockWords) * memtrace.WordBytes; block != tt.block || int(p.sets) != tt.sets {
					t.Errorf("pass geometry %d/%d, want %d/%d", block, p.sets, tt.block, tt.sets)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("checkGeometry = %v; want an error containing %q", err, tt.wantErr)
			}
			if runErr == nil || runErr.Error() != err.Error() || p != nil {
				t.Errorf("Run = %v, %v; want nil and the checkGeometry error", p, runErr)
			}
		})
	}
}
