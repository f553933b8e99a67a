package cache

import (
	"strings"
	"testing"

	"impact/internal/memtrace"
	"impact/internal/xrand"
)

func timingCfg(block int, cwf bool) Config {
	return Config{
		SizeBytes: 1024, BlockBytes: block, Assoc: 1,
		Timing: &TimingConfig{InitialLatency: 10, CriticalWordFirst: cwf},
	}
}

func TestTimingHitCostsOneCycle(t *testing.T) {
	c := mustNew(t, timingCfg(64, true))
	c.Run(run(0, 64)) // cold miss then streaming
	c.Run(run(0, 64)) // all hits
	s := c.Stats()
	// One miss: 10 cycles initial latency. The first run consumes all
	// 16 words of the fill, so no taken-branch stall.
	if s.StallCycles != 10 {
		t.Fatalf("stall = %d, want 10", s.StallCycles)
	}
	if got := s.Cycles(); got != 32+10 {
		t.Fatalf("cycles = %d, want 42", got)
	}
}

func TestTimingTakenBranchStall(t *testing.T) {
	c := mustNew(t, timingCfg(64, true))
	// Miss at word 0, consume only 4 words, then branch away: the
	// remaining 12 words of the fill stall the CPU.
	c.Run(run(0, 16))
	s := c.Stats()
	if s.StallCycles != 10+12 {
		t.Fatalf("stall = %d, want 22", s.StallCycles)
	}
}

func TestTimingFrontRepairWithoutForwarding(t *testing.T) {
	cwf := mustNew(t, timingCfg(64, true))
	nofwd := mustNew(t, timingCfg(64, false))
	// Miss at word 8 of a block: without forwarding the 8 words in
	// front repair first.
	cwf.Run(run(32, 32))
	nofwd.Run(run(32, 32))
	diff := nofwd.Stats().StallCycles - cwf.Stats().StallCycles
	if diff != 8 {
		t.Fatalf("front-repair stall difference = %d, want 8", diff)
	}
}

func TestTimingEffectiveAccessTime(t *testing.T) {
	c := mustNew(t, timingCfg(64, true))
	c.Run(run(0, 64))
	for i := 0; i < 99; i++ {
		c.Run(run(0, 64))
	}
	eat := c.Stats().EffectiveAccessTime()
	// 1600 accesses, 10 stall cycles: 1.00625.
	if eat < 1.006 || eat > 1.007 {
		t.Fatalf("EAT = %v", eat)
	}
	if (Stats{}).EffectiveAccessTime() != 0 {
		t.Fatal("zero stats EAT != 0")
	}
}

func TestTimingMidRunMissQueueing(t *testing.T) {
	// Two cold blocks in one run: the first fill is fully consumed
	// (16 words) before the second miss, so only two initial latencies
	// are charged; the second fill's remaining words stall at run end.
	c := mustNew(t, timingCfg(64, true))
	c.Run(run(0, 128))
	s := c.Stats()
	if s.Misses != 2 {
		t.Fatalf("misses = %d", s.Misses)
	}
	if s.StallCycles != 20 {
		t.Fatalf("stall = %d, want 20 (2 x initial latency)", s.StallCycles)
	}
}

func TestTimingValidation(t *testing.T) {
	cfg := Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1,
		Timing: &TimingConfig{InitialLatency: -1}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestPrefetchNextBlock(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true})
	c.Run(run(0, 4)) // miss block 0, prefetch block 1
	s := c.Stats()
	if s.Misses != 1 || s.Prefetches != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.MemWords != 32 {
		t.Fatalf("mem words = %d, want 32 (demand + prefetch)", s.MemWords)
	}
	c.Run(run(64, 4)) // block 1 was prefetched: hit
	s = c.Stats()
	if s.Misses != 1 {
		t.Fatal("prefetched block missed")
	}
	if s.PrefetchUsed != 1 {
		t.Fatalf("prefetch used = %d, want 1", s.PrefetchUsed)
	}
	if got := s.PrefetchAccuracy(); got != 1 {
		t.Fatalf("accuracy = %v", got)
	}
}

func TestPrefetchDoesNotRefetchResident(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true})
	c.Run(run(64, 4)) // miss block 1, prefetch block 2
	c.Run(run(0, 4))  // miss block 0; block 1 resident: no prefetch transfer
	s := c.Stats()
	if s.Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1 (block 1 already resident)", s.Prefetches)
	}
	if s.MemWords != 3*16 {
		t.Fatalf("mem words = %d, want 48 (2 demand + 1 prefetch)", s.MemWords)
	}
}

func TestPrefetchValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true, SectorBytes: 8},
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true, PartialLoad: true},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestPrefetchAccuracyZeroStats(t *testing.T) {
	if (Stats{}).PrefetchAccuracy() != 0 {
		t.Fatal("zero stats accuracy != 0")
	}
}

// TestPrefetchHelpsSequentialCode: on a long sequential sweep larger
// than the cache, prefetch-on-miss halves the miss count.
func TestPrefetchHelpsSequentialCode(t *testing.T) {
	var tr memtrace.Trace
	for rep := 0; rep < 4; rep++ {
		tr.Run(memtrace.Run{Addr: 0, Bytes: 8192}) // 8KB sweep, 1KB cache
	}
	plain, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Misses*2 > plain.Misses+2 {
		t.Fatalf("prefetch misses %d not about half of %d", pf.Misses, plain.Misses)
	}
	if pf.PrefetchAccuracy() < 0.9 {
		t.Fatalf("sequential prefetch accuracy %v, want ~1", pf.PrefetchAccuracy())
	}
}

// TestPrefetchTrafficNeverBelowPlain: prefetching can only add
// transfers on the same trace.
func TestPrefetchTrafficNeverBelowPlain(t *testing.T) {
	r := xrand.New(99)
	var tr memtrace.Trace
	for i := 0; i < 400; i++ {
		tr.Run(memtrace.Run{Addr: uint32(r.Intn(1024)) * 4, Bytes: uint32(r.IntRange(1, 32)) * 4})
	}
	plain, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if pf.MemWords < plain.MemWords {
		t.Fatalf("prefetch reduced traffic: %d < %d", pf.MemWords, plain.MemWords)
	}
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || RandomRepl.String() != "rand" {
		t.Fatal("replacement names wrong")
	}
	if !strings.Contains(Replacement(9).String(), "9") {
		t.Fatal("unknown replacement name wrong")
	}
	cfg := Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 2, Replacement: FIFO}
	if got := cfg.String(); !strings.Contains(got, "fifo") {
		t.Fatalf("config string %q missing policy", got)
	}
}

func TestReplacementValidation(t *testing.T) {
	cfg := Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 2, Replacement: Replacement(7)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestFIFODiffersFromLRU: the classic sequence where touching a line
// saves it under LRU but not under FIFO.
func TestFIFODiffersFromLRU(t *testing.T) {
	// 2-way set. Blocks a, b, then touch a again, then c.
	// LRU evicts b (a was refreshed); FIFO evicts a (oldest load).
	seq := []memtrace.Run{
		{Addr: 0, Bytes: 4},   // a
		{Addr: 128, Bytes: 4}, // b (same set, 128B cache span)
		{Addr: 0, Bytes: 4},   // a again
		{Addr: 256, Bytes: 4}, // c -> eviction
		{Addr: 0, Bytes: 4},   // a: hit under LRU, miss under FIFO
	}
	runCfg := func(rep Replacement) Stats {
		c, err := newCache(Config{SizeBytes: 128, BlockBytes: 64, Assoc: 2, Replacement: rep})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range seq {
			c.Run(r)
		}
		return c.Stats()
	}
	lru := runCfg(LRU)
	fifo := runCfg(FIFO)
	if lru.Misses != 3 {
		t.Fatalf("LRU misses = %d, want 3", lru.Misses)
	}
	if fifo.Misses != 4 {
		t.Fatalf("FIFO misses = %d, want 4", fifo.Misses)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	r := xrand.New(3)
	var tr memtrace.Trace
	for i := 0; i < 500; i++ {
		tr.Run(memtrace.Run{Addr: uint32(r.Intn(512)) * 4, Bytes: 4})
	}
	cfg := Config{SizeBytes: 512, BlockBytes: 64, Assoc: 4, Replacement: RandomRepl}
	a, err := Simulate(cfg, &tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("random replacement not reproducible")
	}
	if a.Misses == 0 || a.Misses > a.Accesses {
		t.Fatalf("implausible stats %+v", a)
	}
}

// TestPoliciesAgreeOnColdMisses: on a no-reuse scan every policy sees
// exactly the same (purely compulsory) misses.
func TestPoliciesAgreeOnColdMisses(t *testing.T) {
	var tr memtrace.Trace
	tr.Run(memtrace.Run{Addr: 0, Bytes: 16384})
	var counts []uint64
	for _, rep := range []Replacement{LRU, FIFO, RandomRepl} {
		st, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 4, Replacement: rep}, &tr)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, st.Misses)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("policies disagree on compulsory misses: %v", counts)
	}
	if counts[0] != 16384/64 {
		t.Fatalf("cold misses = %d, want 256", counts[0])
	}
}
