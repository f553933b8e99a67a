package cache

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"impact/internal/memtrace"
	"impact/internal/xrand"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := newCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func run(addr, bytes uint32) memtrace.Run { return memtrace.Run{Addr: addr, Bytes: bytes} }

// TestValidate walks every error branch of Config.Validate, through
// Validate and through New: a bad configuration fails both with the
// branch's message and New returns no cache; a valid one builds one.
func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr string // "" means valid
	}{
		{"zero size", Config{SizeBytes: 0, BlockBytes: 16}, "not a positive power of two"},
		{"size not a power of two", Config{SizeBytes: 1000, BlockBytes: 16}, "not a positive power of two"},
		{"size over 1<<31", Config{SizeBytes: 1 << 32, BlockBytes: 64, Assoc: 1}, "size 4294967296 exceeds 2147483648 bytes"},
		{"terabyte size", Config{SizeBytes: 1 << 40, BlockBytes: 64, Assoc: 1}, "size 1099511627776 exceeds 2147483648 bytes"},
		{"block not a power of two", Config{SizeBytes: 1024, BlockBytes: 3}, "is not a power of two >= 4"},
		{"block over 64 words", Config{SizeBytes: 1024, BlockBytes: 512}, "exceeds 256 bytes"},
		{"block over 64 words and size", Config{SizeBytes: 1024, BlockBytes: 2048}, "exceeds 256 bytes"},
		{"block over cache size", Config{SizeBytes: 64, BlockBytes: 128}, "exceeds cache size"},
		{"associativity does not divide", Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 5}, "associativity 5 incompatible"},
		{"associativity over blocks", Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 32}, "associativity 32 incompatible"},
		{"negative latency", Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, Timing: &TimingConfig{InitialLatency: -1}}, "negative initial latency"},
		{"unknown replacement", Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 2, Replacement: numReplacements}, "unknown replacement policy"},
		{"prefetch with partial fill", Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true, PartialLoad: true}, "prefetch requires whole-block fill"},
		{"sector with partial load", Config{SizeBytes: 1024, BlockBytes: 64, SectorBytes: 8, PartialLoad: true}, "mutually exclusive"},
		{"sector not a power of two", Config{SizeBytes: 1024, BlockBytes: 64, SectorBytes: 6}, "sector size 6 incompatible"},
		{"sector over block", Config{SizeBytes: 1024, BlockBytes: 64, SectorBytes: 128}, "sector size 128 incompatible"},
		{"direct-mapped", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}, ""},
		{"fully associative", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 0}, ""},
		{"8-way", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 8}, ""},
		{"sectored", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8}, ""},
		{"partial load", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true}, ""},
		{"64-word block", Config{SizeBytes: 256, BlockBytes: 256, Assoc: 1}, ""},
		{"timed FIFO", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, Replacement: FIFO, Timing: &TimingConfig{InitialLatency: 8}}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			verr := tt.cfg.Validate()
			c, err := newCache(tt.cfg)
			if tt.wantErr == "" {
				if verr != nil || err != nil || c == nil {
					t.Fatalf("Validate = %v, New = %v, %v; want a cache", verr, c, err)
				}
				return
			}
			if verr == nil || !strings.Contains(verr.Error(), tt.wantErr) {
				t.Errorf("Validate = %v, want an error containing %q", verr, tt.wantErr)
			}
			if err == nil || err.Error() != verr.Error() || c != nil {
				t.Errorf("New = %v, %v; want nil and the Validate error", c, err)
			}
		})
	}
}

func TestConfigString(t *testing.T) {
	cases := map[string]Config{
		"2048B/64B dm":          {SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
		"2048B/64B full":        {SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
		"2048B/64B 4way":        {SizeBytes: 2048, BlockBytes: 64, Assoc: 4},
		"2048B/64B dm sector=8": {SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8},
		"2048B/64B dm partial":  {SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	c.Run(run(0, 64)) // 16 accesses, 1 cold miss
	s := c.Stats()
	if s.Accesses != 16 || s.Misses != 1 || s.MemWords != 16 {
		t.Fatalf("cold pass: %+v", s)
	}
	c.Run(run(0, 64)) // all hits
	s = c.Stats()
	if s.Accesses != 32 || s.Misses != 1 {
		t.Fatalf("warm pass: %+v", s)
	}
}

func TestTrafficEqualsMissTimesBlockWords(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 512, BlockBytes: 32, Assoc: 1})
	r := xrand.New(1)
	for i := 0; i < 500; i++ {
		addr := uint32(r.Intn(4096/4)) * 4
		c.Run(run(addr, uint32(r.IntRange(1, 16))*4))
	}
	s := c.Stats()
	if s.MemWords != s.Misses*8 {
		t.Fatalf("whole-block traffic %d != misses %d * 8", s.MemWords, s.Misses)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1024B direct-mapped, 64B blocks = 16 sets. Addresses 0 and 1024
	// map to set 0 with different tags: alternating accesses all miss.
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	for i := 0; i < 10; i++ {
		c.Run(run(0, 4))
		c.Run(run(1024, 4))
	}
	s := c.Stats()
	if s.Misses != 20 {
		t.Fatalf("conflict misses = %d, want 20", s.Misses)
	}
}

func TestTwoWayResolvesConflict(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 2})
	for i := 0; i < 10; i++ {
		c.Run(run(0, 4))
		c.Run(run(1024, 4))
	}
	s := c.Stats()
	if s.Misses != 2 {
		t.Fatalf("2-way misses = %d, want 2 (cold only)", s.Misses)
	}
}

func TestFullyAssociativeLRU(t *testing.T) {
	// 4-block fully associative cache; access 5 distinct blocks then
	// re-access the first: it was evicted (LRU), so it misses again.
	c := mustNew(t, Config{SizeBytes: 256, BlockBytes: 64, Assoc: 0})
	for b := uint32(0); b < 5; b++ {
		c.Run(run(b*64, 4))
	}
	c.Run(run(0, 4))
	s := c.Stats()
	if s.Misses != 6 {
		t.Fatalf("misses = %d, want 6", s.Misses)
	}
	// Block 2 is still resident (accessed 3rd of 5, blocks 1..4 + 0
	// resident... verify with a hit on block 4).
	before := c.Stats().Misses
	c.Run(run(4*64, 4))
	if c.Stats().Misses != before {
		t.Fatal("recently used block was evicted")
	}
}

func TestLRUVictimChoice(t *testing.T) {
	// 2-way set; touch A, B, A, then C (same set): B must be evicted.
	c := mustNew(t, Config{SizeBytes: 128, BlockBytes: 64, Assoc: 2})
	a, b, cc := uint32(0), uint32(128), uint32(256) // all map to set 0
	c.Run(run(a, 4))
	c.Run(run(b, 4))
	c.Run(run(a, 4))
	c.Run(run(cc, 4))
	miss := c.Stats().Misses
	c.Run(run(a, 4)) // A must still be resident
	if c.Stats().Misses != miss {
		t.Fatal("LRU evicted the recently used line")
	}
	c.Run(run(b, 4)) // B was evicted
	if c.Stats().Misses != miss+1 {
		t.Fatal("LRU kept the least recently used line")
	}
}

func TestSectoredFetchesOnlySector(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, SectorBytes: 8})
	c.Run(run(0, 8)) // touches exactly sector 0 (2 words)
	s := c.Stats()
	if s.Misses != 1 || s.MemWords != 2 {
		t.Fatalf("sector fetch: %+v", s)
	}
	c.Run(run(8, 8)) // next sector: separate miss
	s = c.Stats()
	if s.Misses != 2 || s.MemWords != 4 {
		t.Fatalf("second sector: %+v", s)
	}
	c.Run(run(0, 16)) // both sectors now valid
	if c.Stats().Misses != 2 {
		t.Fatal("valid sectors missed")
	}
}

func TestSectoredWholeBlockRun(t *testing.T) {
	// A run covering a whole 64B block with 8B sectors: 8 sector
	// misses, 16 words of traffic.
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, SectorBytes: 8})
	c.Run(run(0, 64))
	s := c.Stats()
	if s.Misses != 8 || s.MemWords != 16 {
		t.Fatalf("sectored block run: %+v", s)
	}
}

func TestSectorTagReplacementInvalidatesAll(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, SectorBytes: 8})
	c.Run(run(0, 64))   // fill all sectors of block 0
	c.Run(run(1024, 8)) // conflicting tag: replaces line
	c.Run(run(0, 8))    // back: sector must miss again
	s := c.Stats()
	if s.Misses != 10 {
		t.Fatalf("misses = %d, want 10 (8 + 1 + 1)", s.Misses)
	}
}

func TestPartialLoadTailFetch(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PartialLoad: true})
	// Miss at word 4 of a block: fetch words 4..15 (12 words).
	c.Run(run(16, 4))
	s := c.Stats()
	if s.Misses != 1 || s.MemWords != 12 {
		t.Fatalf("partial tail fetch: %+v", s)
	}
	// Words 4..15 now valid: sequential continuation hits.
	c.Run(run(20, 44))
	if c.Stats().Misses != 1 {
		t.Fatal("valid tail missed")
	}
	// Word 0..3 still invalid: fetch stops at first valid word (4).
	c.Run(run(0, 4))
	s = c.Stats()
	if s.Misses != 2 || s.MemWords != 16 {
		t.Fatalf("head fetch should stop at valid word: %+v", s)
	}
}

func TestPartialLoadWholeBlockMiss(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PartialLoad: true})
	c.Run(run(0, 64))
	s := c.Stats()
	if s.Misses != 1 || s.MemWords != 16 {
		t.Fatalf("partial full-block run: %+v", s)
	}
}

func TestAvgFetchAndExec(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PartialLoad: true})
	// Run of 8 words starting at word 4 of block 0: one miss at
	// position 0, 12 words fetched, 8 words executed to run end.
	c.Run(run(16, 32))
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d", s.Misses)
	}
	if got := s.AvgFetchWords(); got != 12 {
		t.Fatalf("AvgFetchWords = %v, want 12", got)
	}
	if s.ExecRuns != 1 || s.ExecWords != 8 {
		t.Fatalf("exec runs/words = %d/%d, want 1/8", s.ExecRuns, s.ExecWords)
	}
}

func TestExecRunSplitByMidRunMiss(t *testing.T) {
	// Whole-block cache, run spanning two blocks: miss at word 0
	// (block 0) and word 16 (block 1). Exec runs: 16 and 16.
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	c.Run(run(0, 128))
	s := c.Stats()
	if s.ExecRuns != 2 || s.ExecWords != 32 {
		t.Fatalf("exec = %d/%d, want 2/32", s.ExecRuns, s.ExecWords)
	}
	if got := s.AvgExecWords(); got != 16 {
		t.Fatalf("AvgExecWords = %v, want 16", got)
	}
}

func TestNoExecRunWithoutMiss(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	c.Run(run(0, 64))
	c.Run(run(0, 64)) // pure hits: no exec run recorded
	if c.Stats().ExecRuns != 1 {
		t.Fatalf("ExecRuns = %d, want 1", c.Stats().ExecRuns)
	}
}

func TestReset(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	c.Run(run(0, 64))
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Fatal("stats not cleared")
	}
	c.Run(run(0, 4))
	if c.Stats().Misses != 1 {
		t.Fatal("contents not cleared")
	}
}

func TestZeroStatsRatios(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 || s.TrafficRatio() != 0 || s.AvgFetchWords() != 0 || s.AvgExecWords() != 0 {
		t.Fatal("zero stats produced non-zero ratios")
	}
}

// randomTrace builds a reproducible trace with loop-like reuse.
func randomTrace(seed uint64, runs int) *memtrace.Trace {
	r := xrand.New(seed)
	var tr memtrace.Trace
	hot := uint32(r.Intn(64)) * 64
	for i := 0; i < runs; i++ {
		if r.Bool(0.7) {
			tr.Run(run(hot+uint32(r.Intn(8))*4, uint32(r.IntRange(1, 32))*4))
		} else {
			tr.Run(run(uint32(r.Intn(2048))*4, uint32(r.IntRange(1, 16))*4))
		}
	}
	return &tr
}

// TestMissesNeverExceedAccesses is a basic sanity property across all
// organisations.
func TestMissesNeverExceedAccesses(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 512, BlockBytes: 16, Assoc: 1},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true},
		{SizeBytes: 1024, BlockBytes: 32, Assoc: 4},
	}
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 200)
		for _, cfg := range cfgs {
			s, err := Simulate(cfg, tr)
			if err != nil {
				return false
			}
			if s.Misses > s.Accesses || s.Accesses != tr.Instrs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestInclusionProperty: for fully associative LRU caches with the same
// block size, a larger cache never misses more on the same trace.
func TestInclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 300)
		var prev uint64
		for _, size := range []int{4096, 2048, 1024, 512} {
			s, err := Simulate(Config{SizeBytes: size, BlockBytes: 64, Assoc: 0}, tr)
			if err != nil {
				return false
			}
			// Sizes shrink, so misses must not decrease.
			if s.Misses < prev {
				return false
			}
			prev = s.Misses
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSectoredTrafficNeverExceedsWholeBlock: fetching sectors can only
// reduce words transferred relative to whole blocks on the same trace.
func TestSectoredTrafficNeverExceedsWholeBlock(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 300)
		whole, err := Simulate(Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}, tr)
		if err != nil {
			return false
		}
		sect, err := Simulate(Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8}, tr)
		if err != nil {
			return false
		}
		return sect.MemWords <= whole.MemWords && sect.Misses >= whole.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialTrafficNeverExceedsWholeBlock: partial loading fetches a
// subset of each missing block.
func TestPartialTrafficNeverExceedsWholeBlock(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 300)
		whole, err := Simulate(Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}, tr)
		if err != nil {
			return false
		}
		part, err := Simulate(Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true}, tr)
		if err != nil {
			return false
		}
		return part.MemWords <= whole.MemWords && part.Misses >= whole.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAssocOneEqualsDirectMapped: Assoc==1 through the generic code
// must behave identically to a conceptual direct-mapped cache; we
// cross-check against an independent map-based model.
func TestAgainstReferenceModel(t *testing.T) {
	cfg := Config{SizeBytes: 1024, BlockBytes: 32, Assoc: 1}
	numSets := uint32(cfg.SizeBytes / cfg.BlockBytes)
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 200)
		got, err := Simulate(cfg, tr)
		if err != nil {
			return false
		}
		// Reference: per-word direct-mapped simulation.
		tags := make(map[uint32]uint32)
		valid := make(map[uint32]bool)
		var misses, accesses uint64
		for _, r := range tr.Runs {
			for w := r.Addr / 4; w < (r.Addr+r.Bytes)/4; w++ {
				accesses++
				mb := w / 8 // 32B block = 8 words
				set := mb % numSets
				tag := mb / numSets
				if !valid[set] || tags[set] != tag {
					misses++
					valid[set] = true
					tags[set] = tag
				}
			}
		}
		return got.Misses == misses && got.Accesses == accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, err := Simulate(Config{SizeBytes: 7}, &memtrace.Trace{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

// TestResetReseedsRandomReplacement pins the fix for a bug where Reset
// cleared the cache contents but left the random-replacement RNG
// mid-stream, so a reused cache diverged from a fresh one on the same
// trace.
func TestResetReseedsRandomReplacement(t *testing.T) {
	cfg := Config{SizeBytes: 512, BlockBytes: 64, Assoc: 4, Replacement: RandomRepl}
	tr := randomTrace(42, 400)

	fresh := mustNew(t, cfg)
	tr.Replay(fresh)
	want := fresh.Stats()

	reused := mustNew(t, cfg)
	tr.Replay(reused) // advance the rng stream
	reused.Reset()
	tr.Replay(reused)
	if got := reused.Stats(); got != want {
		t.Errorf("after Reset: %+v, fresh cache: %+v", got, want)
	}
}

// TestRunOverflowSaturates pins the fix for a bug where a run whose
// Addr+Bytes exceeded the 32-bit address space wrapped the word range
// and silently dropped the run (w1 < w0).
func TestRunOverflowSaturates(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	// 8 words nominally, but only 4 fit below 2^32; the rest saturate.
	c.Run(run(0xFFFFFFF0, 0x20))
	s := c.Stats()
	if s.Accesses != 4 {
		t.Fatalf("Accesses = %d, want 4 (overflowing tail must saturate, not wrap)", s.Accesses)
	}
	if s.Misses != 1 || s.MemWords != 16 {
		t.Fatalf("stats after saturated run: %+v", s)
	}
	// A run starting exactly at the top of the address space is empty.
	c.Run(run(0xFFFFFFFC, 4))
	if got := c.Stats().Accesses; got != 5 {
		t.Fatalf("Accesses = %d, want 5", got)
	}
}

// TestRunsMergeWithoutWrapping: every merging sink keeps apart a run
// ending at the 32-bit top and a run at address 0, and two runs whose
// joined length would not fit in 32 bits, so a Writer's file reads
// back and the cache sees every word of the wrapping pair.
func TestRunsMergeWithoutWrapping(t *testing.T) {
	for _, pair := range [][]memtrace.Run{
		{run(0xFFFFFFF0, 16), run(0, 16)},
		{run(0, 1<<31), run(1<<31, 1<<31)},
	} {
		var tr, merged, read memtrace.Trace
		var buf memtrace.Buffer
		var file bytes.Buffer
		m := memtrace.NewMerger(&merged)
		w := memtrace.NewWriter(&file)
		for _, r := range pair {
			tr.Run(r)
			buf.Run(r)
			m.Run(r)
			w.Run(r)
		}
		m.Flush()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := memtrace.NewReader(&file)
		if err != nil {
			t.Fatal(err)
		}
		if err := rd.Replay(&read); err != nil {
			t.Fatalf("%v: reading the written trace: %v", pair, err)
		}
		want := uint64(pair[0].Words() + pair[1].Words())
		for _, sink := range []struct {
			name string
			tr   *memtrace.Trace
		}{{"Trace", &tr}, {"Buffer", buf.Seal()}, {"Merger", &merged}, {"Writer", &read}} {
			if !slices.Equal(sink.tr.Runs, pair) || sink.tr.Instrs != want {
				t.Errorf("%s: runs %v, %d instructions; want %v, %d", sink.name, sink.tr.Runs, sink.tr.Instrs, pair, want)
			}
		}
	}
	var tr memtrace.Trace
	tr.Run(run(0xFFFFFFF0, 16))
	tr.Run(run(0, 16))
	s, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.Accesses != 8 {
		t.Errorf("Simulate counted %d accesses, want 8", s.Accesses)
	}
}

// TestMultiSimulateMatchesSimulate checks multi-simulation, one
// SinkSimulator replaying a materialized trace for many organisations,
// against the sequential simulator on three traces, across the full
// organisation matrix of broadcastConfigs.
func TestMultiSimulateMatchesSimulate(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		tr := randomTrace(seed, 500)
		s, err := NewSinkSimulator(broadcastConfigs...)
		if err != nil {
			t.Fatal(err)
		}
		tr.Replay(s)
		got := s.Stats()
		for i, cfg := range broadcastConfigs {
			want, err := Simulate(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("seed %d, %v: multi %+v, sequential %+v", seed, cfg, got[i], want)
			}
		}
	}
}

// TestMultiSimulateRejectsBadConfig checks that one invalid
// organisation rejects the whole multi-simulation with its Validate
// error, wherever it sits in the list.
func TestMultiSimulateRejectsBadConfig(t *testing.T) {
	for _, bad := range [][]Config{
		{{SizeBytes: 100, BlockBytes: 64}},
		{{SizeBytes: 1024, BlockBytes: 64}, {SizeBytes: 7}},
	} {
		s, err := NewSinkSimulator(bad...)
		want := bad[len(bad)-1].Validate()
		if err == nil || s != nil || err.Error() != want.Error() {
			t.Errorf("NewSinkSimulator(%v) = %v, %v; want nil and %q", bad, s, err, want)
		}
	}
}

// TestShardSimulateMatchesSimulate pins the deprecated forward: every
// worker count yields exactly the serial statistics, and a bad
// configuration is still rejected.
func TestShardSimulateMatchesSimulate(t *testing.T) {
	tr := randomTrace(1, 3000)
	for _, cfg := range []Config{
		{SizeBytes: 8192, BlockBytes: 32, Assoc: 1},
		{SizeBytes: 4096, BlockBytes: 64, Assoc: 4, Replacement: FIFO},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &TimingConfig{InitialLatency: 8}},
	} {
		want, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4} {
			got, err := ShardSimulate(cfg, tr, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v workers=%d: %+v, serial %+v", cfg, workers, got, want)
			}
		}
	}
	if _, err := ShardSimulate(Config{SizeBytes: 100, BlockBytes: 64}, tr, 4); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestDirectMappedFastPathTiming pins the direct-mapped fast path's
// timing integration: a timed DM config flows through the same runDM
// loop, so its stats minus stalls must equal the untimed run exactly.
func TestDirectMappedFastPathTiming(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		tr := randomTrace(seed, 600)
		dm, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 32, Assoc: 1}, tr)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := Simulate(Config{SizeBytes: 1024, BlockBytes: 32, Assoc: 1,
			Timing: &TimingConfig{InitialLatency: 4}}, tr)
		if err != nil {
			t.Fatal(err)
		}
		timed.StallCycles = 0
		if dm != timed {
			t.Errorf("seed %d: untimed %+v, timed-minus-stalls %+v", seed, dm, timed)
		}
	}
}
