// Package cache is a trace-driven instruction cache simulator.
//
// It reproduces the measurement methodology of the paper's section 4:
// the entire instruction-fetch trace of a program is applied to a cache
// model and two ratios are reported — the miss ratio (cache misses per
// instruction access) and the memory traffic ratio (4-byte words
// fetched from memory per instruction access).
//
// Supported organisations cover everything the paper measures:
//
//   - direct-mapped and N-way set-associative caches with LRU
//     replacement, including fully associative (the Smith design-target
//     organisation of Table 1);
//   - whole-block fill (Tables 6 and 7);
//   - block sectoring: on a miss only the accessed sector is fetched
//     (Table 8, "sector");
//   - partial loading: on a miss the block is filled from the accessed
//     word to the end of the block or to a previously loaded valid
//     word, with per-word valid bits (Table 8, "partial"; Table 9).
//
// The simulator consumes traces in sequential-run form (see
// internal/memtrace) and is exact: it observes the same per-word
// access stream a flat per-instruction simulator would. Simulate runs
// one Cache per organisation and SinkSimulator several from one run
// stream; Forest measures many direct-mapped whole-block sizes in one
// walk, with statistics equal to Simulate's.
package cache

import (
	"fmt"
	"math/bits"

	"impact/internal/memtrace"
	"impact/internal/xrand"
)

// WordBytes is the fetch granularity: one 4-byte instruction.
const WordBytes = memtrace.WordBytes

// Config describes a cache organisation.
type Config struct {
	// SizeBytes is the data store capacity. Must be a power of two no
	// larger than 1<<31.
	SizeBytes int
	// BlockBytes is the cache block (line) size. Must be a power of
	// two, at least WordBytes, at most 256 (64 words), and divide
	// SizeBytes.
	BlockBytes int
	// Assoc is the set associativity: 1 is direct-mapped; 0 means
	// fully associative. Must divide SizeBytes/BlockBytes.
	Assoc int
	// Replacement selects the victim policy for associative sets;
	// direct-mapped caches ignore it. Default LRU.
	Replacement Replacement
	// SectorBytes, when non-zero, divides each block into sectors and
	// fetches only the accessed sector on a miss. Must be a power of
	// two dividing BlockBytes. Mutually exclusive with PartialLoad.
	SectorBytes int
	// PartialLoad, when true, fills a missing block from the accessed
	// word to the end of the block or to a valid word previously
	// loaded. Mutually exclusive with SectorBytes.
	PartialLoad bool
	// PrefetchNext, when true, also fetches the next sequential memory
	// block on every demand miss (prefetch-on-miss, the classic
	// instruction-buffer technique of the VAX-11/780 the paper's
	// introduction discusses). Whole-block fill only.
	PrefetchNext bool
	// Timing, when non-nil, enables the cycle model of the paper's
	// section 4.2.1 (see TimingConfig); Stats.StallCycles and
	// Stats.EffectiveAccessTime become meaningful. Prefetch transfers
	// are assumed to overlap execution and add no stalls.
	Timing *TimingConfig
}

// Replacement selects a victim policy.
type Replacement uint8

const (
	// LRU evicts the least recently used way (the paper's baseline
	// and the policy of Smith's design-target studies).
	LRU Replacement = iota
	// FIFO evicts the oldest-loaded way regardless of use.
	FIFO
	// RandomRepl evicts a pseudo-random way (deterministically seeded,
	// so simulations stay reproducible).
	RandomRepl

	numReplacements
)

var replacementNames = [numReplacements]string{"lru", "fifo", "rand"}

func (r Replacement) String() string {
	if int(r) < len(replacementNames) {
		return replacementNames[r]
	}
	return fmt.Sprintf("replacement(%d)", uint8(r))
}

// TimingConfig models the memory system assumptions of the paper's
// section 4.2.1: "the memory or secondary cache is interleaved and can
// deliver one data per cycle after the initial access delay", the word
// that missed is delivered first (load forwarding), the processor
// resumes as soon as it arrives (early continuation), and sequential
// fetches during block repair stream from the memory bus. "For a taken
// branch before the block is completely filled, the CPU is stalled
// until the block is completely transferred."
type TimingConfig struct {
	// InitialLatency is the memory access delay in cycles before the
	// first word arrives.
	InitialLatency int
	// CriticalWordFirst applies load forwarding. When false, the
	// block is repaired front to back and the CPU additionally stalls
	// for the words in front of the missed one (the paper estimates
	// this at about half a block per miss).
	CriticalWordFirst bool
}

// maxBytes is the largest cache size Validate accepts: the largest
// power of two a uint32 holds, the width of the simulator's and the
// analyzer's line and set arithmetic.
const maxBytes int64 = 1 << 31

// Validate checks cfg and returns a descriptive error if it is not a
// simulatable organisation.
func (cfg Config) Validate() error {
	if cfg.SizeBytes <= 0 || cfg.SizeBytes&(cfg.SizeBytes-1) != 0 {
		return fmt.Errorf("cache: size %d is not a positive power of two", cfg.SizeBytes)
	}
	if int64(cfg.SizeBytes) > maxBytes {
		return fmt.Errorf("cache: size %d exceeds %d bytes", cfg.SizeBytes, maxBytes)
	}
	if cfg.BlockBytes < WordBytes || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d is not a power of two >= %d", cfg.BlockBytes, WordBytes)
	}
	if cfg.BlockBytes > 64*WordBytes {
		return fmt.Errorf("cache: block size %d exceeds %d bytes", cfg.BlockBytes, 64*WordBytes)
	}
	if cfg.BlockBytes > cfg.SizeBytes {
		return fmt.Errorf("cache: block size %d exceeds cache size %d", cfg.BlockBytes, cfg.SizeBytes)
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = blocks
	}
	if assoc < 0 || assoc > blocks || blocks%assoc != 0 {
		return fmt.Errorf("cache: associativity %d incompatible with %d blocks", cfg.Assoc, blocks)
	}
	if cfg.Timing != nil && cfg.Timing.InitialLatency < 0 {
		return fmt.Errorf("cache: negative initial latency %d", cfg.Timing.InitialLatency)
	}
	if cfg.Replacement >= numReplacements {
		return fmt.Errorf("cache: unknown replacement policy %d", cfg.Replacement)
	}
	if cfg.PrefetchNext && (cfg.SectorBytes != 0 || cfg.PartialLoad) {
		return fmt.Errorf("cache: prefetch requires whole-block fill")
	}
	if cfg.SectorBytes != 0 {
		if cfg.PartialLoad {
			return fmt.Errorf("cache: sectoring and partial loading are mutually exclusive")
		}
		if cfg.SectorBytes < WordBytes || cfg.SectorBytes&(cfg.SectorBytes-1) != 0 ||
			cfg.SectorBytes > cfg.BlockBytes || cfg.BlockBytes%cfg.SectorBytes != 0 {
			return fmt.Errorf("cache: sector size %d incompatible with block size %d", cfg.SectorBytes, cfg.BlockBytes)
		}
	}
	return nil
}

// String renders the organisation compactly, e.g. "2048B/64B dm" or
// "2048B/64B full sector=8".
func (cfg Config) String() string {
	s := fmt.Sprintf("%dB/%dB", cfg.SizeBytes, cfg.BlockBytes)
	switch {
	case cfg.Assoc == 0, cfg.Assoc == cfg.SizeBytes/cfg.BlockBytes:
		s += " full"
	case cfg.Assoc == 1:
		s += " dm"
	default:
		s += fmt.Sprintf(" %dway", cfg.Assoc)
	}
	if cfg.Replacement != LRU {
		s += " " + cfg.Replacement.String()
	}
	if cfg.SectorBytes != 0 {
		s += fmt.Sprintf(" sector=%d", cfg.SectorBytes)
	}
	if cfg.PartialLoad {
		s += " partial"
	}
	if cfg.PrefetchNext {
		s += " prefetch"
	}
	return s
}

// Stats accumulates simulation results.
type Stats struct {
	// Accesses is the number of instruction fetches observed.
	Accesses uint64
	// Misses is the number of fetches that required going to memory.
	Misses uint64
	// MemWords is the number of 4-byte words transferred from memory.
	MemWords uint64
	// ExecRuns / ExecWords measure the paper's avg.exec: the number of
	// consecutive instructions used starting at a cache miss until a
	// taken branch (end of sequential run) or another miss.
	ExecRuns  uint64
	ExecWords uint64
	// StallCycles is the total processor stall attributable to the
	// memory system under the configured TimingConfig: initial access
	// latencies, front-of-block repair when load forwarding is off,
	// and taken-branch waits for incomplete block fills.
	StallCycles uint64
	// Prefetches counts next-block prefetch transfers issued;
	// PrefetchUsed counts prefetched blocks that were later accessed
	// before eviction (prefetch accuracy = PrefetchUsed/Prefetches).
	Prefetches   uint64
	PrefetchUsed uint64
}

// PrefetchAccuracy returns the fraction of prefetched blocks that were
// referenced before being evicted.
func (s Stats) PrefetchAccuracy() float64 {
	if s.Prefetches == 0 {
		return 0
	}
	return float64(s.PrefetchUsed) / float64(s.Prefetches)
}

// Cycles returns the modelled total execution cycles: one cycle per
// instruction fetch plus all memory stalls.
func (s Stats) Cycles() uint64 { return s.Accesses + s.StallCycles }

// EffectiveAccessTime returns the modelled cycles per instruction
// fetch (1.0 means every fetch hit).
func (s Stats) EffectiveAccessTime() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Cycles()) / float64(s.Accesses)
}

// MissRatio returns Misses / Accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// TrafficRatio returns MemWords / Accesses — the paper's "ratio of the
// number of main memory accesses over the number of dynamic
// instruction accesses".
func (s Stats) TrafficRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.MemWords) / float64(s.Accesses)
}

// AvgFetchWords returns the average number of words fetched per miss
// (the paper's avg.fetch, in 4-byte entities).
func (s Stats) AvgFetchWords() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.MemWords) / float64(s.Misses)
}

// AvgExecWords returns the average number of consecutive instructions
// used from a miss point to a taken branch or the next miss (the
// paper's avg.exec).
func (s Stats) AvgExecWords() float64 {
	if s.ExecRuns == 0 {
		return 0
	}
	return float64(s.ExecWords) / float64(s.ExecRuns)
}

type line struct {
	tag uint32
	// mask has one bit per word of the block; 0 means the line is
	// invalid. Whole-block mode uses all-ones or zero.
	mask  uint64
	stamp uint64
	// pref marks a line brought in by prefetch and not yet accessed.
	pref bool
}

// Cache simulates one cache organisation. It implements memtrace.Sink,
// so a trace can be replayed straight into it.
type Cache struct {
	cfg        Config
	sets       [][]line
	numSets    uint32
	blockWords uint32
	fullMask   uint64
	sectorWds  uint32
	clock      uint64
	stats      Stats
	// dm aliases the sets' backing array when the organisation is
	// direct-mapped with whole-block fill, so Run takes runDM, which
	// skips the way scan and the replacement bookkeeping.
	dm []line
	// blockShift, setShift and setMask decompose a word address by
	// shift and mask for runDM: block and set counts are powers of two.
	blockShift, setShift, setMask uint32

	// exec-run tracking (avg.exec) and timing
	execOpen  bool
	execStart uint64 // absolute word position within the current run
	// pendingFetch is the transfer size (words) of the open miss's
	// repair, for the taken-branch stall of the timing model.
	pendingFetch uint32
	// rng drives RandomRepl victim choice, deterministically seeded.
	rng *xrand.RNG
	// fetchSink, when set, receives every memory transfer this cache
	// issues (demand fetches and prefetches) as address runs — the
	// hook a second-level cache attaches to.
	fetchSink memtrace.Sink
}

// SetFetchSink routes this cache's memory transfers to sink. Used by
// Hierarchy to stack caches; see hierarchy.go.
func (c *Cache) SetFetchSink(sink memtrace.Sink) { c.fetchSink = sink }

// emitFetch reports one memory transfer to the fetch sink.
func (c *Cache) emitFetch(wordAddr, words uint32) {
	if c.fetchSink != nil && words > 0 {
		c.fetchSink.Run(memtrace.Run{Addr: wordAddr * WordBytes, Bytes: words * WordBytes})
	}
}

// newCache returns a cache for cfg. The cache starts cold (all invalid).
func newCache(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = blocks
	}
	c := &Cache{
		cfg:        cfg,
		numSets:    uint32(blocks / assoc),
		blockWords: uint32(cfg.BlockBytes / WordBytes),
	}
	c.blockShift = uint32(bits.TrailingZeros32(c.blockWords))
	c.setShift = uint32(bits.TrailingZeros32(c.numSets))
	c.setMask = c.numSets - 1
	if c.blockWords == 64 {
		c.fullMask = ^uint64(0)
	} else {
		c.fullMask = (uint64(1) << c.blockWords) - 1
	}
	if cfg.SectorBytes != 0 {
		c.sectorWds = uint32(cfg.SectorBytes / WordBytes)
	}
	c.sets = make([][]line, c.numSets)
	backing := make([]line, int(c.numSets)*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	if assoc == 1 && cfg.SectorBytes == 0 && !cfg.PartialLoad {
		c.dm = backing
	}
	if cfg.Replacement == RandomRepl {
		c.rng = xrand.New(randomReplSeed)
	}
	return c, nil
}

// randomReplSeed seeds the RandomRepl victim stream; fixed so
// simulations are reproducible, and reapplied by Reset so a reused
// cache replays the identical stream a fresh one would.
const randomReplSeed = 0x5eed

// Config returns the simulated organisation.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears the cache contents and statistics.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
	c.execOpen = false
	c.pendingFetch = 0
	if c.cfg.Replacement == RandomRepl {
		c.rng = xrand.New(randomReplSeed)
	}
}

// lookup returns the way holding tag in set, or nil.
func (c *Cache) lookup(set []line, tag uint32) *line {
	for i := range set {
		if set[i].mask != 0 && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// victim returns the way to evict from set, preferring invalid ways.
// LRU and FIFO both pick the lowest stamp; they differ in when stamps
// are refreshed (every access vs insertion only).
func (c *Cache) victim(set []line) *line {
	for i := range set {
		if set[i].mask == 0 {
			return &set[i]
		}
	}
	if c.cfg.Replacement == RandomRepl {
		return &set[c.rng.Intn(len(set))]
	}
	v := &set[0]
	for i := range set {
		if set[i].stamp < v.stamp {
			v = &set[i]
		}
	}
	return v
}

// miss records a miss at absolute word position pos within the current
// run, fetching `words` memory words; frontWords counts the words the
// memory system transfers before the accessed one (zero under load
// forwarding or when the fetch starts at the accessed word).
func (c *Cache) miss(pos uint64, words, frontWords uint32) {
	c.stats.Misses++
	c.stats.MemWords += uint64(words)
	if c.execOpen {
		consumed := pos - c.execStart
		c.stats.ExecRuns++
		c.stats.ExecWords += consumed
		c.closeFetch(consumed)
	}
	c.execOpen = true
	c.execStart = pos
	if t := c.cfg.Timing; t != nil {
		c.stats.StallCycles += uint64(t.InitialLatency)
		if !t.CriticalWordFirst {
			c.stats.StallCycles += uint64(frontWords)
		}
		c.pendingFetch = words
	}
}

// closeFetch settles the timing of the open repair once the processor
// has consumed `consumed` sequential words since the miss: if control
// transferred away (or missed again) before the fill completed, the
// CPU waited for the remaining words.
func (c *Cache) closeFetch(consumed uint64) {
	if c.cfg.Timing == nil {
		return
	}
	if rem := uint64(c.pendingFetch); consumed < rem {
		c.stats.StallCycles += rem - consumed
	}
	c.pendingFetch = 0
}

// Run simulates the sequential fetch run r. A run whose end would
// overflow the 32-bit address space is saturated, not wrapped (see
// memtrace.Run.WordRange).
func (c *Cache) Run(r memtrace.Run) {
	w0, w1 := r.WordRange()
	if w1 <= w0 {
		return
	}
	c.stats.Accesses += uint64(w1 - w0)

	if c.dm != nil {
		c.runDM(w0, w1)
	} else {
		for w := w0; w < w1; {
			mb := w / c.blockWords // memory block index
			// Words of this run that fall in memory block mb: [w, gEnd).
			gEnd := (mb + 1) * c.blockWords
			if gEnd > w1 {
				gEnd = w1
			}
			c.accessGroup(mb, w, gEnd, w0)
			w = gEnd
		}
	}

	// End of sequential run: a taken branch closes any open exec run.
	if c.execOpen {
		consumed := uint64(w1-w0) - c.execStart
		c.stats.ExecRuns++
		c.stats.ExecWords += consumed
		c.closeFetch(consumed)
		c.execOpen = false
	}
}

// prefetch brings memory block mb into the cache if absent, without
// counting a miss or an access.
func (c *Cache) prefetch(mb uint32) {
	set := c.sets[mb%c.numSets]
	tag := mb / c.numSets
	if c.lookup(set, tag) != nil {
		return
	}
	ln := c.victim(set)
	ln.tag = tag
	ln.mask = c.fullMask
	ln.pref = true
	ln.stamp = c.clock
	c.stats.Prefetches++
	c.stats.MemWords += uint64(c.blockWords)
	c.emitFetch(mb*c.blockWords, c.blockWords)
}

// runDM simulates the fetches of words [w0, w1), one run, in a
// direct-mapped cache with whole-block fill: one line per set, so
// there is no way scan, no victim choice and no replacement
// bookkeeping, and a hit only settles a prefetched line. Plain, timed,
// prefetching and hierarchy first-level direct-mapped caches all take
// this loop. It must stay statistically identical to accessGroup for
// the same organisation (the differential tests in reference_test.go
// and internal/cache/sweep pin this); the LRU/FIFO stamps are skipped
// because a single-way set never consults them.
func (c *Cache) runDM(w0, w1 uint32) {
	last := (w1 - 1) >> c.blockShift
	for mb := w0 >> c.blockShift; mb <= last; mb++ {
		ln := &c.dm[mb&c.setMask]
		tag := mb >> c.setShift
		if ln.mask != 0 && ln.tag == tag {
			if ln.pref {
				ln.pref = false
				c.stats.PrefetchUsed++
			}
			continue
		}
		ln.tag = tag
		ln.mask = c.fullMask
		ln.pref = false
		// The run enters its first block at w0, every later one at the
		// block head.
		gw0 := max(mb<<c.blockShift, w0)
		c.miss(uint64(gw0-w0), c.blockWords, gw0&(c.blockWords-1))
		c.emitFetch(mb<<c.blockShift, c.blockWords)
		if c.cfg.PrefetchNext {
			c.prefetch(mb + 1)
		}
	}
}

// accessGroup simulates the fetches of words [gw0, gEnd) that all fall
// in memory block mb; runW0 is the run's first word (for positions).
func (c *Cache) accessGroup(mb, gw0, gEnd, runW0 uint32) {
	set := c.sets[mb%c.numSets]
	tag := mb / c.numSets
	c.clock++

	ln := c.lookup(set, tag)
	if ln != nil && ln.pref {
		ln.pref = false
		c.stats.PrefetchUsed++
	}
	switch {
	case c.cfg.SectorBytes != 0:
		if ln == nil {
			ln = c.victim(set)
			ln.tag = tag
			ln.mask = 0
			ln.stamp = 0
		}
		// Walk the touched sectors; each invalid sector is one miss
		// fetching exactly that sector.
		for w := gw0; w < gEnd; {
			sec := (w % c.blockWords) / c.sectorWds
			secLo := sec * c.sectorWds
			secMask := ((uint64(1) << c.sectorWds) - 1) << secLo
			secEnd := mb*c.blockWords + secLo + c.sectorWds
			if secEnd > gEnd {
				secEnd = gEnd
			}
			if ln.mask&secMask != secMask {
				c.miss(uint64(w-runW0), c.sectorWds, 0)
				c.emitFetch(mb*c.blockWords+secLo, c.sectorWds)
				ln.mask |= secMask
			}
			w = secEnd
		}

	case c.cfg.PartialLoad:
		if ln == nil {
			ln = c.victim(set)
			ln.tag = tag
			ln.mask = 0
			ln.stamp = 0
		}
		for w := gw0; w < gEnd; w++ {
			bit := uint64(1) << (w % c.blockWords)
			if ln.mask&bit != 0 {
				continue
			}
			// Miss: fetch from w to end of block or first valid word.
			fetched := uint32(0)
			for v := w % c.blockWords; v < c.blockWords; v++ {
				vb := uint64(1) << v
				if ln.mask&vb != 0 {
					break
				}
				ln.mask |= vb
				fetched++
			}
			c.miss(uint64(w-runW0), fetched, 0)
			c.emitFetch(w, fetched)
		}

	default: // whole-block fill
		if ln == nil {
			ln = c.victim(set)
			ln.tag = tag
			ln.mask = c.fullMask
			ln.pref = false
			ln.stamp = 0
			// Without load forwarding the repair starts at the block
			// head; the words in front of the accessed one stall the
			// CPU.
			c.miss(uint64(gw0-runW0), c.blockWords, gw0%c.blockWords)
			c.emitFetch(mb*c.blockWords, c.blockWords)
			if c.cfg.PrefetchNext {
				c.prefetch(mb + 1)
			}
		}
	}
	if c.cfg.Replacement == LRU {
		ln.stamp = c.clock
	} else if ln.stamp == 0 {
		// FIFO/random: stamp records insertion order only. A zero
		// stamp means the line was (re)filled in this access.
		ln.stamp = c.clock
	}
}

// Simulate replays an entire trace into a fresh cache and returns the
// statistics.
func Simulate(cfg Config, tr *memtrace.Trace) (Stats, error) {
	c, err := newCache(cfg)
	if err != nil {
		return Stats{}, err
	}
	tr.Replay(c)
	record(c.Stats())
	return c.Stats(), nil
}

// ShardSimulate is Simulate; workers is ignored.
//
// Deprecated: set-sharded replay was slower than the serial replay on
// the paper's traces and was removed; call Simulate.
func ShardSimulate(cfg Config, tr *memtrace.Trace, workers int) (Stats, error) {
	return Simulate(cfg, tr)
}
