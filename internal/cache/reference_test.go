package cache

// Differential testing: an independent, deliberately naive per-word
// cache model is checked against the production run-chunked simulator
// over random traces and organisations. The reference model trades all
// performance for obviousness — word-at-a-time, per-word valid bits,
// linear LRU — so any divergence points at a chunking bug in the fast
// path. It models the paper's avg.exec (an exec run opens at a miss
// and closes at the next miss or the end of the sequential run) and
// next-block prefetch on a demand miss.

import (
	"testing"
	"testing/quick"

	"impact/internal/memtrace"
	"impact/internal/xrand"
)

// refCache is the naive model.
type refCache struct {
	cfg        Config
	blockWords uint32
	numSets    uint32
	sectorWds  uint32
	sets       [][]refLine
	clock      uint64
	st         Stats
	// pos is the word position within the current run; execOpen and
	// execStart track the open exec run.
	pos       uint64
	execOpen  bool
	execStart uint64
}

type refLine struct {
	valid bool
	tag   uint32
	words []bool
	stamp uint64
	pref  bool // prefetched and not yet accessed
}

func newRef(cfg Config) *refCache {
	blocks := cfg.SizeBytes / cfg.BlockBytes
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = blocks
	}
	r := &refCache{
		cfg:        cfg,
		blockWords: uint32(cfg.BlockBytes / WordBytes),
		numSets:    uint32(blocks / assoc),
	}
	if cfg.SectorBytes != 0 {
		r.sectorWds = uint32(cfg.SectorBytes / WordBytes)
	}
	r.sets = make([][]refLine, r.numSets)
	for i := range r.sets {
		r.sets[i] = make([]refLine, assoc)
		for j := range r.sets[i] {
			r.sets[i][j].words = make([]bool, r.blockWords)
		}
	}
	return r
}

// find returns the line of set holding tag, or nil.
func (r *refCache) find(set []refLine, tag uint32) *refLine {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// install victimises set's LRU line (preferring an invalid one) and
// returns it holding tag, every word invalid.
func (r *refCache) install(set []refLine, tag uint32) *refLine {
	ln := &set[0]
	for i := range set {
		if !set[i].valid {
			ln = &set[i]
			break
		}
		if set[i].stamp < ln.stamp {
			ln = &set[i]
		}
	}
	ln.valid = true
	ln.tag = tag
	ln.pref = false
	for i := range ln.words {
		ln.words[i] = false
	}
	return ln
}

// miss counts one miss fetching words memory words at the current
// position: it closes the open exec run and opens the next.
func (r *refCache) miss(words uint32) {
	r.st.Misses++
	r.st.MemWords += uint64(words)
	if r.execOpen {
		r.st.ExecRuns++
		r.st.ExecWords += r.pos - r.execStart
	}
	r.execOpen = true
	r.execStart = r.pos
}

func (r *refCache) access(w uint32) {
	r.st.Accesses++
	mb := w / r.blockWords
	off := w % r.blockWords
	set := r.sets[mb%r.numSets]
	tag := mb / r.numSets
	r.clock++

	ln := r.find(set, tag)
	if ln == nil {
		ln = r.install(set, tag)
	}
	ln.stamp = r.clock
	if ln.pref {
		ln.pref = false
		r.st.PrefetchUsed++
	}

	switch {
	case r.cfg.SectorBytes != 0:
		if !ln.words[off] {
			r.miss(r.sectorWds)
			sec := off / r.sectorWds
			for i := sec * r.sectorWds; i < (sec+1)*r.sectorWds; i++ {
				ln.words[i] = true
			}
		}
	case r.cfg.PartialLoad:
		if !ln.words[off] {
			fetched := uint32(0)
			for i := off; i < r.blockWords && !ln.words[i]; i++ {
				ln.words[i] = true
				fetched++
			}
			r.miss(fetched)
		}
	default:
		all := true
		for _, v := range ln.words {
			all = all && v
		}
		if !all {
			r.miss(r.blockWords)
			for i := range ln.words {
				ln.words[i] = true
			}
			if r.cfg.PrefetchNext {
				r.prefetch(mb + 1)
			}
		}
	}
}

// prefetch brings memory block mb in, if absent, without a miss or an
// access; the line is marked until its first access.
func (r *refCache) prefetch(mb uint32) {
	set := r.sets[mb%r.numSets]
	tag := mb / r.numSets
	if r.find(set, tag) != nil {
		return
	}
	ln := r.install(set, tag)
	ln.stamp = r.clock
	ln.pref = true
	for i := range ln.words {
		ln.words[i] = true
	}
	r.st.Prefetches++
	r.st.MemWords += uint64(r.blockWords)
}

// run fetches the words of one run in order; its end, a taken branch,
// closes the open exec run.
func (r *refCache) run(rn memtrace.Run) {
	r.pos = 0
	for w := rn.Addr / 4; w < (rn.Addr+rn.Bytes)/4; w++ {
		r.access(w)
		r.pos++
	}
	if r.execOpen {
		r.st.ExecRuns++
		r.st.ExecWords += r.pos - r.execStart
		r.execOpen = false
	}
}

// TestDifferentialAgainstReference cross-checks every statistic but
// the timing model's stalls across random organisations and traces:
// direct-mapped caches at every block size, with and without
// next-block prefetch, set-associative, fully associative, sectored
// and partially loaded ones.
func TestDifferentialAgainstReference(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 512, BlockBytes: 64, Assoc: 2},
		{SizeBytes: 1024, BlockBytes: 32, Assoc: 0},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, SectorBytes: 16},
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PartialLoad: true},
		{SizeBytes: 2048, BlockBytes: 128, Assoc: 2, PartialLoad: true},
	}
	// Direct-mapped at 4-256 B blocks, plain and prefetching. Every
	// prefetching cache has two or more sets: with one set the
	// prefetched block would evict the block being fetched, which the
	// run-chunked simulator, one access per block per run, does not
	// re-probe and the per-word model would.
	for block := 4; block <= 256; block *= 2 {
		for _, size := range []int{block, 16 * block, 512} {
			cfg := Config{SizeBytes: size, BlockBytes: block, Assoc: 1}
			cfgs = append(cfgs, cfg)
			if size > block {
				cfg.PrefetchNext = true
				cfgs = append(cfgs, cfg)
			}
		}
	}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var tr memtrace.Trace
		hot := uint32(r.Intn(32)) * 64
		for i := 0; i < 250; i++ {
			if r.Bool(0.6) {
				tr.Run(memtrace.Run{Addr: hot + uint32(r.Intn(16))*4, Bytes: uint32(r.IntRange(1, 40)) * 4})
			} else {
				tr.Run(memtrace.Run{Addr: uint32(r.Intn(4096)) * 4, Bytes: uint32(r.IntRange(1, 20)) * 4})
			}
		}
		for _, cfg := range cfgs {
			got, err := Simulate(cfg, &tr)
			if err != nil {
				return false
			}
			ref := newRef(cfg)
			for _, rn := range tr.Runs {
				ref.run(rn)
			}
			if got != ref.st {
				t.Logf("cfg %v seed %#x: fast %+v vs ref %+v", cfg, seed, got, ref.st)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
