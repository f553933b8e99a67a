package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"impact/internal/memtrace"
)

// Forest simulates many direct-mapped whole-block organisations from
// one run stream, in one walk: Hill and Smith's forest simulation
// ("Evaluating Associativity in CPU Caches", IEEE Trans. Computers,
// 1989). Under bit-selection indexing a direct-mapped cache holds a
// subset of every larger direct-mapped cache with the same block size,
// so one probe chain per block, smallest size first, serves every
// size: each level that misses is filled, and the first hit ends the
// chain, because a direct-mapped hit changes no state and every larger
// level hits too.
//
// The organisations are grouped into one tree per block size, whose
// levels are the distinct sizes in ascending order. A level's lines
// are the tags plus one (0 is an invalid line), and an address
// decomposes by shift and mask. The paper's avg.exec telescopes as in
// the stack pass (internal/cache/sweep): a level's exec runs within one
// canonical run sum to the run's words from its first miss there, so
// the first miss at a level adds the run's remaining words to it.
//
// Runs must arrive in canonical form, as for SinkSimulator: the
// execution engine, Trace.Replay, memtrace.Reader and memtrace.Merger
// deliver it. The statistics equal Simulate's on the same stream.
type Forest struct {
	trees []forestTree
	// at[i] is the tree and level measuring input organisation i.
	at       []forestRef
	accesses uint64
	recorded bool
}

// forestTree is the levels of one block size, smallest first.
type forestTree struct {
	blockShift uint32
	blockWords uint32
	levels     []forestLevel
}

// forestLevel is one direct-mapped size of a tree.
type forestLevel struct {
	// tags holds each set's tag plus one; 0 is an invalid line.
	tags              []uint32
	setShift, setMask uint32
	misses, execWords uint64
}

type forestRef struct{ tree, level int }

// NewForest returns a forest over fresh caches, one level per distinct
// (block, size) of cfgs. Every organisation must be valid, one way per
// set, with whole-block fill and no prefetch or timing model; its
// replacement policy is irrelevant, since a single-way set never
// consults it.
func NewForest(cfgs ...Config) (*Forest, error) {
	type level struct{ block, size int }
	levels := make([]level, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		ways := cfg.Assoc
		if ways == 0 {
			ways = cfg.SizeBytes / cfg.BlockBytes
		}
		if ways != 1 || cfg.SectorBytes != 0 || cfg.PartialLoad || cfg.PrefetchNext || cfg.Timing != nil {
			return nil, fmt.Errorf("cache: forest needs direct-mapped whole-block organisations without prefetch or timing, not %v", cfg)
		}
		levels[i] = level{cfg.BlockBytes, cfg.SizeBytes}
	}
	sorted := append([]level(nil), levels...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		return a.block < b.block || a.block == b.block && a.size < b.size
	})
	f := &Forest{at: make([]forestRef, len(cfgs))}
	index := make(map[level]forestRef)
	for k, l := range sorted {
		if k > 0 && l == sorted[k-1] {
			continue
		}
		blockWords := uint32(l.block / WordBytes)
		if n := len(f.trees); n == 0 || f.trees[n-1].blockWords != blockWords {
			f.trees = append(f.trees, forestTree{
				blockShift: uint32(bits.TrailingZeros32(blockWords)),
				blockWords: blockWords,
			})
		}
		t := len(f.trees) - 1
		sets := uint32(l.size / l.block)
		index[l] = forestRef{t, len(f.trees[t].levels)}
		f.trees[t].levels = append(f.trees[t].levels, forestLevel{
			tags:     make([]uint32, sets),
			setShift: uint32(bits.TrailingZeros32(sets)),
			setMask:  sets - 1,
		})
	}
	for i, l := range levels {
		f.at[i] = index[l]
	}
	return f, nil
}

// Run feeds one canonical run to every tree.
func (f *Forest) Run(r memtrace.Run) {
	w0, w1 := r.WordRange()
	if w1 <= w0 {
		return
	}
	f.accesses += uint64(w1 - w0)
	for t := range f.trees {
		f.trees[t].run(w0, w1)
	}
}

// run walks the blocks of words [w0, w1), one run, through the tree.
// covered counts the levels that have missed earlier in the run:
// inclusion makes them a prefix of the levels, and a miss past it is
// that level's first in the run.
func (t *forestTree) run(w0, w1 uint32) {
	levels := t.levels
	covered := 0
	last := (w1 - 1) >> t.blockShift
	for mb := w0 >> t.blockShift; mb <= last; mb++ {
		for k := range levels {
			lv := &levels[k]
			tag := mb>>lv.setShift + 1
			set := &lv.tags[mb&lv.setMask]
			if *set == tag {
				break
			}
			*set = tag
			lv.misses++
			if k >= covered {
				lv.execWords += uint64(w1 - max(mb<<t.blockShift, w0))
				covered = k + 1
			}
		}
	}
}

// Stats returns the per-configuration statistics in input order. Call
// it once the stream has ended; the first call folds each organisation
// into the attached observation registry, as SinkSimulator does (later
// calls only read).
func (f *Forest) Stats() []Stats {
	out := make([]Stats, len(f.at))
	for i, ref := range f.at {
		t := &f.trees[ref.tree]
		lv := &t.levels[ref.level]
		out[i] = Stats{
			Accesses:  f.accesses,
			Misses:    lv.misses,
			MemWords:  lv.misses * uint64(t.blockWords),
			ExecRuns:  lv.misses,
			ExecWords: lv.execWords,
		}
		if !f.recorded {
			record(out[i])
		}
	}
	f.recorded = true
	return out
}
