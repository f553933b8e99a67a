// Package sweep measures many cache organisations in as few trace
// walks as it can.
//
// The paper's evaluation replays entire execution traces once per
// cache organisation, and organisations overlap heavily across tables
// (Table 1 sweeps cache sizes at each block size, Tables 6-8 and the
// ablations revisit the 2KB/64B design point). A Plan pays the
// trace-walk cost once per *family* of organisations instead of once
// per organisation. It is the one place that decides how an
// organisation is measured; every pass is one of three kinds:
//
//   - a StackPass is Mattson's LRU stack algorithm (Mattson, Gecsei,
//     Slutz, Traiger, "Evaluation techniques for storage hierarchies",
//     IBM Systems Journal 1970): one block-granular walk produces a
//     stack-distance histogram from which the exact statistics of
//     every LRU cache with the pass's block size and set count — every
//     associativity, and therefore every capacity — are read off
//     directly. With one set it is the classic fully associative size
//     sweep of Table 1.
//   - the forest (cache.Forest) is Hill and Smith's forest simulation
//     of direct-mapped caches ("Evaluating Associativity in CPU
//     Caches", IEEE Trans. Computers, 1989): a direct-mapped cache
//     holds a subset of every larger one with the same block size, so
//     one probe chain per block, smallest size first, measures every
//     size of every block size in one walk. Table 1's direct-mapped
//     sizes are one forest per trace.
//   - the broadcast replay (cache.SinkSimulator) fans every run out to
//     one cache per remaining organisation.
//
// NewPlan groups the organisations a stack pass can derive by (block
// size, set count). A group of two or more, or a lone organisation
// wider than 8 ways, becomes one stack pass; the direct-mapped
// whole-block organisations without prefetch or timing that no stack
// pass takes share one forest; everything else shares one replay. The
// experiments engine, icsim and impact simulate all measure through a
// Plan. The measured speedups are in docs/PERFORMANCE.md.
//
// internal/paging counts page faults with a one-set StackPass whose
// block is the page (NewStackPass, MissesAt, Cold), so a pass's block
// may be as large as 1<<31 bytes; NewPlan, which validates every
// cache.Config, only builds passes at cache block sizes.
package sweep

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/memtrace"
	"impact/internal/obs"
)

// StackPass is one LRU stack pass at a fixed block size and set
// count: a memtrace.Sink that accumulates, run by run, the statistics
// of every whole-block LRU organisation with that geometry.
// Associativity A yields the cache of SizeBytes = sets * A * block.
//
// Runs MUST arrive in canonical form — zero-length runs dropped,
// contiguous neighbours merged, exactly what the execution engine,
// Trace.Replay, memtrace.Reader, or a memtrace.Merger deliver —
// because a run boundary closes an exec run; splitting one canonical
// run in two would change the avg.exec accounting.
//
// The steady-state Run path performs no allocations: per-set stacks
// and the distance histogram grow only while new blocks or new depths
// appear (see TestStreamPassZeroAlloc).
type StackPass struct {
	blockWords uint32
	sets       uint32
	// stacks holds each set's blocks, most recently used first.
	stacks [][]uint32
	// accesses counts instruction fetches (identical for every derived
	// configuration).
	accesses uint64
	// cold counts first-touch lookups (infinite stack distance); they
	// miss at every capacity.
	cold uint64
	// hist[d] counts lookups whose per-set LRU stack distance was d+1:
	// a cache with associativity A hits exactly the lookups with
	// distance <= A.
	hist []uint64
	// execDiff and execInf accumulate the paper's avg.exec numerator
	// for every associativity at once. An exec run opens at a miss and
	// closes at the next miss or the end of the sequential run, so the
	// words a run of W words contributes at associativity A telescope
	// to W - firstMissPos(A). Walking each run's lookups in order,
	// a lookup at depth D is the *first* miss exactly for the
	// associativities in (maxcov, D-1] not claimed by an earlier
	// lookup; those ranges are accumulated as difference arrays —
	// execDiff for finite ranges, execInf[lo] for cold lookups whose
	// range [lo, ∞) extends over every larger associativity.
	execDiff []int64
	execInf  []int64
}

// Run performs one stack pass over tr at the given block size and set
// count. Cost is one trace walk with a move-to-front scan per block
// lookup (the scan depth is the stack distance itself, so traces with
// locality — the only ones worth simulating — keep it shallow).
func Run(tr *memtrace.Trace, blockBytes, numSets int) (*StackPass, error) {
	p, err := NewStackPass(blockBytes, numSets)
	if err != nil {
		return nil, err
	}
	tr.Replay(p)
	return p, nil
}

// ShardRun is Run; workers and reg are ignored.
//
// Deprecated: the banded stack pass was slower than the serial pass on
// the paper's traces and was removed; call Run.
func ShardRun(tr *memtrace.Trace, blockBytes, numSets, workers int, reg *obs.Registry) (*StackPass, error) {
	return Run(tr, blockBytes, numSets)
}

// checkGeometry returns why a stack-pass geometry is invalid, or nil.
// A block is a power of two from one word to 1<<31 bytes, paging's
// largest page: only the address width bounds it, since a pass keeps
// none of the per-word valid bits whose uint64 caps cache.Config's
// blocks. The geometry of every valid cache.Config and paging.Config
// passes.
func checkGeometry(blockBytes, numSets int) error {
	if blockBytes < memtrace.WordBytes || blockBytes&(blockBytes-1) != 0 || blockBytes > 1<<31 {
		return fmt.Errorf("sweep: block size %d is not a power of two in [%d, %d]",
			blockBytes, memtrace.WordBytes, 1<<31)
	}
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		return fmt.Errorf("sweep: set count %d is not a positive power of two", numSets)
	}
	return nil
}

// NewStackPass returns an empty pass at the given block size and set
// count, or checkGeometry's error.
func NewStackPass(blockBytes, numSets int) (*StackPass, error) {
	if err := checkGeometry(blockBytes, numSets); err != nil {
		return nil, err
	}
	return &StackPass{
		blockWords: uint32(blockBytes / memtrace.WordBytes),
		sets:       uint32(numSets),
		stacks:     make([][]uint32, numSets),
	}, nil
}

// Run accumulates one canonical run into the pass.
func (p *StackPass) Run(r memtrace.Run) {
	w0, w1 := r.WordRange()
	if w1 <= w0 {
		return
	}
	runWords := w1 - w0
	p.accesses += uint64(runWords)
	// maxcov is the largest associativity whose first miss in this
	// run has been accounted; coldSeen means a cold lookup already
	// claimed every remaining associativity.
	maxcov := 0
	coldSeen := false
	for w := w0; w < w1; {
		mb := w / p.blockWords
		gEnd := (mb + 1) * p.blockWords
		if gEnd > w1 {
			gEnd = w1
		}
		st := p.stacks[mb%p.sets]
		depth := 0
		for i, b := range st {
			if b == mb {
				depth = i + 1
				break
			}
		}
		if !coldSeen {
			contrib := int64(runWords - (w - w0))
			if depth == 0 {
				p.addInf(maxcov+1, contrib)
				coldSeen = true
			} else if depth-1 > maxcov {
				p.addRange(maxcov+1, depth-1, contrib)
				maxcov = depth - 1
			}
		}
		if depth == 0 {
			p.cold++
			st = append(st, 0)
			copy(st[1:], st[:len(st)-1])
			st[0] = mb
			p.stacks[mb%p.sets] = st
		} else {
			for len(p.hist) < depth {
				p.hist = append(p.hist, 0)
			}
			p.hist[depth-1]++
			copy(st[1:depth], st[:depth-1])
			st[0] = mb
		}
		w = gEnd
	}
}

// addRange adds v to the exec accumulator for associativities [lo, hi].
func (p *StackPass) addRange(lo, hi int, v int64) {
	for len(p.execDiff) < hi+2 {
		p.execDiff = append(p.execDiff, 0)
	}
	p.execDiff[lo] += v
	p.execDiff[hi+1] -= v
}

// addInf adds v to the exec accumulator for associativities [lo, ∞).
func (p *StackPass) addInf(lo int, v int64) {
	for len(p.execInf) < lo+1 {
		p.execInf = append(p.execInf, 0)
	}
	p.execInf[lo] += v
}

// Accesses returns the number of instruction fetches observed.
func (p *StackPass) Accesses() uint64 { return p.accesses }

// Cold returns the number of first-touch lookups: the distinct blocks
// observed, which miss at every associativity.
func (p *StackPass) Cold() uint64 { return p.cold }

// MissesAt returns the exact miss count of a whole-block LRU cache
// with the pass's set count and the given associativity: the cold
// lookups plus every lookup whose stack distance exceeded assoc.
func (p *StackPass) MissesAt(assoc int) uint64 {
	m := p.cold
	for d := assoc; d < len(p.hist); d++ {
		m += p.hist[d]
	}
	return m
}

// execWordsAt returns the avg.exec numerator at the given
// associativity: the prefix sums of the difference arrays.
func (p *StackPass) execWordsAt(assoc int) uint64 {
	var v int64
	for i := 1; i <= assoc && i < len(p.execDiff); i++ {
		v += p.execDiff[i]
	}
	for i := 1; i <= assoc && i < len(p.execInf); i++ {
		v += p.execInf[i]
	}
	return uint64(v)
}

// covers reports whether cfg's statistics can be derived from this
// pass: a whole-block LRU organisation (direct-mapped counts — a
// single-way set never consults its replacement policy) without
// prefetch or the timing model, whose geometry matches the pass.
func (p *StackPass) covers(cfg cache.Config) bool {
	if !eligible(cfg) {
		return false
	}
	block, sets := geometry(cfg)
	return block == int(p.blockWords)*memtrace.WordBytes && sets == int(p.sets)
}

// Stats derives the full simulation statistics for cfg, which must be
// covered by this pass. The result is identical to cache.Simulate on
// the same trace: misses and traffic from the histogram, and the
// paper's avg.exec bookkeeping (every miss opens one exec run, so
// ExecRuns equals Misses) from the difference arrays. Only StallCycles
// is out of reach — the timing model needs per-miss fill overlap, so
// timed configurations are not covered and fall back to replay.
func (p *StackPass) Stats(cfg cache.Config) (cache.Stats, error) {
	if !p.covers(cfg) {
		return cache.Stats{}, fmt.Errorf("sweep: %v not covered by stack pass (%dB blocks, %d sets)",
			cfg, int(p.blockWords)*memtrace.WordBytes, p.sets)
	}
	return p.derive(cfg), nil
}

// derive is Stats for a covered cfg.
func (p *StackPass) derive(cfg cache.Config) cache.Stats {
	assoc := (cfg.SizeBytes / cfg.BlockBytes) / int(p.sets)
	misses := p.MissesAt(assoc)
	return cache.Stats{
		Accesses:  p.accesses,
		Misses:    misses,
		MemWords:  misses * uint64(p.blockWords),
		ExecRuns:  misses,
		ExecWords: p.execWordsAt(assoc),
	}
}

// eligible reports whether cfg belongs to the family the stack
// algorithm can derive: whole-block fill with true LRU stacking
// behaviour and no side effects that depend on capacity (prefetch
// pollutes the stack per-capacity; the timing model needs per-miss
// state). Sectoring and partial loading carry per-word valid bits that
// violate stack inclusion.
func eligible(cfg cache.Config) bool {
	if cfg.Validate() != nil {
		return false
	}
	if cfg.SectorBytes != 0 || cfg.PartialLoad || cfg.PrefetchNext || cfg.Timing != nil {
		return false
	}
	return cfg.Replacement == cache.LRU || ways(cfg) == 1
}

// ways returns cfg's associativity, resolving 0 (fully associative)
// to the block count.
func ways(cfg cache.Config) int {
	if cfg.Assoc == 0 {
		return cfg.SizeBytes / cfg.BlockBytes
	}
	return cfg.Assoc
}

// geometry returns the stack-pass geometry (block size, set count)
// that covers cfg. Only meaningful for eligible configurations.
func geometry(cfg cache.Config) (blockBytes, numSets int) {
	return cfg.BlockBytes, cfg.SizeBytes / cfg.BlockBytes / ways(cfg)
}
