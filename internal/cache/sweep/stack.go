// Package sweep implements single-pass multi-configuration cache
// simulation.
//
// The paper's evaluation replays entire execution traces once per
// cache organisation, and organisations overlap heavily across tables
// (Table 1 sweeps cache sizes at each block size, Tables 6-8 and the
// ablations revisit the 2KB/64B design point). This package pays the
// trace-iteration cost once per *family* of organisations instead of
// once per organisation:
//
//   - StackPass is Mattson's LRU stack algorithm (Mattson, Gecsei,
//     Slutz, Traiger, "Evaluation techniques for storage hierarchies",
//     IBM Systems Journal 1970): one block-granular pass produces a
//     stack-distance histogram from which the exact miss count of
//     every LRU cache with the pass's set count — every associativity,
//     and therefore every capacity — is read off directly. With one
//     set it is the classic fully-associative size sweep of Table 1.
//   - SweepSizes drives a size sweep through a single stack pass when
//     the organisation allows it and falls back to one broadcast
//     replay (cache.MultiSimulate) when it does not.
//
// The applicability matrix and measured speedups are documented in
// docs/PERFORMANCE.md; internal/experiments builds its memoizing sweep
// scheduler on top of this package.
package sweep

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/memtrace"
	"impact/internal/obs"
)

// StackPass holds the result of one LRU stack pass over a trace at a
// fixed block size and set count. It derives exact statistics for any
// whole-block LRU organisation with that geometry: associativity A
// yields the cache of SizeBytes = numSets * A * blockBytes.
type StackPass struct {
	blockBytes int
	numSets    int
	blockWords uint32
	// accesses counts instruction fetches (identical for every derived
	// configuration); groups counts block-granular lookups.
	accesses uint64
	groups   uint64
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
	s, err := NewStream(blockBytes, numSets)
	if err != nil {
		return nil, err
	}
	tr.Replay(s)
	return s.Pass(), nil
}

// ShardRun is Run; workers and reg are ignored.
//
// Deprecated: the banded stack pass was slower than the serial pass on
// the paper's traces and was removed; call Run.
func ShardRun(tr *memtrace.Trace, blockBytes, numSets, workers int, reg *obs.Registry) (*StackPass, error) {
	return Run(tr, blockBytes, numSets)
}

// StreamPass is the incremental form of the stack pass: a
// memtrace.Sink that accumulates the same statistics run by run, so a
// trace generated live (interp → layout.Stream → Merger) is swept
// without ever being materialized. Runs MUST arrive in canonical form
// — zero-length runs dropped, contiguous neighbours merged, exactly
// what Trace.Replay, memtrace.Reader, or a memtrace.Merger deliver —
// because a run boundary closes an exec run; splitting one canonical
// run in two would change the avg.exec accounting.
//
// The steady-state Run path performs no allocations: per-set stacks
// and the distance histogram grow only while new blocks or new depths
// appear (see TestStreamPassZeroAlloc).
type StreamPass struct {
	p      *StackPass
	stacks [][]uint32
	sets   uint32
}

// NewStream validates the geometry and returns an empty streaming
// stack pass.
func NewStream(blockBytes, numSets int) (*StreamPass, error) {
	if blockBytes < memtrace.WordBytes || blockBytes&(blockBytes-1) != 0 || blockBytes > 64*memtrace.WordBytes {
		return nil, fmt.Errorf("sweep: block size %d is not a power of two in [%d, %d]",
			blockBytes, memtrace.WordBytes, 64*memtrace.WordBytes)
	}
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("sweep: set count %d is not a positive power of two", numSets)
	}
	return &StreamPass{
		p: &StackPass{
			blockBytes: blockBytes,
			numSets:    numSets,
			blockWords: uint32(blockBytes / memtrace.WordBytes),
		},
		stacks: make([][]uint32, numSets),
		sets:   uint32(numSets),
	}, nil
}

// Run accumulates one canonical run into the pass.
func (s *StreamPass) Run(r memtrace.Run) {
	p := s.p
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
		st := s.stacks[mb%s.sets]
		depth := 0
		for i, b := range st {
			if b == mb {
				depth = i + 1
				break
			}
		}
		p.groups++
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
			s.stacks[mb%s.sets] = st
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

// Pass returns the statistics accumulated so far. The result is a
// standalone StackPass: retaining it does not pin the per-set stack
// memory once the StreamPass itself is released. Further Run calls
// keep accumulating into the same pass.
func (s *StreamPass) Pass() *StackPass { return s.p }

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

// BlockBytes returns the pass's block size.
func (p *StackPass) BlockBytes() int { return p.blockBytes }

// NumSets returns the pass's set count.
func (p *StackPass) NumSets() int { return p.numSets }

// Accesses returns the number of instruction fetches observed.
func (p *StackPass) Accesses() uint64 { return p.accesses }

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

// Covers reports whether cfg's statistics can be derived from this
// pass: a whole-block LRU organisation (direct-mapped counts — a
// single-way set never consults its replacement policy) without
// prefetch or the timing model, whose geometry matches the pass.
func (p *StackPass) Covers(cfg cache.Config) bool {
	if !Eligible(cfg) {
		return false
	}
	block, sets := Geometry(cfg)
	return block == p.blockBytes && sets == p.numSets
}

// Stats derives the full simulation statistics for cfg, which must be
// covered by this pass. The result is identical to cache.Simulate on
// the same trace: misses and traffic from the histogram, and the
// paper's avg.exec bookkeeping (every miss opens one exec run, so
// ExecRuns equals Misses) from the difference arrays. Only StallCycles
// is out of reach — the timing model needs per-miss fill overlap, so
// timed configurations are not Covered and fall back to replay.
func (p *StackPass) Stats(cfg cache.Config) (cache.Stats, error) {
	if !p.Covers(cfg) {
		return cache.Stats{}, fmt.Errorf("sweep: %v not covered by stack pass (%dB blocks, %d sets)",
			cfg, p.blockBytes, p.numSets)
	}
	assoc := (cfg.SizeBytes / cfg.BlockBytes) / p.numSets
	misses := p.MissesAt(assoc)
	return cache.Stats{
		Accesses:  p.accesses,
		Misses:    misses,
		MemWords:  misses * uint64(p.blockWords),
		ExecRuns:  misses,
		ExecWords: p.execWordsAt(assoc),
	}, nil
}

// Eligible reports whether cfg belongs to the family the stack
// algorithm can derive: whole-block fill with true LRU stacking
// behaviour and no side effects that depend on capacity (prefetch
// pollutes the stack per-capacity; the timing model needs per-miss
// state). Sectoring and partial loading carry per-word valid bits that
// violate stack inclusion.
func Eligible(cfg cache.Config) bool {
	if cfg.Validate() != nil {
		return false
	}
	if cfg.SectorBytes != 0 || cfg.PartialLoad || cfg.PrefetchNext || cfg.Timing != nil {
		return false
	}
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = cfg.SizeBytes / cfg.BlockBytes
	}
	return cfg.Replacement == cache.LRU || assoc == 1
}

// Geometry returns the stack-pass geometry (block size, set count)
// that covers cfg. Only meaningful for Eligible configurations.
func Geometry(cfg cache.Config) (blockBytes, numSets int) {
	blocks := cfg.SizeBytes / cfg.BlockBytes
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = blocks
	}
	return cfg.BlockBytes, blocks / assoc
}

// SizeStream is a streaming size sweep: a memtrace.Sink accumulating
// one fully-associative stack pass whose Results derive the stats of
// the template organisation at every requested size. It exists so a
// size sweep over a trace file (icsim -sizes) or a live generation run
// needs constant memory. Only stackable sweeps stream; NewSizeStream
// reports the fallback set of configurations otherwise.
type SizeStream struct {
	s    *StreamPass
	cfgs []cache.Config
}

// NewSizeStream validates the sweep and, when a single
// fully-associative stack pass covers it (template Assoc 0, every
// derived configuration Eligible), returns a streaming sink. A nil
// SizeStream with a nil error means the sweep is not stackable: the
// caller must materialize the trace and broadcast-replay the returned
// configurations (cache.MultiSimulate), as SweepSizes does.
func NewSizeStream(template cache.Config, sizes []int) (*SizeStream, []cache.Config, error) {
	cfgs := make([]cache.Config, len(sizes))
	stackable := template.Assoc == 0
	for i, s := range sizes {
		cfg := template
		cfg.SizeBytes = s
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
		cfgs[i] = cfg
		stackable = stackable && Eligible(cfg)
	}
	if len(cfgs) == 0 || !stackable {
		return nil, cfgs, nil
	}
	s, err := NewStream(template.BlockBytes, 1)
	if err != nil {
		return nil, nil, err
	}
	return &SizeStream{s: s, cfgs: cfgs}, cfgs, nil
}

// Run accumulates one canonical run (see StreamPass.Run).
func (z *SizeStream) Run(r memtrace.Run) { z.s.Run(r) }

// Results derives the per-size statistics, in input order, identical
// to sequential cache.Simulate calls on the materialized trace.
func (z *SizeStream) Results() ([]cache.Stats, error) {
	p := z.s.Pass()
	out := make([]cache.Stats, len(z.cfgs))
	for i, cfg := range z.cfgs {
		st, err := p.Stats(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// SweepSizes simulates the template organisation at every cache size
// with the minimum number of trace passes: one stack pass when every
// derived configuration shares a geometry (a fully associative
// template — Assoc 0 — keeps one set at every size, the classic
// Mattson sweep), otherwise one broadcast replay via
// cache.MultiSimulate. Results are in input order and identical to
// sequential cache.Simulate calls.
func SweepSizes(tr *memtrace.Trace, template cache.Config, sizes []int) ([]cache.Stats, error) {
	z, cfgs, err := NewSizeStream(template, sizes)
	if err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, nil
	}
	if z == nil {
		return cache.MultiSimulate(cfgs, tr)
	}
	tr.Replay(z)
	return z.Results()
}
