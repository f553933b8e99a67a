package cache

import (
	"fmt"
	"sync/atomic"

	"impact/internal/obs"
)

// cacheObs holds pre-resolved counter handles so recording one
// finished simulation is a handful of atomic adds — and, crucially,
// the per-word access path carries no instrumentation at all: stats
// are folded into the registry once per simulation, from the Stats
// the simulator accumulates anyway.
type cacheObs struct {
	sims, accesses, misses, memWords, stallCycles *obs.Counter
	l2accesses, l2misses, l2memWords              *obs.Counter
}

// attached is the process-wide observation target; nil (the default)
// means simulations record nothing.
var attached atomic.Pointer[cacheObs]

// AttachObs routes per-simulation statistics from every Simulate and
// SimulateHierarchy call in this process to r (counters
// cache.simulations, cache.accesses, cache.misses, cache.mem_words,
// cache.stall_cycles, and cache.l2.* for hierarchy second levels).
// Pass nil to detach. Commands attach their metrics registry at
// startup; the library default is detached, costing simulations one
// atomic pointer load each.
func AttachObs(r *obs.Registry) {
	if r == nil {
		attached.Store(nil)
		return
	}
	attached.Store(&cacheObs{
		sims:        r.Counter("cache.simulations"),
		accesses:    r.Counter("cache.accesses"),
		misses:      r.Counter("cache.misses"),
		memWords:    r.Counter("cache.mem_words"),
		stallCycles: r.Counter("cache.stall_cycles"),
		l2accesses:  r.Counter("cache.l2.accesses"),
		l2misses:    r.Counter("cache.l2.misses"),
		l2memWords:  r.Counter("cache.l2.mem_words"),
	})
}

// record folds one simulation's statistics into the attached registry.
func record(s Stats) {
	o := attached.Load()
	if o == nil {
		return
	}
	o.sims.Inc()
	o.accesses.Add(s.Accesses)
	o.misses.Add(s.Misses)
	o.memWords.Add(s.MemWords)
	o.stallCycles.Add(s.StallCycles)
}

// recordL2 folds a hierarchy's second-level statistics into the
// attached registry under the cache.l2.* names (L2 accesses are L1
// fill words, so mixing them into cache.accesses would double-count).
func recordL2(s Stats) {
	o := attached.Load()
	if o == nil {
		return
	}
	o.l2accesses.Add(s.Accesses)
	o.l2misses.Add(s.Misses)
	o.l2memWords.Add(s.MemWords)
}

// ParseReplacement converts a policy name ("lru", "fifo", "random" or
// "rand") to its Replacement value.
func ParseReplacement(s string) (Replacement, error) {
	switch s {
	case "lru", "":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "random", "rand":
		return RandomRepl, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q (want lru, fifo, or random)", s)
}
