package cache

import "impact/internal/memtrace"

// Hierarchy stacks two cache levels: every memory transfer the first
// level issues (demand fetch or prefetch) becomes an access stream for
// the second level, which fetches from main memory. This models the
// paper's memory system prose — "the data from an outside cache or the
// main memory" — with the small on-chip instruction cache backed by a
// larger outside cache.
//
// The second level must use whole-block fill (no sectoring, partial
// loading, or prefetch) and its block size must be at least the first
// level's, so one L1 fill never spans L2 blocks mid-transfer in
// surprising ways.
type Hierarchy struct {
	L1, L2 *Cache
}

// newHierarchy builds a two-level hierarchy from the given
// organisations.
func newHierarchy(l1, l2 Config) (*Hierarchy, error) {
	if l2.SectorBytes != 0 || l2.PartialLoad || l2.PrefetchNext {
		return nil, errBadL2("second level must use plain whole-block fill")
	}
	if l2.BlockBytes < l1.BlockBytes {
		return nil, errBadL2("second-level block smaller than first-level block")
	}
	c1, err := newCache(l1)
	if err != nil {
		return nil, err
	}
	c2, err := newCache(l2)
	if err != nil {
		return nil, err
	}
	c1.SetFetchSink(c2)
	return &Hierarchy{L1: c1, L2: c2}, nil
}

func errBadL2(msg string) error {
	return &hierarchyError{msg}
}

type hierarchyError struct{ msg string }

func (e *hierarchyError) Error() string { return "cache: hierarchy: " + e.msg }

// Run feeds one instruction fetch run through the hierarchy.
func (h *Hierarchy) Run(r memtrace.Run) { h.L1.Run(r) }

// Reset clears both levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
}

// SimulateHierarchy replays a trace through a fresh two-level
// hierarchy and returns the per-level statistics.
func SimulateHierarchy(l1, l2 Config, tr *memtrace.Trace) (Stats, Stats, error) {
	h, err := newHierarchy(l1, l2)
	if err != nil {
		return Stats{}, Stats{}, err
	}
	tr.Replay(h)
	record(h.L1.Stats())
	recordL2(h.L2.Stats())
	return h.L1.Stats(), h.L2.Stats(), nil
}
