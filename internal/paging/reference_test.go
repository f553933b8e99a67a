package paging

// Differential testing: Simulator derives its faults from a Mattson
// stack pass, so an independent model of demand paging is kept here
// as the oracle — the obvious map-based LRU, one clock tick per page
// touch and an eviction that scans every resident frame — as
// internal/cache/reference_test.go keeps the cache's. The tests below
// check Simulate against it over random traces, whole and
// word-fragmented, at every page size and a spread of frame counts.

import (
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
	"impact/internal/xrand"
)

// pageEntry is one resident page's LRU state.
type pageEntry struct {
	stamp uint64
}

// refPager is the oracle: demand paging with LRU replacement over a
// map of resident pages.
type refPager struct {
	cfg      Config
	resident map[uint32]*pageEntry
	touched  map[uint32]bool
	clock    uint64
	shift    uint
	stats    Stats
}

func newRefPager(cfg Config) *refPager {
	return &refPager{
		cfg:      cfg,
		resident: make(map[uint32]*pageEntry),
		touched:  make(map[uint32]bool),
		shift:    pageShift(cfg.PageBytes),
	}
}

// Run touches every page of one run, in address order.
func (s *refPager) Run(r memtrace.Run) {
	if r.Bytes == 0 {
		return
	}
	s.stats.Accesses += uint64(r.Words())
	first, last := pageRange(r, s.shift)
	for p := first; ; p++ {
		s.clock++
		s.touched[p] = true
		if e, ok := s.resident[p]; ok {
			e.stamp = s.clock
		} else {
			s.stats.Faults++
			if s.cfg.Frames > 0 && len(s.resident) >= s.cfg.Frames {
				s.evict()
			}
			s.resident[p] = &pageEntry{stamp: s.clock}
		}
		if p == last {
			break
		}
	}
}

// pageRange returns the first and last page a run touches. The
// arithmetic is done in uint64 and the end saturates at the top of the
// 32-bit address space, so a run overflowing it still touches its last
// page instead of wrapping to page 0 (mirroring memtrace.Run.WordRange).
func pageRange(r memtrace.Run, shift uint) (first, last uint32) {
	end := uint64(r.Addr) + uint64(r.Bytes) - 1
	if end > 1<<32-1 {
		end = 1<<32 - 1
	}
	return r.Addr >> shift, uint32(end >> shift)
}

// evict removes the least recently used resident page. Stamps are
// unique (one clock tick per touch), so the minimum is unique and map
// order cannot change the victim.
func (s *refPager) evict() {
	var victim uint32
	var oldest uint64 = ^uint64(0)
	for p, e := range s.resident {
		if e.stamp < oldest {
			oldest = e.stamp
			victim = p
		}
	}
	delete(s.resident, victim)
}

func (s *refPager) Stats() Stats {
	st := s.stats
	st.PagesTouched = len(s.touched)
	return st
}

// refSimulate is Simulate on the oracle.
func refSimulate(cfg Config, tr *memtrace.Trace) Stats {
	ref := newRefPager(cfg)
	tr.Replay(ref)
	return ref.Stats()
}

// fragmented feeds tr to sink one word per run through a Merger, which
// must reassemble the canonical runs.
func fragmented(tr *memtrace.Trace, sink memtrace.Sink) {
	m := memtrace.NewMerger(sink)
	for _, r := range tr.Runs {
		for off := uint32(0); off < r.Bytes; off += memtrace.WordBytes {
			m.Run(memtrace.Run{Addr: r.Addr + off, Bytes: memtrace.WordBytes})
		}
	}
	m.Flush()
}

// checkAgainstOracle requires Simulate, a simulator fed tr
// word-fragmented, and the oracle to agree on every field.
func checkAgainstOracle(t *testing.T, cfg Config, tr *memtrace.Trace) {
	t.Helper()
	want := refSimulate(cfg, tr)
	got, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	if got != want {
		t.Errorf("%v: Simulate %+v, oracle %+v", cfg, got, want)
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	fragmented(tr, sim)
	if got := sim.Stats(); got != want {
		t.Errorf("%v: word-fragmented %+v, oracle %+v", cfg, got, want)
	}
}

// genTrace builds a random trace with a hot region, a warm 64KB region
// and far jumps across the 32-bit address space (every run ends below
// its top), so small pages see reuse at many stack distances and the
// largest pages still see more than one page.
func genTrace(seed uint64, nRuns int) *memtrace.Trace {
	const maxWords = 128
	rng := xrand.New(seed)
	tr := &memtrace.Trace{}
	hot := uint32(rng.Intn(1<<20)) * memtrace.WordBytes
	for i := 0; i < nRuns; i++ {
		var addr uint32
		switch {
		case rng.Bool(0.6):
			addr = hot + uint32(rng.Intn(1<<10))*memtrace.WordBytes
		case rng.Bool(0.7):
			addr = uint32(rng.Intn(1<<14)) * memtrace.WordBytes
		default:
			addr = uint32(rng.Intn(1<<30-maxWords)) * memtrace.WordBytes
		}
		words := uint32(rng.IntRange(1, maxWords))
		tr.Run(memtrace.Run{Addr: addr, Bytes: words * memtrace.WordBytes})
	}
	return tr
}

// TestSimulateMatchesReference checks Simulate against the oracle at
// every page size from 64B to 1<<31 and at frame counts 0, 1, 2, 3, 8
// and one past the trace's footprint.
func TestSimulateMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tr := genTrace(seed, 1500)
		for pageBytes := 64; pageBytes <= 1<<31; pageBytes <<= 1 {
			footprint := refSimulate(Config{PageBytes: pageBytes}, tr).PagesTouched
			for _, frames := range []int{0, 1, 2, 3, 8, footprint + 1} {
				checkAgainstOracle(t, Config{PageBytes: pageBytes, Frames: frames}, tr)
			}
		}
	}
}

// TestSimulatorZeroAlloc pins the steady state of Simulator.Run: once
// every page of a trace has been seen and the pass's tables have grown
// to its deepest reuse, replaying the trace allocates nothing.
func TestSimulatorZeroAlloc(t *testing.T) {
	tr := genTrace(43, 2000)
	sim, err := NewSimulator(Config{PageBytes: 256, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(sim) // warm: grows the stack and the histogram
	avg := testing.AllocsPerRun(10, func() {
		tr.Replay(sim)
	})
	if avg != 0 {
		t.Errorf("steady-state Simulator.Run allocates %.1f times per replay, want 0", avg)
	}
}

// TestRunEdgeConventions pins how Simulator counts runs that
// memtrace.Reader rejects, which follow the cache simulator's
// conventions: a run past the top of the 32-bit address space counts
// only its words below the top, and a run shorter than a word touches
// nothing. The cache simulator counts the same accesses.
func TestRunEdgeConventions(t *testing.T) {
	tests := []struct {
		name string
		run  memtrace.Run
		want Stats
	}{
		{"past the 32-bit top", run(0xFFFFF000, 0x2000), Stats{Accesses: 1024, Faults: 1, PagesTouched: 1}},
		{"shorter than a word", run(4096, 2), Stats{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sim, err := NewSimulator(Config{PageBytes: 4096, Frames: 2})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(tt.run)
			if got := sim.Stats(); got != tt.want {
				t.Errorf("Stats = %+v, want %+v", got, tt.want)
			}
			c, err := cache.NewSinkSimulator(cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
			if err != nil {
				t.Fatal(err)
			}
			c.Run(tt.run)
			if got := c.Stats()[0].Accesses; got != tt.want.Accesses {
				t.Errorf("cache counts %d accesses, want %d", got, tt.want.Accesses)
			}
		})
	}
}
