// Package paging measures instruction paging behaviour over fetch
// traces — the experiment the paper lists as ongoing work: "we are
// conducting experiments on the instruction paging performance. The
// design parameters under investigation include working set size, page
// size, and page sectoring."
//
// Two measurements are provided:
//
//   - Simulate / Simulator: demand paging with LRU replacement over a
//     fixed number of page frames, reporting page faults and the total
//     pages touched. Simulator is a memtrace.Sink, so traces can
//     stream through it (icsim -paging tees one next to the cache
//     simulator); Simulate is the batch wrapper. Because the global
//     layout packs all effective code together ("when a page is
//     transferred from the secondary memory to the main memory, all
//     the bytes of that page are likely to be used"), the optimized
//     layout touches fewer pages and faults less.
//   - WorkingSet: Denning's working set — the average number of
//     distinct pages referenced per window of W instruction fetches
//     (tumbling windows; a partial final window counts).
//
// Simulator is a page-granular Mattson stack pass (a one-set
// sweep.StackPass): LRU over F frames is a one-set, F-way LRU cache
// whose block is the page, so the faults are the pass's misses at
// associativity F (its cold lookups when F is 0) and the pages touched
// are its cold lookups. Runs follow the cache simulator's conventions
// (memtrace.Run.WordRange): a run shorter than a word touches nothing,
// and one past the 32-bit top counts only its words below the top.
//
// Cost: a page reused after D other distinct pages costs an O(D) stack
// scan, where a map of resident frames costs O(1) per hit and O(F) per
// fault. The stack pass wins on the suite's traces (at most 498
// distinct pages, even at 64B pages) and loses on cyclic sweeps over
// thousands of pages; docs/PERFORMANCE.md has the measurements.
//
// The static twin of Simulate is internal/analysis.AnalyzePages, which
// brackets the fault count of any run the profile covers without
// replaying a trace.
package paging

import (
	"fmt"

	"impact/internal/cache/sweep"
	"impact/internal/memtrace"
)

// Config describes a paging configuration.
type Config struct {
	// PageBytes is the page size; must be a power of two from 64 to
	// 1<<31.
	PageBytes int
	// Frames is the number of resident page frames; 0 means unbounded
	// memory (only cold faults occur).
	Frames int
}

// maxPageBytes is the largest page size Validate accepts: the largest
// power of two a uint32 holds, the width of the page analysis's
// geometry arithmetic.
const maxPageBytes int64 = 1 << 31

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if cfg.PageBytes < 64 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return fmt.Errorf("paging: page size %d is not a power of two >= 64", cfg.PageBytes)
	}
	if int64(cfg.PageBytes) > maxPageBytes {
		return fmt.Errorf("paging: page size %d exceeds %d bytes", cfg.PageBytes, maxPageBytes)
	}
	if cfg.Frames < 0 {
		return fmt.Errorf("paging: negative frame count %d", cfg.Frames)
	}
	return nil
}

// String renders the geometry, e.g. "4096B pages, 8 frames".
func (cfg Config) String() string {
	if cfg.Frames == 0 {
		return fmt.Sprintf("%dB pages, unbounded frames", cfg.PageBytes)
	}
	return fmt.Sprintf("%dB pages, %d frames", cfg.PageBytes, cfg.Frames)
}

// Stats accumulates paging results.
type Stats struct {
	// Accesses is the number of instruction fetches.
	Accesses uint64
	// Faults is the number of page faults.
	Faults uint64
	// PagesTouched is the number of distinct pages ever referenced —
	// the program's instruction footprint in pages.
	PagesTouched int
}

// FaultRate returns faults per million instruction fetches.
func (s Stats) FaultRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Faults) / float64(s.Accesses) * 1e6
}

// pageShift returns log2(pageBytes). pageBytes must be a validated
// power of two.
func pageShift(pageBytes int) uint {
	s := uint(0)
	for 1<<s != pageBytes {
		s++
	}
	return s
}

// Simulator is a streaming demand-paging simulator with LRU
// replacement. It implements memtrace.Sink, so a trace can stream
// through it run by run (optionally teed next to other sinks with
// memtrace.Tee) in constant memory per distinct page; Stats reads the
// running totals at any point.
type Simulator struct {
	cfg  Config
	pass *sweep.StackPass
}

// NewSimulator returns a streaming simulator for the given geometry.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pass, _ := sweep.NewStackPass(cfg.PageBytes, 1) // a valid page size is a valid block
	return &Simulator{cfg: cfg, pass: pass}, nil
}

// Run feeds one fetch run into the simulator (memtrace.Sink).
func (s *Simulator) Run(r memtrace.Run) { s.pass.Run(r) }

// Stats returns the running totals.
func (s *Simulator) Stats() Stats {
	faults := s.pass.Cold() // unbounded frames: cold faults only
	if s.cfg.Frames > 0 {
		faults = s.pass.MissesAt(s.cfg.Frames)
	}
	return Stats{Accesses: s.pass.Accesses(), Faults: faults, PagesTouched: int(s.pass.Cold())}
}

// Simulate runs demand paging with LRU replacement over tr (the batch
// form of Simulator).
func Simulate(cfg Config, tr *memtrace.Trace) (Stats, error) {
	sim, err := NewSimulator(cfg)
	if err != nil {
		return Stats{}, err
	}
	tr.Replay(sim)
	return sim.Stats(), nil
}

// WorkingSet returns the average number of distinct pages referenced
// per window of windowInstrs instruction fetches (tumbling windows).
// A partial final window is excluded from the average — except when it
// is the only window (the trace is shorter than windowInstrs), where
// the trace's page footprint is the working set; only an empty trace
// returns 0.
func WorkingSet(tr *memtrace.Trace, pageBytes int, windowInstrs uint64) (float64, error) {
	if err := (Config{PageBytes: pageBytes}).Validate(); err != nil {
		return 0, err
	}
	if windowInstrs == 0 {
		return 0, fmt.Errorf("paging: zero window")
	}
	// A word's page is its word address shifted by this; pages hold
	// at least 16 words.
	wordShift := pageShift(pageBytes) - 2

	window := make(map[uint32]bool)
	var inWindow uint64
	var windows int
	var totalPages int

	flush := func() {
		totalPages += len(window)
		windows++
		window = make(map[uint32]bool)
		inWindow = 0
	}

	for _, r := range tr.Runs {
		// Split the run's words, saturated at the 32-bit top as
		// Simulate counts them, across window boundaries.
		w0, w1 := r.WordRange()
		for w := w0; w < w1; {
			take := uint32(min(uint64(w1-w), windowInstrs-inWindow))
			for p := w >> wordShift; p <= (w+take-1)>>wordShift; p++ {
				window[p] = true
			}
			w += take
			inWindow += uint64(take)
			if inWindow == windowInstrs {
				flush()
			}
		}
	}
	if inWindow > 0 && windows == 0 {
		flush()
	}
	if windows == 0 {
		return 0, nil
	}
	return float64(totalPages) / float64(windows), nil
}
