// Package analysis is the static cache-behavior analyzer: a
// profile-aware model of the instruction cache computed from the
// laid-out IR alone, never from a trace.
//
// It is the repo's second, independent model of the memory system next
// to the trace-driven simulator (internal/cache), in the spirit of
// static layout evaluation in later placement work (Codestitcher;
// Newell & Pupyrev's ext-TSP). Three cooperating passes:
//
//  1. Layout-quality scoring (score.go): the weighted fall-through
//     ratio and an ext-TSP-style locality score over arc/call weights
//     and final block addresses.
//  2. Cache-set conflict analysis (conflict.go): map laid-out code to
//     the sets of a cache geometry, weigh each line by profiled fetch
//     weight, and rank the sets whose demand exceeds their ways — the
//     static predictor of conflict misses.
//  3. Must/may abstract interpretation (absint.go): per-reference
//     always-hit / always-miss / first-miss / unclassified
//     classification via abstract cache states (Ferdinand/Wilhelm
//     style ageing caches) joined over a region supergraph
//     (regions.go), yielding static miss-count lower/upper bounds.
//
// One engine computes all three: Incremental (incremental.go,
// inclinear.go) solves the fixpoint one cache set at a time and keeps
// every pass as cached per-unit contributions. Analyze is a fresh
// engine's first result, and the page-level analysis (pages.go) is the
// same engine over a page-frame geometry, so the cache bounds, the
// page bounds, and the layout search's candidate scores all come from
// one solver and one classifier.
//
// The bounds are the load-bearing artifact: for a single complete
// execution matching the weights (Bounds.Exact), the simulator's
// measured miss count must fall inside [Lower, Upper]. That single
// invariant cross-validates this package, the layout code, and the
// sweep engine against each other; internal/experiments.BoundCheck and
// the CI strict step enforce it. See docs/ANALYSIS.md for the abstract
// domain and the soundness argument.
package analysis

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/layout"
	"impact/internal/obs"
	"impact/internal/profile"
)

// Config parameterises one analysis.
type Config struct {
	// Cache is the geometry analysed. The abstract model covers LRU
	// whole-block organisations without prefetch (any size, block
	// size, and associativity); Analyze rejects anything else. Timing
	// is ignored — miss counts do not depend on it.
	Cache cache.Config
	// TopSets / TopLines / TopPairs bound the conflict report: how
	// many pressured sets to keep, lines per set, and function pairs.
	// Zero means 8 / 4 / 8; a negative size is an error.
	TopSets, TopLines, TopPairs int
	// Obs, when non-nil, receives analysis.* counters and spans.
	Obs *obs.Registry
	// Lane attributes the analysis spans to one tracer lane; zero is
	// the main lane.
	Lane obs.Lane
}

// Result is the complete static analysis of one layout under one
// cache geometry.
type Result struct {
	// Cache is the analysed geometry.
	Cache cache.Config
	// Score is the geometry-independent layout quality score.
	Score Score
	// Conflicts ranks the hot set-pressure conflicts.
	Conflicts ConflictReport
	// Bounds is the whole-program miss classification and bounds.
	Bounds Bounds
	// PerFunc holds per-function bounds for functions with any
	// profiled fetches, in FuncID order.
	PerFunc []FuncBounds
	// Regions is the size of the region supergraph.
	Regions int
	// Iterations counts the solver's work: column evaluations of the
	// condensed per-set systems until fixpoint, summed over the sets
	// solved (every set for a fresh analysis, the dirty ones for an
	// update).
	Iterations int
}

// Analyze statically analyses the laid-out program under the given
// profile weights. It reads only lay, w, and cfg — no trace is
// decoded, no execution replayed.
//
// Bound semantics: when Bounds.Exact (weights from one complete run),
// the misses of simulating that run's trace on cfg.Cache lie in
// [Bounds.Lower, Bounds.Upper]. Otherwise the bounds describe the
// abstract single-execution model of the aggregated weights and are
// estimates, not guarantees (see docs/ANALYSIS.md).
func Analyze(lay *layout.Layout, w *profile.Weights, cfg Config) (*Result, error) {
	inc, err := NewIncremental(lay, w, cfg)
	if err != nil {
		return nil, err
	}
	return inc.Result(), nil
}

// validate rejects inputs outside the abstract cache model and fills
// in cfg's report-size defaults.
func validate(lay *layout.Layout, w *profile.Weights, cfg *Config) error {
	if err := validateInput(lay, w); err != nil {
		return err
	}
	if err := cfg.Cache.Validate(); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	switch {
	case cfg.Cache.Replacement != cache.LRU:
		return fmt.Errorf("analysis: %v replacement is outside the abstract cache model (need LRU)", cfg.Cache.Replacement)
	case cfg.Cache.SectorBytes != 0:
		return fmt.Errorf("analysis: sectored fills are outside the abstract cache model (whole-block only)")
	case cfg.Cache.PartialLoad:
		return fmt.Errorf("analysis: partial loading is outside the abstract cache model (whole-block only)")
	case cfg.Cache.PrefetchNext:
		return fmt.Errorf("analysis: prefetching is outside the abstract cache model")
	}
	if cfg.TopSets < 0 || cfg.TopLines < 0 || cfg.TopPairs < 0 {
		return fmt.Errorf("analysis: negative report size (TopSets %d, TopLines %d, TopPairs %d)",
			cfg.TopSets, cfg.TopLines, cfg.TopPairs)
	}
	if cfg.TopSets == 0 {
		cfg.TopSets = 8
	}
	if cfg.TopLines == 0 {
		cfg.TopLines = 4
	}
	if cfg.TopPairs == 0 {
		cfg.TopPairs = 8
	}
	return nil
}

// validateInput rejects weights that do not fit lay's program and a
// layout with no code — what every geometry needs.
func validateInput(lay *layout.Layout, w *profile.Weights) error {
	if err := w.Check(lay.Program()); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	if lay.Total == 0 {
		return fmt.Errorf("analysis: layout places no code")
	}
	return nil
}

func effectiveRuns(w *profile.Weights) uint64 {
	if w.Runs <= 0 {
		return 1
	}
	return uint64(w.Runs)
}
