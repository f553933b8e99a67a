package cache

import "impact/internal/memtrace"

// SinkSimulator simulates one or more organisations from a run
// stream: a memtrace.Sink that fans every incoming run into a fresh
// cache per configuration, so the stream is walked once however many
// organisations it feeds. It is the broadcast replay of the sweep
// planner (internal/cache/sweep). A materialized trace replays into
// it, and so does a trace generated on the fly (layout.Stream, whose
// engine emits maximal runs) or decoded from a file (memtrace.Reader),
// which is then simulated without ever being materialized.
//
// Runs must arrive in canonical form — zero-length runs dropped,
// contiguous neighbours merged, exactly what the execution engine,
// Trace.Replay, memtrace.Reader, or a memtrace.Merger deliver —
// because a run boundary is a taken branch that closes an exec run; a
// fragmented stream would change the avg.exec accounting.
type SinkSimulator struct {
	caches   []*Cache
	recorded bool
}

// NewSinkSimulator returns a streaming simulator over fresh caches,
// one per configuration.
func NewSinkSimulator(cfgs ...Config) (*SinkSimulator, error) {
	caches := make([]*Cache, len(cfgs))
	for i, cfg := range cfgs {
		c, err := newCache(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = c
	}
	return &SinkSimulator{caches: caches}, nil
}

// Run feeds one canonical run to every cache.
func (s *SinkSimulator) Run(r memtrace.Run) {
	for _, c := range s.caches {
		c.Run(r)
	}
}

// Stats returns the per-configuration statistics in input order. Call
// it once the stream has ended; the first call folds each simulation
// into the attached observation registry (later calls only read).
func (s *SinkSimulator) Stats() []Stats {
	out := make([]Stats, len(s.caches))
	for i, c := range s.caches {
		out[i] = c.Stats()
		if !s.recorded {
			record(out[i])
		}
	}
	s.recorded = true
	return out
}
