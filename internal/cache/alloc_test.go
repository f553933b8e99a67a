package cache

import (
	"testing"

	"impact/internal/memtrace"
	"impact/internal/obs"
)

// allocTrace builds a small trace exercising hits, misses, and
// wrap-around reuse across sets.
func allocTrace() *memtrace.Trace {
	tr := &memtrace.Trace{}
	for i := 0; i < 64; i++ {
		addr := uint32((i * 96) % 4096)
		tr.Runs = append(tr.Runs, memtrace.Run{Addr: addr, Bytes: 128})
		tr.Instrs += 128 / 4
	}
	return tr
}

// TestHotLoopZeroAlloc pins the observability cost model documented in
// docs/OBSERVABILITY.md: the simulator's per-word hot path allocates
// nothing, with instrumentation fully detached, with a metrics
// registry attached, and with a registry that also carries a tracer —
// tracing that nothing asked for on this path must stay free. One
// Simulate-level check on top guards the whole-simulation path
// (replay plus stats recording) against creeping per-run allocations.
func TestHotLoopZeroAlloc(t *testing.T) {
	tr := allocTrace()
	cfg := Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}

	prev := attached.Load()
	defer attached.Store(prev)

	cases := []struct {
		name   string
		attach func()
	}{
		{"detached", func() { AttachObs(nil) }},
		{"registry", func() { AttachObs(obs.NewRegistry()) }},
		{"registry+tracer", func() {
			r := obs.NewRegistry()
			r.AttachTracer(obs.NewTracer(obs.DefaultTraceCapacity))
			AttachObs(r)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.attach()
			c, err := newCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(50, func() {
				for _, r := range tr.Runs {
					c.Run(r)
				}
			}); got != 0 {
				t.Errorf("hot loop allocates %.1f allocs per replay, want 0", got)
			}
			// The whole-simulation path may allocate the Cache itself
			// but nothing per run: New plus Simulate's bookkeeping stay
			// constant regardless of trace length.
			short, long := allocTrace(), allocTrace()
			long.Runs = append(long.Runs, allocTrace().Runs...)
			aShort := testing.AllocsPerRun(20, func() {
				if _, err := Simulate(cfg, short); err != nil {
					t.Fatal(err)
				}
			})
			aLong := testing.AllocsPerRun(20, func() {
				if _, err := Simulate(cfg, long); err != nil {
					t.Fatal(err)
				}
			})
			if aLong > aShort {
				t.Errorf("Simulate allocations grow with trace length: %v (64 runs) -> %v (128 runs)", aShort, aLong)
			}
		})
	}
}
