package cache

import (
	"testing"

	"impact/internal/memtrace"
	"impact/internal/obs"
)

// broadcastConfigs is the organisation matrix the broadcast replay is
// checked across, including the timed, prefetching, sectored and
// partial configurations no stack pass covers, so the replay is their
// only fast path.
var broadcastConfigs = []Config{
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Replacement: RandomRepl},
	{SizeBytes: 2048, BlockBytes: 32, Assoc: 4},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, Replacement: FIFO},
	{SizeBytes: 4096, BlockBytes: 64, Assoc: 2, Replacement: FIFO},
	{SizeBytes: 512, BlockBytes: 32, Assoc: 2, Replacement: RandomRepl},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8},
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, SectorBytes: 16},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, SectorBytes: 16},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true},
	{SizeBytes: 1024, BlockBytes: 16, Assoc: 2, PartialLoad: true},
	{SizeBytes: 512, BlockBytes: 128, Assoc: 2},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PrefetchNext: true},
	{SizeBytes: 1024, BlockBytes: 32, Assoc: 1, PrefetchNext: true},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &TimingConfig{InitialLatency: 8}},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &TimingConfig{InitialLatency: 6, CriticalWordFirst: true}},
}

// TestSinkSimulatorMatchesMultiSimulate feeds a SinkSimulator as a
// live stream arrives, in word-sized fragments that a Merger
// reassembles, and requires the statistics of multi-simulation (the
// same organisations replaying the materialized trace) and of the
// sequential simulator. Stats must be stable across calls.
func TestSinkSimulatorMatchesMultiSimulate(t *testing.T) {
	tr := randomTrace(17, 2000)
	multi, err := NewSinkSimulator(broadcastConfigs...)
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(multi)
	want := multi.Stats()

	s, err := NewSinkSimulator(broadcastConfigs...)
	if err != nil {
		t.Fatal(err)
	}
	m := memtrace.NewMerger(s)
	for _, r := range tr.Runs {
		for off := uint32(0); off < r.Bytes; off += memtrace.WordBytes {
			m.Run(memtrace.Run{Addr: r.Addr + off, Bytes: memtrace.WordBytes})
		}
	}
	m.Flush()
	got := s.Stats()
	for i, cfg := range broadcastConfigs {
		if got[i] != want[i] {
			t.Errorf("%v: sink %+v, multi %+v", cfg, got[i], want[i])
		}
		st, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != st {
			t.Errorf("%v: sink %+v, sequential %+v", cfg, got[i], st)
		}
	}
	again := s.Stats()
	for i := range got {
		if again[i] != got[i] {
			t.Errorf("Stats changed between calls: %+v vs %+v", again[i], got[i])
		}
	}
}

// TestSinkSimulatorRecordsOnce pins the observation contract: the
// first Stats call folds each simulation into the registry, repeat
// calls do not double-count.
func TestSinkSimulatorRecordsOnce(t *testing.T) {
	prev := attached.Load()
	defer attached.Store(prev)
	reg := obs.NewRegistry()
	AttachObs(reg)

	s, err := NewSinkSimulator(Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(memtrace.Run{Addr: 0, Bytes: 256})
	s.Stats()
	s.Stats()
	if got := reg.Counter("cache.simulations").Value(); got != 1 {
		t.Errorf("cache.simulations = %d, want 1", got)
	}
}
