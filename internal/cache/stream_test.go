package cache

import (
	"testing"

	"impact/internal/memtrace"
	"impact/internal/obs"
)

func TestSinkSimulatorMatchesMultiSimulate(t *testing.T) {
	tr := randomTrace(17, 2000)
	cfgs := []Config{
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Replacement: RandomRepl},
		{SizeBytes: 2048, BlockBytes: 32, Assoc: 4},
		{SizeBytes: 4096, BlockBytes: 64, Assoc: 2, Replacement: FIFO},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 4, SectorBytes: 16},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true},
		{SizeBytes: 1024, BlockBytes: 16, Assoc: 2, PartialLoad: true},
		{SizeBytes: 512, BlockBytes: 128, Assoc: 2},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PrefetchNext: true},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &TimingConfig{InitialLatency: 6, CriticalWordFirst: true}},
	}
	want, err := MultiSimulate(cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSinkSimulator(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Runs {
		s.Run(r)
	}
	got := s.Stats()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%v: sink %+v, multi %+v", cfgs[i], got[i], want[i])
		}
		st, err := Simulate(cfgs[i], tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != st {
			t.Errorf("%v: sink %+v, serial %+v", cfgs[i], got[i], st)
		}
	}
	// Stats is stable across calls.
	again := s.Stats()
	for i := range got {
		if again[i] != got[i] {
			t.Errorf("Stats changed between calls: %+v vs %+v", again[i], got[i])
		}
	}
	if _, err := NewSinkSimulator(Config{SizeBytes: 100, BlockBytes: 64}); err == nil {
		t.Error("invalid config accepted")
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
