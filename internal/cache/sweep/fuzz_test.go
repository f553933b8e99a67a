package sweep

import (
	"encoding/binary"
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
)

// decodeTrace turns raw fuzz bytes into a trace: each 4-byte chunk is
// a (word address, run length) pair packed into a small address range
// so arbitrary inputs still produce cache contention.
func decodeTrace(data []byte) *memtrace.Trace {
	tr := &memtrace.Trace{}
	for len(data) >= 4 && len(tr.Runs) < 4096 {
		v := binary.LittleEndian.Uint32(data)
		data = data[4:]
		addr := (v & 0x3FFF) * memtrace.WordBytes
		words := (v>>14)&0x3F + 1
		tr.Run(memtrace.Run{Addr: addr, Bytes: words * memtrace.WordBytes})
	}
	return tr
}

// fuzzConfigs is the organisation matrix every fuzz input is checked
// against, planned as one Plan: stack groups (two fully associative
// sizes plus a duplicate, two associativities of one 8-set geometry),
// a lone 16-way cache that stacks, a forest of two trees (a lone
// 64-byte-block direct-mapped cache and a 32-byte-block size family),
// and replay-only shapes — a lone 4-way cache, FIFO, sectoring,
// partial loading, prefetch and timing.
var fuzzConfigs = []cache.Config{
	{SizeBytes: 512, BlockBytes: 32, Assoc: 1},
	{SizeBytes: 2048, BlockBytes: 32, Assoc: 1},
	{SizeBytes: 128, BlockBytes: 32, Assoc: 1},
	{SizeBytes: 8192, BlockBytes: 32, Assoc: 1},
	{SizeBytes: 512, BlockBytes: 16, Assoc: 0},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 0},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 4},
	{SizeBytes: 4096, BlockBytes: 64, Assoc: 8},
	{SizeBytes: 1024, BlockBytes: 32, Assoc: 4},
	{SizeBytes: 4096, BlockBytes: 64, Assoc: 16},
	{SizeBytes: 1024, BlockBytes: 32, Assoc: 2, Replacement: cache.FIFO},
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, SectorBytes: 16},
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PartialLoad: true},
	{SizeBytes: 1024, BlockBytes: 32, Assoc: 1, PrefetchNext: true},
	{SizeBytes: 1024, BlockBytes: 32, Assoc: 1, Timing: &cache.TimingConfig{InitialLatency: 4}},
}

// FuzzDifferential cross-checks the planner on arbitrary traces:
// sequential cache.Simulate is the reference, and a Plan over
// fuzzConfigs must reproduce it bit for bit on every organisation —
// fed the materialized trace through Plan.Run, and fed word-fragmented
// runs through a Merger one pass at a time, as the experiments engine
// runs passes. The seed corpus runs as ordinary unit tests;
// `go test -fuzz=FuzzDifferential ./internal/cache/sweep` explores
// further.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	seed := make([]byte, 0, 1024)
	for i := 0; i < 256; i++ {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(i*2654435761))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeTrace(data)
		want := make([]cache.Stats, len(fuzzConfigs))
		for i, cfg := range fuzzConfigs {
			st, err := cache.Simulate(cfg, tr)
			if err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			want[i] = st
		}
		whole, err := NewPlan(fuzzConfigs...)
		if err != nil {
			t.Fatal(err)
		}
		tr.Replay(whole)
		fragmented, err := NewPlan(fuzzConfigs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range fragmented.Passes() {
			m := memtrace.NewMerger(p)
			for _, r := range tr.Runs {
				for off := uint32(0); off < r.Bytes; off += memtrace.WordBytes {
					m.Run(memtrace.Run{Addr: r.Addr + off, Bytes: memtrace.WordBytes})
				}
			}
			m.Flush()
		}
		for _, pl := range []struct {
			name string
			got  []cache.Stats
		}{{"plan", whole.Stats()}, {"fragmented plan", fragmented.Stats()}} {
			for i, cfg := range fuzzConfigs {
				if pl.got[i] != want[i] {
					t.Errorf("%v: %s %+v, sequential %+v", cfg, pl.name, pl.got[i], want[i])
				}
			}
		}
	})
}

// TestFuzzConfigsPlanEveryKind keeps FuzzDifferential's reach: its
// matrix must plan stack passes, the forest and the replay, so the
// fuzzer exercises all three.
func TestFuzzConfigsPlanEveryKind(t *testing.T) {
	pl, err := NewPlan(fuzzConfigs...)
	if err != nil {
		t.Fatal(err)
	}
	orgs := make(map[string]int)
	for _, p := range pl.Passes() {
		orgs[p.Kind()] += p.Orgs()
	}
	if orgs["stack"] == 0 || orgs["forest"] < 2 || orgs["replay"] == 0 {
		t.Errorf("fuzzConfigs plan %v organisations per pass kind; want stack, replay and a forest of two or more", orgs)
	}
}
