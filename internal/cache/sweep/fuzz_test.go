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
// against: both stack-eligible shapes (exercising the histogram and
// exec derivation) and replay-only shapes (exercising MultiSimulate's
// broadcast and the direct-mapped fast path).
var fuzzConfigs = []cache.Config{
	{SizeBytes: 512, BlockBytes: 16, Assoc: 0},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
	{SizeBytes: 2048, BlockBytes: 64, Assoc: 4},
	{SizeBytes: 1024, BlockBytes: 32, Assoc: 2, Replacement: cache.FIFO},
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, SectorBytes: 16},
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PartialLoad: true},
	{SizeBytes: 1024, BlockBytes: 32, Assoc: 1, PrefetchNext: true},
}

// FuzzDifferential cross-checks every simulation strategy on
// arbitrary traces: sequential cache.Simulate is the reference;
// cache.MultiSimulate (and with it SinkSimulator, its streaming core)
// must reproduce it bit-for-bit on every organisation, and the stack
// pass — both its batch and streaming (fragmented runs through a
// Merger) forms — on every covered organisation. The seed corpus runs
// as ordinary unit tests in short mode / CI;
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
		got, err := cache.MultiSimulate(fuzzConfigs, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range fuzzConfigs {
			if got[i] != want[i] {
				t.Errorf("%v: MultiSimulate %+v, sequential %+v", cfg, got[i], want[i])
			}
		}
		passes := map[[2]int]*StackPass{}
		for i, cfg := range fuzzConfigs {
			if !Eligible(cfg) {
				continue
			}
			block, sets := Geometry(cfg)
			key := [2]int{block, sets}
			p := passes[key]
			if p == nil {
				var err error
				if p, err = Run(tr, block, sets); err != nil {
					t.Fatal(err)
				}
				passes[key] = p
				// The streaming pass fed word-fragmented runs through a
				// Merger must accumulate the identical pass.
				s, err := NewStream(block, sets)
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
				comparePass(t, "fuzz-stream", s.Pass(), p)
			}
			st, err := p.Stats(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st != want[i] {
				t.Errorf("%v: stack pass %+v, sequential %+v", cfg, st, want[i])
			}
		}
	})
}
